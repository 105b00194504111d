package main

import (
	"time"

	"loam/perfbench/internal/stat"
)

// The machine-speed reference. A 2-vCPU VM's speed drifts by tens of
// percent over seconds to minutes, which would swamp any change a serving
// timing is meant to show. The benchmark therefore runs a fixed loop of its
// own in short slices interleaved with the queries, and reports timings
// scaled by nominal ÷ measured reference: a machine running slow makes the
// loop slow too, and the scaled figure stays put.
//
// One repetition of the loop is a dependent integer, float and table-lookup
// chain followed by hashed lookups in a 65,536-entry map. The chain alone
// tracks clock speed but slows about a third as much as the serve path when
// a co-tenant contends for the core; the map lookups slow about twice as
// much. On recorded runs of the serving workloads on the reference VM, the
// mix below (about four fifths of the time in the chain) halved the spread
// of scaled throughput between 400-query windows and cut it between runs
// to about 40% of raw wall time's, except where raw time was steady already
// (README.md has the figures).
//
// The loop allocates nothing, so a garbage collection cannot be charged to
// it, and each slice is the fastest of refReps repetitions, so a GC pause or
// a preemption that lands inside one repetition does not read as a slower
// machine (and therefore not as a program gain either).

const (
	// refIters and refLookups size one repetition (≈38 µs on the 2-vCPU
	// reference VM).
	refIters   = 6_000
	refLookups = 800
	// refReps repetitions make one slice; the slice reports the fastest.
	refReps = 3
	// refEvery is how much serving time passes between two slices: three
	// repetitions every 2 ms keep the reference near 6% of the timed phase.
	refEvery = 2 * time.Millisecond
	// refNominalNS is the fastest repetition's nominal duration: its value
	// on the reference VM, so scaled and raw figures read alike there.
	refNominalNS = 38_000.0
)

// refTable is the chain's L1-resident lookup table, refMap the lookup
// loop's map; refSink keeps the results alive so the compiler cannot drop
// the loops.
var (
	refTable [512]uint64
	refMap   = make(map[uint64]float64, refMapSize)
	refSink  uint64
)

const refMapSize = 1 << 16

func init() {
	x := uint64(0x9E3779B97F4A7C15)
	for i := range refTable {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refTable[i] = x
	}
	for i := uint64(0); i < refMapSize; i++ {
		refMap[i*0x9E3779B97F4A7C15] = float64(i)
	}
}

// refLoop runs one repetition: n steps of the dependent chain, then m map
// lookups at pseudo-random keys.
func refLoop(n, m int) uint64 {
	x := uint64(88172645463325252)
	f := 1.0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += refTable[x&511]
		f = f*0.999999 + float64(x&1023)*1e-6
	}
	for i := 0; i < m; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f += refMap[(x&(refMapSize-1))*0x9E3779B97F4A7C15]
	}
	return x ^ uint64(f)
}

// refMeter interleaves reference slices with the timed phase.
type refMeter struct {
	slices  []float64 // fastest repetition of each slice, ns
	spent   time.Duration
	pending time.Duration
}

// slice runs one reference slice and records it.
func (m *refMeter) slice() {
	start := time.Now()
	best := time.Duration(1 << 62)
	for r := 0; r < refReps; r++ {
		t := time.Now()
		refSink ^= refLoop(refIters, refLookups)
		if d := time.Since(t); d < best {
			best = d
		}
	}
	m.slices = append(m.slices, float64(best.Nanoseconds()))
	m.spent += time.Since(start)
}

// after accounts d of serving time and runs a slice once refEvery of it has
// passed since the last one.
func (m *refMeter) after(d time.Duration) {
	m.pending += d
	if m.pending >= refEvery {
		m.pending = 0
		m.slice()
	}
}

// medianNS is the median slice; a meter that never ran takes one slice now.
func (m *refMeter) medianNS() float64 {
	if len(m.slices) == 0 {
		m.slice()
	}
	return stat.Median(m.slices)
}

// scale is the factor turning a raw wall time of the metered phase into a
// reference-machine time.
func (m *refMeter) scale() float64 { return refNominalNS / m.medianNS() }
