package main

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"loam"
	"loam/internal/nativeopt"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/perfbench/internal/stat"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	size     size
	// workDir holds the run's scratch files (the feedback-loop store) and
	// the traced run's span dump.
	workDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's closing JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workKey identifies one (query, plan) pair whose true work was computed.
type workKey struct {
	q  *query.Query
	fp uint64
}

// runner carries one run's measurements and checks. Workloads drive it: they
// time set-up through setup, serve their stream through served, and fill
// per-layer figures into layer when tracing.
type runner struct {
	opts options
	log  io.Writer
	ref  refMeter
	tr   *tracer

	setupS []float64
	// lat is each query's raw time to a plan; busy the raw serving time of
	// the timed phase (queries, plus a workload's own per-day control calls).
	lat  []float64
	busy time.Duration
	// completed queries; attempted and failed operations; serve calls that
	// returned an error; check violations by check name.
	completed, attempted, failed, serveErrors int
	violations                                map[string]int
	// endOK is false once an end-of-run check fails.
	endOK bool

	digest                  uint64
	workChosen, workDefault float64
	workMemo                map[workKey]float64
	defaultMemo             map[*query.Query]uint64
	heapMB                  float64

	// layer holds the per-layer figures of a traced run.
	layer map[string]metric
}

func newRunner(opts options, log io.Writer) *runner {
	r := &runner{
		opts:        opts,
		log:         log,
		violations:  map[string]int{},
		endOK:       true,
		digest:      fnvOffset,
		workMemo:    map[workKey]float64{},
		defaultMemo: map[*query.Query]uint64{},
		layer:       map[string]metric{},
	}
	if opts.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// setup times build opts.size.setupReps times after a forced GC each and
// returns the last system built; setup_s is the median of the timings.
func setup[T any](r *runner, build func() (T, error)) (T, error) {
	var sys T
	for i := 0; i < r.opts.size.setupReps; i++ {
		runtime.GC()
		start := time.Now()
		s, err := build()
		if err != nil {
			return sys, err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		sys = s
	}
	r.logf("setup: reps=%d median=%.3fs each=%s", len(r.setupS), stat.Median(r.setupS), fmtSecs(r.setupS))
	return sys, nil
}

// served records one query of the timed phase: its time to a plan (raw) and
// the serving time it adds to the phase.
func (r *runner) served(toPlan, busy time.Duration) {
	r.lat = append(r.lat, float64(toPlan.Nanoseconds()))
	r.busy += busy
	r.ref.after(busy)
}

// control adds serving work of the timed phase that belongs to no single
// query (a fleet's day boundary) to the phase's serving time.
func (r *runner) control(d time.Duration) {
	r.busy += d
	r.ref.after(d)
}

// violate records a failed check.
func (r *runner) violate(name string) { r.violations[name]++ }

// verify runs the per-query correctness checks on a served choice and
// accounts the query as completed or failed. scoreCheck additionally replays
// a learned choice through the guard's uncached learned path and demands
// bit-identical estimates; it must run before anything changes the cluster.
func (r *runner) verify(d *loam.Deployment, c *loam.Choice, scoreCheck bool) {
	r.attempted++
	before := sumViolations(r.violations)
	ps := d.ProjectSim
	q := c.Query
	cands := c.Candidates

	// Candidate 0 is the native default plan, computed independently here.
	if len(cands) == 0 || cands[0] == nil {
		r.violate("no_default_candidate")
	} else {
		fp, ok := r.defaultMemo[q]
		if !ok {
			fp = nativeopt.DefaultPlan(ps.View(q.Day), q).Root.Fingerprint()
			r.defaultMemo[q] = fp
		}
		if cands[0].Root.Fingerprint() != fp {
			r.violate("default_fingerprint")
		}
	}
	// Candidates are distinct and each scans exactly the query's tables.
	want := sortedTables(q.Tables)
	seen := map[uint64]bool{}
	for _, p := range cands {
		fp := p.Root.Fingerprint()
		if seen[fp] {
			r.violate("duplicate_candidate")
		}
		seen[fp] = true
		if got := sortedTables(p.Root.Tables()); got != want {
			r.violate("candidate_tables")
		}
	}
	switch {
	case c.Chosen == nil:
		r.violate("no_chosen_plan")
	case c.Origin == loam.OriginLearned:
		if !argminOK(c) {
			r.violate("learned_not_argmin")
		}
		if scoreCheck {
			envs, _ := envSource(d)
			_, ests, err := d.Guard().ScoreLearned(cands, envs)
			if err != nil || !sameBits(ests, c.Estimates) {
				r.violate("cached_estimates_differ")
			}
		}
	default:
		if c.FallbackCause == nil {
			r.violate("fallback_without_cause")
		}
	}
	if sumViolations(r.violations) != before {
		r.failed++
		return
	}
	r.completed++
	fp := c.Chosen.Root.Fingerprint()
	r.digest = fnvMix(r.digest, fp)
	r.workChosen += r.work(ps, q, c.Chosen, fp)
	r.workDefault += r.work(ps, q, cands[0], cands[0].Root.Fingerprint())
}

// work is a plan's true work for a query (exec.Executor.Work over true
// cardinalities), memoized per (query, plan).
func (r *runner) work(ps *loam.ProjectSim, q *query.Query, p *plan.Plan, fp uint64) float64 {
	k := workKey{q, fp}
	if w, ok := r.workMemo[k]; ok {
		return w
	}
	w, _, _, _ := ps.Executor.Work(p, q.Day)
	r.workMemo[k] = w
	return w
}

// endPhase closes the timed phase: it closes a traced run's guard probes,
// drops the benchmark's own memo tables and reads the heap in use after two forced GCs — the second frees
// what sync.Pool caches kept through the first, which otherwise moves the
// figure by several percent from run to run.
func (r *runner) endPhase() {
	if r.tr != nil {
		r.tr.endPhase()
	}
	r.workMemo, r.defaultMemo = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
}

// endCheck records an end-of-run check.
func (r *runner) endCheck(name string, ok bool) {
	if !ok {
		r.violate(name)
		r.endOK = false
	}
}

// result assembles the closing line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func (r *runner) result() result {
	scale := r.ref.scale()
	refNS := r.ref.medianNS()
	p50, _ := stat.Percentile(r.lat, 0.5)
	p90, ok90 := stat.Percentile(r.lat, 0.9)
	p99, ok99 := stat.Percentile(r.lat, 0.99)
	busyS := r.busy.Seconds()
	wallQPS := float64(r.completed) / busyS
	refShare := r.ref.spent.Seconds() / (busyS + r.ref.spent.Seconds())
	r.logf("serve: queries=%d busy=%.3fs raw=%.1f q/s scaled=%.1f q/s ref=%.0fns (x%.4f, %d slices, %.1f%% of phase)",
		r.completed, busyS, wallQPS, wallQPS/scale, refNS, scale, len(r.ref.slices), 100*refShare)
	r.logf("latency ms: p50 raw=%.4f scaled=%.4f  p90 raw=%.4f scaled=%.4f%s  p99 raw=%.4f scaled=%.4f%s  (n=%d)",
		p50/1e6, p50*scale/1e6, p90/1e6, p90*scale/1e6, tailNote(ok90), p99/1e6, p99*scale/1e6, tailNote(ok99), len(r.lat))
	r.logf("plans: digest=%016x chosen_work_ratio=%.6f", r.digest, r.workChosen/r.workDefault)
	r.logf("checks: attempted=%d failed=%d serve_errors=%d violations=%s",
		r.attempted, r.failed, r.serveErrors, fmtViolations(r.violations))

	res := result{
		Correct:   r.endOK && sumViolations(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	if r.tr == nil {
		res.Metrics = map[string]metric{
			"setup_s":           {stat.Median(r.setupS), "s"},
			"throughput_qps":    {wallQPS / scale, "1/s"},
			"latency_p50_ms":    {p50 * scale / 1e6, "ms"},
			"latency_p90_ms":    {p90 * scale / 1e6, "ms"},
			"live_heap_mb":      {r.heapMB, "MB"},
			"chosen_work_ratio": {r.workChosen / r.workDefault, "ratio"},
		}
		return res
	}
	r.layer["bench.wall_qps"] = metric{wallQPS, "1/s"}
	r.layer["bench.ref_ns"] = metric{refNS, "ns"}
	res.Metrics = r.layer
	return res
}

func tailNote(ok bool) string {
	if ok {
		return ""
	}
	return " (too few samples beyond)"
}

func sortedTables(ts []string) string {
	s := append([]string(nil), ts...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// argminOK reports whether a learned choice is the argmin of its finite
// estimates.
func argminOK(c *loam.Choice) bool {
	i := c.ChosenIdx
	if i < 0 || i >= len(c.Estimates) || i >= len(c.Candidates) || c.Candidates[i] != c.Chosen {
		return false
	}
	best := c.Estimates[i]
	if math.IsNaN(best) || math.IsInf(best, 0) {
		return false
	}
	for _, e := range c.Estimates {
		if !math.IsNaN(e) && !math.IsInf(e, 0) && e < best {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sumViolations(v map[string]int) int {
	n := 0
	for _, c := range v {
		n += c
	}
	return n
}

func fmtViolations(v map[string]int) string {
	if len(v) == 0 {
		return "none"
	}
	names := make([]string, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, v[k])
	}
	return strings.Join(parts, ",")
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ",")
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvMix folds a 64-bit value into an FNV-1a digest, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	// The walk's callback swallows every error, so WalkDir returns none: an
	// unreadable entry just adds nothing.
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
