package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"loam"
	"loam/internal/guard"
)

// tiny is a minimal-size system and stream: every workload's code path and
// check runs, in a few seconds.
var tiny = size{workloadScale: 0.3, trainDays: 4, testDays: 2, epochs: 1, maxTrain: 120, domainPlans: 16,
	setupReps: 2, unitsPerSecond: 1, probeEvery: 2}

// benchmarkMetrics reads the metrics BENCHMARK.json declares, as
// "name unit" strings in name order.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range bench.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range bench.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

var (
	digestRE  = regexp.MustCompile(`digest=([0-9a-f]{16})`)
	samplesRE = regexp.MustCompile(`sentinel samples (\d+) in the deployments' guards, (\d+) in the probes`)
)

// TestWorkloadsSmoke runs every workload at minimal size, untraced and
// traced: each must pass all its checks with no failed operation, print
// exactly the metrics BENCHMARK.json declares for its mode, with their
// units, and choose the same plans traced as untraced.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			digests := map[bool]string{}
			for _, traced := range []bool{false, true} {
				var log bytes.Buffer
				opts := options{workload: name, seed: 3, seconds: 1, trace: traced, size: tiny, workDir: t.TempDir()}
				res, err := runWorkload(context.Background(), workloads[name], opts, &log)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", traced, err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k+" "+m.Unit)
				}
				sort.Strings(got)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("trace=%v: metrics\n  %v\nwant\n  %v", traced, got, want)
				}
				m := digestRE.FindStringSubmatch(log.String())
				if m == nil {
					t.Fatalf("trace=%v: no plan digest printed\n%s", traced, log.String())
				}
				digests[traced] = m[1]
				if traced {
					m := samplesRE.FindStringSubmatch(log.String())
					if m == nil || m[1] != m[2] || m[1] == "0" {
						t.Errorf("guard probes took other sentinel samples than the deployments' guards: %q", m)
					}
				}
			}
			if digests[false] != digests[true] {
				t.Errorf("traced run chose other plans: digest %s untraced, %s traced", digests[false], digests[true])
			}
		})
	}
}

// TestSameSeedSamePlans checks that a seed fixes the stream: two runs of one
// seed choose the same plans, and another seed draws other traffic.
func TestSameSeedSamePlans(t *testing.T) {
	digest := func(seed uint64) string {
		var log bytes.Buffer
		opts := options{workload: "recurring-steer", seed: seed, seconds: 2, size: tiny, workDir: t.TempDir()}
		if _, err := runWorkload(context.Background(), runRecurring, opts, &log); err != nil {
			t.Fatal(err)
		}
		return digestRE.FindStringSubmatch(log.String())[1]
	}
	a, b, c := digest(5), digest(5), digest(6)
	if a != b {
		t.Errorf("seed 5 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave the same digest %s", a)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nosuch"},
		{"--workload", "recurring-steer", "--trace", "2"},
		{"--workload", "recurring-steer", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errw bytes.Buffer
		if code := run(context.Background(), args, &out, &errw); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}

func TestSizeUnits(t *testing.T) {
	s := size{unitsPerSecond: 1.6}
	for _, c := range []struct{ seconds, want int }{{1, 2}, {10, 16}, {15, 24}} {
		if got := s.units(c.seconds); got != c.want {
			t.Errorf("units(%d) = %d, want %d", c.seconds, got, c.want)
		}
	}
	if got := (size{unitsPerSecond: 0.01}).units(1); got != 1 {
		t.Errorf("a stream has at least one unit, got %d", got)
	}
}

// TestGuardProbe replays a served choice through the guard probe as a
// learned result, a native fallback and a shed, and checks which of the
// timed Native and Rough wrappers the guard called for each.
func TestGuardProbe(t *testing.T) {
	ctx := context.Background()
	sim := loam.NewSimulation(systemSeed, loam.DefaultSimulationConfig())
	d, err := buildProject(sim, "project1", tiny).Deploy(deployConfig(tiny))
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.OptimizeCtx(ctx, d.TestSet[0].Query)
	if err != nil || c.Origin != loam.OriginLearned {
		t.Fatalf("served %v, %v; want a learned choice", c.Origin, err)
	}
	r := newRunner(options{trace: true, size: tiny}, &bytes.Buffer{})
	p := r.tr.guardProbe(d)
	calls := func() [2]int { return [2]int{p.roughCalls, p.nativeCalls} }

	r.probeGuard(ctx, d, c)
	if got := calls(); got != [2]int{2, 0} {
		t.Errorf("learned: rough, native calls %v, want [2 0]", got)
	}
	fb := *c
	fb.Origin, fb.Estimates = loam.OriginNativeFallback, nil
	fb.FallbackCause = errors.New("scorer failed")
	r.probeGuard(ctx, d, &fb)
	if got := calls(); got != [2]int{2, 1} {
		t.Errorf("fallback: rough, native calls %v, want [2 1]", got)
	}
	fb.FallbackCause = guard.ErrLoadShed
	r.probeGuard(ctx, d, &fb)
	if got := calls(); got != [2]int{2, 2} {
		t.Errorf("shed: rough, native calls %v, want [2 2]", got)
	}
	if r.tr.queries != 3 || r.tr.learned != 1 {
		t.Errorf("queries %d learned %d, want 3 and 1", r.tr.queries, r.tr.learned)
	}
}
