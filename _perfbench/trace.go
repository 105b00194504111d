package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"loam"
	"loam/internal/cardinality"
	"loam/internal/encoding"
	"loam/internal/explorer"
	"loam/internal/guard"
	"loam/internal/nativeopt"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/telemetry"
)

// The traced mode serves the same stream as an untraced run and records a
// span around every call the benchmark makes into a layer. Spans stay in
// memory and are written out when the run ends. Layers the benchmark cannot
// wrap, because the program reaches them inside one of its own calls, are
// attributed from the program's wall timers and counters, or measured by
// probes: timed calls of the layer's public function on the same inputs,
// made outside every span.

// span is one recorded layer call.
type span struct {
	Name   string `json:"name"`
	Query  int    `json:"query"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and the per-layer attributions of a traced run.
type tracer struct {
	t0    time.Time
	spans []span

	// Attributions and probes, summed over the timed phase.
	queries, candidates, learned int
	predictor                    time.Duration
	explorerProbe, envProbe      time.Duration
	// guards replay each deployment's served requests (see guardProbe).
	guards map[*loam.Deployment]*guardProbe
	// routeSelf and guardInRoute split fleet-fresh's Route spans.
	routeSelf, guardInRoute        time.Duration
	optCalls, roughCalls, estCalls int
	optNS, roughNS, estNS          time.Duration
	allocBytes                     uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), guards: map[*loam.Deployment]*guardProbe{}}
}

func (t *tracer) begin(name string, q, parent int) int {
	t.spans = append(t.spans, span{Name: name, Query: q, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// times returns each span name's total and self time: a span's self time is
// its duration minus the durations of its child spans.
func (t *tracer) times() (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return total, self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs, for the tracing
// overhead figure.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", i, -1))
	}
	return time.Since(start) / n
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// runtimeCounts reads the bytes allocated and GC cycles completed so far.
func runtimeCounts() (allocs, cycles uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
}

// wallSeconds reads a program wall timer.
func wallSeconds(reg *telemetry.Registry, name string) time.Duration {
	return time.Duration(reg.Timer(name).Seconds() * 1e9)
}

func count(reg *telemetry.Registry, name string) int64 { return reg.Counter(name).Value() }

// tracedOptimize steers q exactly as Deployment.OptimizeCtx does — explorer
// candidates, environment resolution, then the deployment's own guard — with
// explorer, env and guard as sibling spans under one serve span. The
// predictor's share of the guard span is attributed from the deployment's
// predictor.selectplan.time wall timer; the sentinel and fallback shares are
// taken by replaying the request through a guardProbe after the serve span
// closes.
func (r *runner) tracedOptimize(ctx context.Context, d *loam.Deployment, q *query.Query, qi int) (*loam.Choice, error) {
	t := r.tr
	t.guardProbe(d)
	reg := d.Telemetry()
	predBefore := wallSeconds(reg, "predictor.selectplan.time")
	root := t.begin("serve", qi, -1)
	s := t.begin("explorer", qi, root)
	cands := d.ProjectSim.Explorer(q.Day).Candidates(q)
	t.end(s)
	s = t.begin("cluster.env", qi, root)
	envs, key := envSource(d)
	t.end(s)
	s = t.begin("guard", qi, root)
	res, err := d.Guard().Serve(ctx, guard.Request{ID: q.ID, Day: q.Day, Query: q, Cands: cands, Envs: envs, EnvKey: key})
	t.end(s)
	t.end(root)
	t.predictor += wallSeconds(reg, "predictor.selectplan.time") - predBefore
	if err != nil {
		return nil, err
	}
	idx := -1
	for i := range cands {
		if cands[i] == res.Chosen {
			idx = i
			break
		}
	}
	return &loam.Choice{
		Query:         q,
		Candidates:    cands,
		Estimates:     res.Estimates,
		Chosen:        res.Chosen,
		ChosenIdx:     idx,
		Origin:        res.Origin,
		FallbackCause: res.FallbackCause,
	}, nil
}

// guardProbe measures what the guard does inside its own call besides
// scoring: the regression sentinel's rough costs and the native fallback's
// re-plan. It is a guard built with guard.New on the deployment's guard
// configuration, around timed wrappers of the same Native and Rough
// functions the deployment wires in, and a scorer that returns the served
// result. Each served request is replayed through it outside every span, so
// the guard's own code decides which wrappers run and how often: a change to
// how the sentinel or the fallback uses them moves these figures. The probe
// keeps its own breaker and sentinel state; it is reset whenever that state
// would keep a replay off the learned path the deployment took.
type guardProbe struct {
	g      *guard.Guard
	reg    *telemetry.Registry
	scorer replayScorer
	// samples0 is the deployment's guard.sentinel.samples when the probe
	// was made, before the deployment's first traced serve; samples is how
	// many the deployment's guard took from then to the end of the timed
	// phase.
	samples0, samples       int64
	rough, native           time.Duration
	roughCalls, nativeCalls int
}

// replayScorer is the probe guard's learned path: it returns the result the
// deployment served, or the failure that made the deployment fall back.
type replayScorer struct {
	chosen *plan.Plan
	ests   []float64
	err    error
}

func (s *replayScorer) SelectPlan([]*plan.Plan, encoding.EnvSource) (*plan.Plan, []float64, error) {
	return s.chosen, s.ests, s.err
}

// guardProbe returns d's probe, making it on d's first traced serve.
func (t *tracer) guardProbe(d *loam.Deployment) *guardProbe {
	if p, ok := t.guards[d]; ok {
		return p
	}
	ps := d.ProjectSim
	p := &guardProbe{reg: telemetry.NewRegistry(), samples0: count(d.Telemetry(), "guard.sentinel.samples")}
	p.g = guard.New(guard.Options{
		Config: d.Guard().Config(),
		Scorer: &p.scorer,
		Native: func(q *query.Query) *plan.Plan {
			start := time.Now()
			defer func() { p.native += time.Since(start); p.nativeCalls++ }()
			return nativeopt.DefaultPlan(ps.View(q.Day), q)
		},
		Rough: func(day int, pl *plan.Plan) float64 {
			start := time.Now()
			c := nativeopt.New(ps.View(day)).RoughCost(pl)
			p.rough += time.Since(start)
			p.roughCalls++
			return c
		},
		Metrics: p.reg,
	})
	t.guards[d] = p
	return p
}

// endPhase records, at the end of the timed phase, how many sentinel
// samples each deployment's guard took during it.
func (t *tracer) endPhase() {
	for d, p := range t.guards {
		p.samples = count(d.Telemetry(), "guard.sentinel.samples") - p.samples0
	}
}

// probeGuard counts a served choice and replays its request through the
// deployment's guard probe: a learned choice as a learned result, a shed as
// a shed, any other fallback as a learned-path failure with the same cause.
func (r *runner) probeGuard(ctx context.Context, d *loam.Deployment, c *loam.Choice) {
	t := r.tr
	t.queries++
	t.candidates += len(c.Candidates)
	if c.Origin == loam.OriginLearned {
		t.learned++
	}
	p := t.guardProbe(d)
	if p.g.Quarantined() || p.g.State() != guard.BreakerClosed {
		p.g.Reset()
	}
	q := c.Query
	req := guard.Request{ID: q.ID, Day: q.Day, Query: q, Cands: c.Candidates}
	if errors.Is(c.FallbackCause, guard.ErrLoadShed) {
		p.g.ServeShed(req, nil)
		return
	}
	p.scorer = replayScorer{chosen: c.Chosen, ests: c.Estimates, err: c.FallbackCause}
	p.g.Serve(ctx, req)
}

// probePlanner times, on every probeEvery-th query, the planner calls the
// explorer makes for it: one nativeopt.Optimize per flag set and card
// scale, one RoughCost and one cardinality estimate (ViewSource) per
// candidate.
func (r *runner) probePlanner(ps *loam.ProjectSim, q *query.Query, cands []*plan.Plan, qi int) {
	if qi%r.opts.size.probeEvery != 0 {
		return
	}
	t := r.tr
	view := ps.View(q.Day)
	base := nativeopt.New(view)
	flags := []nativeopt.Flags{{}, {MergeJoin: true}, {BroadcastJoin: true}, {ShuffleCombine: true},
		{SpoolEager: true}, {FilterPushdown: true}, {DopHigh: true}}
	start := time.Now()
	for _, f := range flags {
		base.Optimize(q, f)
	}
	for _, scale := range explorer.New(view).CardScales {
		(&nativeopt.Optimizer{View: view, CardScale: scale}).Optimize(q, nativeopt.Flags{})
	}
	t.optNS += time.Since(start)
	t.optCalls += len(flags) + len(explorer.New(view).CardScales)

	start = time.Now()
	for _, p := range cands {
		base.RoughCost(p)
	}
	t.roughNS += time.Since(start)
	t.roughCalls += len(cands)

	est := &cardinality.Estimator{Src: cardinality.ViewSource(view)}
	start = time.Now()
	for _, p := range cands {
		est.Estimate(p.Root)
	}
	t.estNS += time.Since(start)
	t.estCalls += len(cands)
}

// layerFigures turns the traced run's spans and attributions into the
// per-layer metrics every workload reports, extra holding the workload's
// own (layers a workload does not reach read 0), and prints how the layer
// self times account for the traced serve time. guardTotal is the guard's
// time including what it called; serveTotal the traced serve time.
func (r *runner) layerFigures(extra map[string]metric, guardTotal, serveTotal time.Duration, gcCycles uint64) {
	t := r.tr
	total, self := t.times()
	n := float64(t.queries)
	if n == 0 {
		n = 1
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	perCall := func(d time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(calls)
	}
	explorerNS := total["explorer"]
	if explorerNS == 0 {
		explorerNS = t.explorerProbe
	}
	envNS := total["cluster.env"]
	if envNS == 0 {
		envNS = t.envProbe
	}
	var sentinel, fallback time.Duration
	var sentinelCalls int
	var samples, probeSamples int64
	for _, p := range t.guards {
		sentinel += p.rough
		fallback += p.native
		sentinelCalls += p.roughCalls
		samples += p.samples
		probeSamples += count(p.reg, "guard.sentinel.samples")
	}
	guardSelf := guardTotal - t.predictor - sentinel - fallback
	L := map[string]metric{}
	for name, unit := range layerUnits {
		L[name] = metric{0, unit}
	}
	for k, v := range map[string]metric{
		"explorer.ns_per_query":          {per(explorerNS), "ns"},
		"explorer.candidates_per_query":  {float64(t.candidates) / n, "count"},
		"nativeopt.optimize_ns":          {perCall(t.optNS, t.optCalls), "ns"},
		"nativeopt.roughcost_ns":         {perCall(t.roughNS, t.roughCalls), "ns"},
		"cardinality.estimate_ns":        {perCall(t.estNS, t.estCalls), "ns"},
		"cluster.env_ns_per_query":       {per(envNS), "ns"},
		"guard.self_ns_per_query":        {per(guardSelf), "ns"},
		"guard.sentinel_ns_per_query":    {per(sentinel), "ns"},
		"guard.sentinel_calls_per_query": {float64(sentinelCalls) / n, "count"},
		"guard.fallback_ns_per_query":    {per(fallback), "ns"},
		"guard.learned_ratio":            {float64(t.learned) / n, "ratio"},
		"predictor.select_ns_per_query":  {per(t.predictor), "ns"},
		"runtime.alloc_kb_per_query":     {float64(t.allocBytes) / 1024 / n, "kB"},
		"runtime.gc_cycles_per_kquery":   {float64(gcCycles) * 1000 / n, "count"},
	} {
		L[k] = v
	}
	for k, v := range extra {
		L[k] = v
	}
	// The tracing overhead: what recording the serve spans adds to the
	// serve time, as a share of the untraced serve time.
	recorded := 0
	for _, s := range t.spans {
		if s.Name != "exec" && s.Name != "fleet.rebalance" {
			recorded++
		}
	}
	overhead := time.Duration(recorded) * spanCost()
	L["bench.trace_overhead"] = metric{float64(overhead) / float64(serveTotal-overhead), "ratio"}
	r.layer = L

	for _, k := range sortedKeys(total) {
		r.logf("trace: span %-12s total=%9.3fms self=%9.3fms", k, ms(total[k]), ms(self[k]))
	}
	// The serve time of the traced queries, split into layer self times.
	// What no layer claims is the remainder: the benchmark's own glue
	// between the calls and the recording of the spans.
	parts := []struct {
		name string
		d    time.Duration
	}{
		{"explorer", explorerNS},
		{"cluster.env", envNS},
		{"guard.self", guardSelf},
		{"predictor", t.predictor},
		{"guard.sentinel", sentinel},
		{"guard.fallback", fallback},
		{"fleet.route_self", time.Duration(L["fleet.route_self_ns_per_query"].Value * n)},
	}
	accounted := time.Duration(0)
	r.logf("trace: %d spans; serve time %.3fs over %d queries", len(t.spans), serveTotal.Seconds(), t.queries)
	for _, p := range parts {
		r.logf("trace:   %-18s %10.1f ns/query %6.2f%%", p.name, per(p.d), pct(p.d, serveTotal))
		accounted += p.d
	}
	r.logf("trace:   %-18s %10.1f ns/query %6.2f%%", "remainder", per(serveTotal-accounted), pct(serveTotal-accounted, serveTotal))
	r.logf("trace: sentinel samples %d in the deployments' guards, %d in the probes (%d RoughCost calls)",
		samples, probeSamples, sentinelCalls)
	r.logf("trace: span recording overhead %.3f%% of untraced serve time", 100*L["bench.trace_overhead"].Value)
}

func sortedKeys(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// layerUnits are the units of the per-layer metrics a workload may leave at 0.
var layerUnits = map[string]string{
	"fleet.route_self_ns_per_query": "ns",
	"fleet.rebalance_ns":            "ns",
	"fleet.shed_ratio":              "ratio",
	"exec.execute_ns_per_query":     "ns",
	"lifecycle.retrains":            "count",
	"lifecycle.promotes":            "count",
	"lifecycle.retrain_ns":          "ns",
	"durable.journal_appends":       "count",
	"durable.checkpoints":           "count",
	"durable.store_bytes":           "bytes",
	"predictor.cache_hit_ratio":     "ratio",
	"predictor.cache_evictions":     "count",
}

// writeTrace dumps the spans into the run's work directory.
func (r *runner) writeTrace() {
	path := filepath.Join(r.opts.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.opts.workload, r.opts.seed))
	if err := r.tr.write(path); err != nil {
		r.logf("trace: write %s: %v", path, err)
		r.endCheck("trace_written", false)
		return
	}
	r.logf("trace: spans written to %s", path)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func pct(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// cacheFigures reads the plan-cache hit ratio and evictions from counter
// deltas.
func cacheFigures(hits, misses, evictions int64) map[string]metric {
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	return map[string]metric{
		"predictor.cache_hit_ratio": {ratio, "ratio"},
		"predictor.cache_evictions": {float64(evictions), "count"},
	}
}
