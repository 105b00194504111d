package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"loam"
	"loam/internal/durable"
	"loam/internal/guard"
	"loam/internal/query"
)

// scoreEvery is how often (in queries) a learned choice's estimates are
// replayed through the guard's uncached learned path and compared bit for
// bit.
const scoreEvery = 37

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *runner) error{
	"recurring-steer": runRecurring,
	"fleet-fresh":     runFleet,
	"feedback-loop":   runFeedback,
}

// optimize steers one query through the deployment — OptimizeCtx when
// untraced, the span-recording decomposition when traced — and returns the
// choice with its time to a plan.
func (r *runner) optimize(ctx context.Context, d *loam.Deployment, q *query.Query, qi int) (*loam.Choice, time.Duration, error) {
	if r.tr == nil {
		start := time.Now()
		c, err := d.OptimizeCtx(ctx, q)
		return c, time.Since(start), err
	}
	a0, _ := runtimeCounts()
	start := time.Now()
	c, err := r.tracedOptimize(ctx, d, q, qi)
	el := time.Since(start)
	a1, _ := runtimeCounts()
	r.tr.allocBytes += a1 - a0
	if err == nil {
		r.probeGuard(ctx, d, c)
		r.probePlanner(d.ProjectSim, q, c.Candidates, qi)
	}
	return c, el, err
}

// failedQuery accounts a query whose serve returned an error: a failed
// operation, but not a wrong answer, so it leaves correct alone.
func (r *runner) failedQuery(err error) {
	r.attempted++
	r.failed++
	r.serveErrors++
	r.logf("serve error: %v", err)
}

// runRecurring is the recurring-steer workload: one project shaped like
// Table-1 project1 serves its test window, replayed in seeded order after
// one untimed warm-up round, so the plan cache holds the whole working set.
func runRecurring(ctx context.Context, r *runner) error {
	sz := r.opts.size
	d, err := setup(r, func() (*loam.Deployment, error) {
		sim := loam.NewSimulation(systemSeed, loam.DefaultSimulationConfig())
		return buildProject(sim, "project1", sz).Deploy(deployConfig(sz))
	})
	if err != nil {
		return err
	}
	test := make([]*query.Query, len(d.TestSet))
	for i, e := range d.TestSet {
		test[i] = e.Query
	}
	for _, q := range test {
		if _, err := d.OptimizeCtx(ctx, q); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	rounds := sz.units(r.opts.seconds)
	rng := traffic(r.opts.seed, "recurring-steer")
	r.logf("stream: %d rounds of %d test-window queries", rounds, len(test))

	reg := d.Telemetry()
	hits0, miss0, ev0 := count(reg, "predictor.cache.hits"), count(reg, "predictor.cache.misses"), count(reg, "predictor.cache.evictions")
	_, gc0 := runtimeCounts()
	qi := 0
	for round := 0; round < rounds; round++ {
		for _, q := range shuffled(rng, test) {
			c, el, err := r.optimize(ctx, d, q, qi)
			r.served(el, el)
			if err != nil {
				r.failedQuery(err)
			} else {
				r.verify(d, c, qi%scoreEvery == 0)
			}
			qi++
		}
	}
	_, gc1 := runtimeCounts()
	r.endPhase()
	runtime.KeepAlive(d)
	if r.tr != nil {
		total, _ := r.tr.times()
		extra := cacheFigures(count(reg, "predictor.cache.hits")-hits0, count(reg, "predictor.cache.misses")-miss0,
			count(reg, "predictor.cache.evictions")-ev0)
		r.layerFigures(extra, total["guard"], total["serve"], gc1-gc0)
		r.writeTrace()
	}
	return nil
}

// fleetProjects are the fleet-fresh tenants: degraded statistics on a
// narrow catalog (project2), pristine statistics on a wide catalog
// (project3) and pristine statistics with scarce history (project4).
var fleetProjects = []string{"project2", "project3", "project4"}

// fleetCacheBudget is the fleet's global plan-cache budget in entries —
// below one simulated day's combined working set, so the budget governor
// evicts as the fleet runs.
const fleetCacheBudget = 1024

type fleetSystem struct {
	sim  *loam.Simulation
	fl   *loam.FleetRegistry
	deps []*loam.Deployment
}

// runFleet is the fleet-fresh workload: several Table-1 project shapes in
// one FleetRegistry serve the days after their history, interleaved across
// tenants, with Tick and Rebalance between simulated days.
func runFleet(ctx context.Context, r *runner) error {
	sz := r.opts.size
	sys, err := setup(r, func() (fleetSystem, error) {
		sim := loam.NewSimulation(systemSeed, loam.DefaultSimulationConfig())
		cfg := loam.DefaultFleetConfig()
		cfg.CacheBudget = fleetCacheBudget
		fl := sim.NewFleet(cfg)
		s := fleetSystem{sim: sim, fl: fl}
		for _, name := range fleetProjects {
			d, err := buildProject(sim, name, sz).Deploy(deployConfig(sz))
			if err != nil {
				return s, err
			}
			if err := fl.Register(name, d); err != nil {
				return s, err
			}
			s.deps = append(s.deps, d)
		}
		return s, nil
	})
	if err != nil {
		return err
	}

	// The stream: each tenant's queries for the days after its history,
	// starting at a seeded offset and interleaved in seeded order. Query
	// generation and each day's statistics snapshot are inputs, built
	// before the timed phase.
	rng := traffic(r.opts.seed, "fleet-fresh")
	first := sz.trainDays + sz.testDays + rng.IntN(7)
	days := sz.units(r.opts.seconds)
	type item struct {
		d *loam.Deployment
		q *query.Query
	}
	stream := make([][]item, days)
	total := 0
	for i := range stream {
		day := first + i
		for _, d := range sys.deps {
			d.ProjectSim.View(day)
			for _, q := range d.ProjectSim.Gen.Day(day) {
				stream[i] = append(stream[i], item{d, q})
			}
		}
		rng.Shuffle(len(stream[i]), func(a, b int) { stream[i][a], stream[i][b] = stream[i][b], stream[i][a] })
		total += len(stream[i])
	}
	r.logf("stream: %d tenants, days %d..%d, %d queries", len(sys.deps), first, first+days-1, total)

	fleetReg := sys.sim.Telemetry()
	shed0, route0 := count(fleetReg, "fleet.admission.shed"), count(fleetReg, "fleet.route.total")
	var hits0, miss0, ev0 int64
	for _, d := range sys.deps {
		reg := d.Telemetry()
		hits0 += count(reg, "predictor.cache.hits")
		miss0 += count(reg, "predictor.cache.misses")
		ev0 += count(reg, "predictor.cache.evictions")
	}
	var rebalance time.Duration
	rebalances := 0
	_, gc0 := runtimeCounts()
	qi := 0
	for i, dayItems := range stream {
		for _, it := range dayItems {
			var c *loam.Choice
			var el time.Duration
			if r.tr == nil {
				start := time.Now()
				c, err = sys.fl.Route(ctx, it.d.ProjectSim.Config.Name, it.q)
				el = time.Since(start)
			} else {
				c, el, err = r.tracedRoute(ctx, sys.fl, it.d, it.q, qi)
			}
			r.served(el, el)
			if err != nil {
				r.failedQuery(err)
			} else {
				r.verify(it.d, c, qi%scoreEvery == 0)
			}
			qi++
		}
		if i == len(stream)-1 {
			break
		}
		start := time.Now()
		var span int
		if r.tr != nil {
			span = r.tr.begin("fleet.rebalance", -1, -1)
		}
		sys.fl.Tick()
		sys.fl.Rebalance()
		if r.tr != nil {
			r.tr.end(span)
		}
		el := time.Since(start)
		r.control(el)
		rebalance += el
		rebalances++
		b := sys.fl.Budget()
		r.endCheck("budget_invariant", b.Entries <= b.Granted && b.Granted <= b.Budget)
	}
	_, gc1 := runtimeCounts()
	r.endPhase()
	runtime.KeepAlive(sys)
	if r.tr != nil {
		var hits, miss, ev int64
		for _, d := range sys.deps {
			reg := d.Telemetry()
			hits += count(reg, "predictor.cache.hits")
			miss += count(reg, "predictor.cache.misses")
			ev += count(reg, "predictor.cache.evictions")
		}
		extra := cacheFigures(hits-hits0, miss-miss0, ev-ev0)
		n := float64(r.tr.queries)
		extra["fleet.route_self_ns_per_query"] = metric{float64(r.tr.routeSelf.Nanoseconds()) / n, "ns"}
		if rebalances > 0 {
			extra["fleet.rebalance_ns"] = metric{float64(rebalance.Nanoseconds()) / float64(rebalances), "ns"}
		}
		routes := count(fleetReg, "fleet.route.total") - route0
		extra["fleet.shed_ratio"] = metric{float64(count(fleetReg, "fleet.admission.shed")-shed0) / float64(routes), "ratio"}
		total, _ := r.tr.times()
		r.layerFigures(extra, r.tr.guardInRoute, total["fleet.route"], gc1-gc0)
		r.writeTrace()
	}
	return nil
}

// tracedRoute routes one query inside a fleet.route span. Route reaches the
// deployment inside the registry, so the layers below it are attributed:
// the deployment's serve.optimize.latency and predictor.selectplan.time
// wall timers bound the deployment's and the predictor's shares, and the
// explorer and environment shares are probed after the span closes.
func (r *runner) tracedRoute(ctx context.Context, fl *loam.FleetRegistry, d *loam.Deployment, q *query.Query, qi int) (*loam.Choice, time.Duration, error) {
	t := r.tr
	t.guardProbe(d)
	reg := d.Telemetry()
	opt0 := wallSeconds(reg, "serve.optimize.latency")
	pred0 := wallSeconds(reg, "predictor.selectplan.time")
	a0, _ := runtimeCounts()
	start := time.Now()
	s := t.begin("fleet.route", qi, -1)
	c, err := fl.Route(ctx, d.ProjectSim.Config.Name, q)
	t.end(s)
	el := time.Since(start)
	a1, _ := runtimeCounts()
	t.allocBytes += a1 - a0
	optimize := wallSeconds(reg, "serve.optimize.latency") - opt0
	t.predictor += wallSeconds(reg, "predictor.selectplan.time") - pred0
	t.routeSelf += time.Duration(t.spans[s].End-t.spans[s].Start) - optimize
	if err != nil {
		return nil, el, err
	}
	// Probes of what the deployment did inside Route.
	pstart := time.Now()
	d.ProjectSim.Explorer(q.Day).Candidates(q)
	explore := time.Since(pstart)
	t.explorerProbe += explore
	env := time.Duration(0)
	if !errors.Is(c.FallbackCause, guard.ErrLoadShed) {
		pstart = time.Now()
		envSource(d)
		env = time.Since(pstart)
		t.envProbe += env
	}
	t.guardInRoute += optimize - explore - env
	r.probeGuard(ctx, d, c)
	r.probePlanner(d.ProjectSim, q, c.Candidates, qi)
	return c, el, nil
}

// runFeedback is the feedback-loop workload: one project1-shaped project
// deployed with the model lifecycle and a durable store walks forward day
// by day past its history, steering every query and executing the choice,
// so feedback is journaled and drift triggers retrain, promotion and
// checkpoints.
func runFeedback(ctx context.Context, r *runner) error {
	sz := r.opts.size
	if err := os.MkdirAll(r.opts.workDir, 0o755); err != nil {
		return err
	}
	type system struct {
		d   *loam.Deployment
		dir string
	}
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	sys, err := setup(r, func() (system, error) {
		dir, err := os.MkdirTemp(r.opts.workDir, "store-")
		if err != nil {
			return system{}, err
		}
		dirs = append(dirs, dir)
		sim := loam.NewSimulation(systemSeed, loam.DefaultSimulationConfig())
		d, err := buildProject(sim, "project1", sz).Deploy(deployConfig(sz),
			loam.WithLifecycle(loam.DefaultLifecycleConfig()), loam.WithDurableStore(dir))
		return system{d, dir}, err
	})
	if err != nil {
		return err
	}
	d, ps := sys.d, sys.d.ProjectSim

	rng := traffic(r.opts.seed, "feedback-loop")
	first := sz.trainDays + sz.testDays
	days := sz.units(r.opts.seconds)
	stream := make([][]*query.Query, days)
	total := 0
	for i := range stream {
		ps.View(first + i)
		stream[i] = shuffled(rng, ps.Gen.Day(first+i))
		total += len(stream[i])
	}
	r.logf("stream: days %d..%d, %d queries", first, first+days-1, total)

	reg := d.Telemetry()
	hits0, miss0, ev0 := count(reg, "predictor.cache.hits"), count(reg, "predictor.cache.misses"), count(reg, "predictor.cache.evictions")
	retr0, prom0 := count(reg, "lifecycle.retrain.runs"), count(reg, "lifecycle.promote")
	app0, ckpt0 := count(reg, "durable.journal.appends"), count(reg, "durable.checkpoints")
	var execNS, retrainNS time.Duration
	execCalls, retrainCalls, executions := 0, 0, 0
	_, gc0 := runtimeCounts()
	qi := 0
	for _, dayQs := range stream {
		for _, q := range dayQs {
			c, toPlan, err := r.optimize(ctx, d, q, qi)
			if err != nil {
				r.served(toPlan, toPlan)
				r.failedQuery(err)
				qi++
				continue
			}
			// The checks run between steering and execution: the execution
			// moves cluster load, which the estimate replay reads.
			r.verify(d, c, qi%scoreEvery == 0)
			runs := count(reg, "lifecycle.retrain.runs")
			var span int
			if r.tr != nil {
				span = r.tr.begin("exec", qi, -1)
			}
			start := time.Now()
			d.ExecuteChoice(c)
			el := time.Since(start)
			if r.tr != nil {
				r.tr.end(span)
			}
			executions++
			if count(reg, "lifecycle.retrain.runs") != runs {
				retrainNS += el
				retrainCalls++
			} else {
				execNS += el
				execCalls++
			}
			r.served(toPlan, toPlan+el)
			qi++
		}
	}
	_, gc1 := runtimeCounts()
	r.endPhase()

	// End-of-run checks: every execution journaled, the store consistent,
	// and a restore from it serving the live model's plans.
	appends := count(reg, "durable.journal.appends") - app0
	r.endCheck("journal_appends", appends == int64(executions))
	rep := durable.Fsck(sys.dir)
	r.endCheck("fsck_clean", rep.OK())
	r.checkRestore(ctx, d, sys.dir, stream[len(stream)-1])
	r.logf("lifecycle: executions=%d retrains=%d promotes=%d checkpoints=%d model.version=%d store=%dB",
		executions, count(reg, "lifecycle.retrain.runs")-retr0, count(reg, "lifecycle.promote")-prom0,
		count(reg, "durable.checkpoints")-ckpt0, d.Lifecycle().Version(), dirBytes(sys.dir))

	if r.tr != nil {
		extra := cacheFigures(count(reg, "predictor.cache.hits")-hits0, count(reg, "predictor.cache.misses")-miss0,
			count(reg, "predictor.cache.evictions")-ev0)
		if execCalls > 0 {
			extra["exec.execute_ns_per_query"] = metric{float64(execNS.Nanoseconds()) / float64(execCalls), "ns"}
		}
		if retrainCalls > 0 {
			extra["lifecycle.retrain_ns"] = metric{float64(retrainNS.Nanoseconds()) / float64(retrainCalls), "ns"}
		}
		extra["lifecycle.retrains"] = metric{float64(count(reg, "lifecycle.retrain.runs") - retr0), "count"}
		extra["lifecycle.promotes"] = metric{float64(count(reg, "lifecycle.promote") - prom0), "count"}
		extra["durable.journal_appends"] = metric{float64(appends), "count"}
		extra["durable.checkpoints"] = metric{float64(count(reg, "durable.checkpoints") - ckpt0), "count"}
		extra["durable.store_bytes"] = metric{float64(dirBytes(sys.dir)), "bytes"}
		total, _ := r.tr.times()
		r.layerFigures(extra, total["guard"], total["serve"], gc1-gc0)
		r.writeTrace()
	}
	return nil
}

// checkRestore restores a second deployment from the live one's durable
// store and demands that it serves at the live model version and chooses
// the live plans on a probe set of queries.
func (r *runner) checkRestore(ctx context.Context, live *loam.Deployment, dir string, probe []*query.Query) {
	sz := r.opts.size
	rd, err := live.ProjectSim.RestoreDeployment(dir, sz.trainDays, sz.testDays,
		loam.WithLifecycle(loam.DefaultLifecycleConfig()))
	if err != nil {
		r.logf("restore: %v", err)
		r.endCheck("restore", false)
		return
	}
	r.endCheck("restore_version", rd.Lifecycle().Version() == live.Lifecycle().Version())
	if len(probe) > 16 {
		probe = probe[:16]
	}
	same := true
	for _, q := range probe {
		a, errA := live.OptimizeCtx(ctx, q)
		b, errB := rd.OptimizeCtx(ctx, q)
		if errA != nil || errB != nil || a.Chosen.Root.Fingerprint() != b.Chosen.Root.Fingerprint() {
			same = false
		}
	}
	r.endCheck("restore_plans", same)
}
