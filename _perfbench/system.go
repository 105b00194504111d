package main

import (
	"fmt"
	"math/rand/v2"

	"loam"
	"loam/internal/encoding"
	"loam/internal/experiments"
	"loam/internal/query"
)

// systemSeed seeds every simulated system. The deployed system — catalogs,
// history, trained models — is the same in every run; --seed draws only the
// traffic sent to it, so run-to-run differences in the figures come from
// the traffic and the machine, not from a different system.
const systemSeed = 20210707

// size fixes how big one workload's system and query stream are.
type size struct {
	// workloadScale multiplies the Table-1 template counts and daily query
	// volumes (experiments.Config.WorkloadScale).
	workloadScale float64
	// trainDays and testDays split each project's history; the history run
	// at set-up covers both.
	trainDays, testDays int
	// epochs, maxTrain and domainPlans size training.
	epochs, maxTrain, domainPlans int
	// setupReps is how many times set-up is timed; setup_s is the median.
	setupReps int
	// unitsPerSecond converts --seconds into the stream length, in the
	// workload's unit: rounds of the test window (recurring-steer) or
	// simulated days (fleet-fresh, feedback-loop). The stream is a fixed
	// amount of work, so every count repeats exactly across runs of a seed.
	unitsPerSecond float64
	// probeEvery runs the traced mode's planner probes on every n-th query.
	probeEvery int
}

// units is the stream length for a run of the given seconds.
func (s size) units(seconds int) int {
	n := int(float64(seconds)*s.unitsPerSecond + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// projectConfig returns the Table-1 evaluation project called name, at the
// size's workload scale.
func projectConfig(name string, sz size) loam.ProjectConfig {
	cfg := experiments.Default()
	cfg.WorkloadScale = sz.workloadScale
	for _, sp := range cfg.EvalProjectSpecs() {
		if sp.Name == name {
			return loam.ProjectConfig{
				Name:        sp.Name,
				Archetype:   sp.Archetype,
				Workload:    sp.Workload,
				StatsPolicy: sp.Stats,
			}
		}
	}
	panic(fmt.Sprintf("no Table-1 project %q", name))
}

// deployConfig is the reduced training configuration every workload deploys
// with: the experiments' default model, trained for fewer epochs on a capped
// sample, so set-up stays a few seconds per project.
func deployConfig(sz size) loam.DeployConfig {
	dc := loam.DefaultDeployConfig()
	dc.TrainDays, dc.TestDays = sz.trainDays, sz.testDays
	dc.MaxTrain = sz.maxTrain
	dc.DomainPlans = sz.domainPlans
	dc.Predictor.Epochs = sz.epochs
	return dc
}

// buildProject adds a Table-1 project to sim and runs its history days.
func buildProject(sim *loam.Simulation, name string, sz size) *loam.ProjectSim {
	ps := sim.AddProject(projectConfig(name, sz))
	ps.RunDays(0, sz.trainDays+sz.testDays)
	return ps
}

// envSource resolves a deployment's inference environment the way
// Deployment.OptimizeCtx does: the strategy applied to the cluster's
// history and current averages, read through one predictor load.
func envSource(d *loam.Deployment) (encoding.EnvSource, encoding.EnvKey) {
	cl := d.ProjectSim.Executor.Cluster
	ce := cl.HistoryAverage().Normalized()
	cb := cl.ClusterAverage().Normalized()
	p := d.Predictor()
	return p.EnvSourceFor(d.Strategy, ce, cb), p.EnvKeyFor(d.Strategy, ce, cb)
}

// traffic is the benchmark's seeded random stream.
func traffic(seed uint64, stream string) *rand.Rand {
	h := fnvOffset
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= fnvPrime
	}
	return rand.New(rand.NewPCG(seed, h))
}

// shuffled returns a seeded permutation of qs.
func shuffled(rng *rand.Rand, qs []*query.Query) []*query.Query {
	out := append([]*query.Query(nil), qs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
