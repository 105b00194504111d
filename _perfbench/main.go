// Command perfbench is LOAM's end-to-end serving benchmark: one process,
// one closed-loop client, one named workload per run. A run builds the
// simulated system (timed as set-up), serves a fixed query stream drawn
// from --seed, checks every answer, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics — as the last line of its output.
//
//	go run . --workload recurring-steer --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and how each is taken.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// fullSize is every workload's system size at full scale; the workloads
// differ only in how fast their stream runs on the reference VM, which
// converts --seconds into the stream length.
func fullSize(unitsPerSecond float64) size {
	return size{workloadScale: 1, trainDays: 8, testDays: 4, epochs: 3, maxTrain: 500, domainPlans: 128,
		setupReps: 3, unitsPerSecond: unitsPerSecond, probeEvery: 4}
}

var sizes = map[string]size{
	"recurring-steer": fullSize(1.6),
	"fleet-fresh":     fullSize(2.1),
	"feedback-loop":   fullSize(3),
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "traffic seed")
	seconds := fs.Int("seconds", 15, "nominal length of the timed phase; sets the stream length")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	workDir := fs.String("workdir", ".bench_build/runs", "directory for the run's scratch files and span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		size:     sizes[*workload],
		workDir:  *workDir,
	}
	res, err := runWorkload(ctx, drive, opts, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs one workload and returns its closing result.
func runWorkload(ctx context.Context, drive func(context.Context, *runner) error, opts options, log io.Writer) (result, error) {
	r := newRunner(opts, log)
	r.logf("perfbench: workload=%s seed=%d seconds=%d trace=%v", opts.workload, opts.seed, opts.seconds, opts.trace)
	start := time.Now()
	if err := drive(ctx, r); err != nil {
		return result{}, err
	}
	res := r.result()
	r.logf("run: %.1fs wall", time.Since(start).Seconds())
	return res, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
