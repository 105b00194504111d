// Command compare reads sets of benchmark runs, as written by sets.sh, and
// prints for every workload and metric the medians, quartiles and spread.
//
// With one file it checks steadiness: each end-to-end metric's spread (the
// interquartile distance over the median) against its bound, and the share
// of failed operations.
//
// With two files, a parent's runs and a change's, it pairs runs of the same
// workload and seed and gives each metric a verdict. A metric is better
// (or worse) when the change wins (or loses) at least nine tenths of the
// pairs and the medians differ by more than the parent's interquartile
// distance; it is also worse when its median is worse than the parent's by
// more than the bound. A metric whose spread on either side is wider than
// its bound is unresolved, as is everything in between.
//
//	go run ./compare -bench ../BENCHMARK.json PARENT.jsonl [CHANGE.jsonl]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"loam/perfbench/internal/stat"
)

// spec is the part of BENCHMARK.json the tool reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one line of a sets file.
type run struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition with the metrics and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: compare [-bench BENCHMARK.json] PARENT.jsonl [CHANGE.jsonl]")
		return 2
	}
	var sp spec
	if err := readJSON(*benchPath, &sp); err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	sets := make([][]run, fs.NArg())
	for i, path := range fs.Args() {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 1
		}
		sets[i] = runs
	}
	if len(sets) == 1 {
		if !steadiness(stdout, sp, sets[0]) {
			return 1
		}
		return 0
	}
	compareSets(stdout, sp, sets[0], sets[1])
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// workloadsOf lists the workloads present in runs, sorted.
func workloadsOf(runs ...[]run) []string {
	seen := map[string]bool{}
	for _, rs := range runs {
		for _, r := range rs {
			seen[r.Workload] = true
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// values returns, for one workload and metric, each run's value keyed by
// seed.
func values(runs []run, workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out[r.Seed] = m.Value
		}
	}
	return out
}

func list(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func metricsOf(sp spec) []metricSpec {
	return append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...)
}

// steadiness prints each metric's spread in one set and reports whether
// every end-to-end spread is within its bound.
func steadiness(w io.Writer, sp spec, runs []run) bool {
	ok := true
	for _, wl := range workloadsOf(runs) {
		attempted, failed := 0, 0
		for _, r := range runs {
			if r.Workload == wl {
				attempted += r.Result.Attempted
				failed += r.Result.Failed
				if !r.Result.Correct {
					ok = false
					fmt.Fprintf(w, "%s seed %d: correct=false\n", wl, r.Seed)
				}
			}
		}
		fmt.Fprintf(w, "%s: failed %d of %d operations\n", wl, failed, attempted)
		for _, m := range metricsOf(sp) {
			xs := list(values(runs, wl, m.Name))
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := stat.Quartiles(xs)
			spread := stat.Spread(xs)
			note := ""
			if m.Bound > 0 {
				switch {
				case spread > m.Bound:
					note = "  SPREAD ABOVE BOUND"
					ok = false
				case spread > m.Bound/3:
					note = "  spread above a third of the bound"
				}
				note = fmt.Sprintf("  bound %.3f%s", m.Bound, note)
			}
			fmt.Fprintf(w, "  %-32s n=%2d median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.4f%s\n",
				m.Name, len(xs), med, q1, q3, spread, note)
		}
	}
	return ok
}

// verdict is the comparison of one metric between a parent and a change.
type verdict struct {
	parentMed, changeMed float64
	wins, losses, pairs  int
	result               string
}

// judge compares one metric's runs, paired by seed.
func judge(m metricSpec, parent, change map[uint64]float64) verdict {
	v := verdict{parentMed: stat.Median(list(parent)), changeMed: stat.Median(list(change))}
	for seed, p := range parent {
		c, ok := change[seed]
		if !ok {
			continue
		}
		v.pairs++
		switch {
		case better(m, c, p):
			v.wins++
		case better(m, p, c):
			v.losses++
		}
	}
	q1, _, q3 := stat.Quartiles(list(parent))
	iqr := math.Abs(q3 - q1)
	gap := math.Abs(v.changeMed - v.parentMed)
	need := int(math.Ceil(0.9 * float64(v.pairs)))
	worseShare := 0.0
	if v.parentMed != 0 {
		worseShare = (v.changeMed - v.parentMed) / math.Abs(v.parentMed)
		if m.Better == "higher" {
			worseShare = -worseShare
		}
	}
	switch {
	case v.pairs == 0:
		v.result = "unresolved"
	case m.Bound > 0 && (stat.Spread(list(parent)) > m.Bound || stat.Spread(list(change)) > m.Bound):
		v.result = "unresolved"
	case v.wins >= need && gap > iqr:
		v.result = "better"
	case v.losses >= need && gap > iqr:
		v.result = "worse"
	case m.Bound > 0 && worseShare > m.Bound:
		v.result = "worse"
	default:
		v.result = "unresolved"
	}
	return v
}

// better reports whether a is better than b for metric m.
func better(m metricSpec, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

func compareSets(w io.Writer, sp spec, parent, change []run) {
	for _, wl := range workloadsOf(parent, change) {
		fmt.Fprintf(w, "%s:\n", wl)
		for _, m := range metricsOf(sp) {
			p, c := values(parent, wl, m.Name), values(change, wl, m.Name)
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			v := judge(m, p, c)
			pq1, _, pq3 := stat.Quartiles(list(p))
			cq1, _, cq3 := stat.Quartiles(list(c))
			fmt.Fprintf(w, "  %-32s parent %-11.6g [%.6g, %.6g]  change %-11.6g [%.6g, %.6g]  wins %d/%d losses %d  %s\n",
				m.Name, v.parentMed, pq1, pq3, v.changeMed, cq1, cq3, v.wins, v.pairs, v.losses, v.result)
		}
	}
}
