package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seeds(vals ...float64) map[uint64]float64 {
	m := map[uint64]float64{}
	for i, v := range vals {
		m[uint64(i+1)] = v
	}
	return m
}

func TestJudgeVerdicts(t *testing.T) {
	qps := metricSpec{Name: "throughput_qps", Better: "higher", Bound: 0.1}
	lat := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	parent := seeds(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name   string
		m      metricSpec
		parent map[uint64]float64
		change map[uint64]float64
		want   string
	}{
		{"clear gain", qps, parent, seeds(106, 107, 105, 106, 108, 104, 106, 107, 105, 106), "better"},
		{"clear loss", qps, parent, seeds(94, 95, 93, 94, 96, 92, 94, 95, 93, 94), "worse"},
		{"lower is better", lat, parent, seeds(94, 95, 93, 94, 96, 92, 94, 95, 93, 94), "better"},
		// Eight of ten pairs is not enough for a win.
		{"too few wins", qps, parent, seeds(106, 107, 105, 106, 108, 104, 106, 107, 90, 90), "unresolved"},
		// Every pair won, but the gap is inside the parent's own spread.
		{"gap inside spread", qps, parent, seeds(100.5, 101.5, 99.5, 100.5, 102.5, 98.5, 100.5, 101.5, 99.5, 100.5), "unresolved"},
		{"spread above bound", qps, seeds(100, 150, 60, 100, 140, 70, 100, 130, 80, 100), parent, "unresolved"},
		// Mixed pairs, but the median fell by more than the bound.
		{"median beyond bound", qps, parent, seeds(85, 86, 84, 85, 103, 84, 85, 86, 85, 103), "worse"},
		{"no pairs", qps, parent, map[uint64]float64{}, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.m, c.parent, c.change).result; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSteadinessFlagsWideSpread(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"throughput_qps","unit":"1/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, qps, setup []float64) string {
		var b strings.Builder
		for i := range qps {
			fmt.Fprintf(&b, `{"workload":"w","seed":%d,"trace":0,"result":{"correct":true,"attempted":10,"failed":0,`+
				`"metrics":{"throughput_qps":{"value":%g},"setup_s":{"value":%g}}}}`+"\n", i+1, qps[i], setup[i])
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steadyQPS, wideQPS := []float64{100, 101, 99, 100, 100}, []float64{100, 150, 60, 100, 140}
	steadySetup, wideSetup := []float64{1.5, 1.52, 1.49, 1.5, 1.51}, []float64{1, 2, 3, 4, 5}
	steady := write("steady.jsonl", steadyQPS, steadySetup)
	wide := write("wide.jsonl", wideQPS, steadySetup)
	wideSetupSet := write("wide-setup.jsonl", steadyQPS, wideSetup)
	var out, errw bytes.Buffer
	if code := mainErr([]string{"-bench", bench, steady}, &out, &errw); code != 0 {
		t.Fatalf("steady set: exit %d\n%s%s", code, out.String(), errw.String())
	}
	out.Reset()
	if code := mainErr([]string{"-bench", bench, wide}, &out, &errw); code != 1 || !strings.Contains(out.String(), "SPREAD ABOVE BOUND") {
		t.Fatalf("wide set: exit %d, want 1 with the spread flagged\n%s", code, out.String())
	}
	out.Reset()
	if code := mainErr([]string{"-bench", bench, wideSetupSet}, &out, &errw); code != 1 || !strings.Contains(out.String(), "SPREAD ABOVE BOUND") {
		t.Fatalf("wide setup_s set: exit %d, want 1 with the spread flagged\n%s", code, out.String())
	}
	out.Reset()
	if code := mainErr([]string{"-bench", bench, steady, wide}, &out, &errw); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("compare: exit %d\n%s", code, out.String())
	}
}
