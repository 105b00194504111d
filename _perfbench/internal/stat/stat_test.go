package stat

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := Quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("one value has no quartiles")
	}
}

func TestSpread(t *testing.T) {
	got := Spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := Percentile(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := Percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must not be reportable")
	}
	if _, ok := Percentile(xs, 0.99); ok {
		t.Error("p99 of 100 samples must not be reportable")
	}
	if v, ok := Percentile(xs[:3], 0.5); !ok || v != 2 {
		t.Errorf("median of 3 = %v, %v; want 2, true", v, ok)
	}
	if _, ok := Percentile(nil, 0.5); ok {
		t.Error("empty sample has no percentile")
	}
}
