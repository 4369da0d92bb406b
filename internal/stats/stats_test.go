package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) {
		t.Errorf("summary = %+v", s)
	}
	if !almost(s.Median, 3) {
		t.Errorf("median = %g", s.Median)
	}
	// Sample std of 1..5 is sqrt(2.5).
	if !almost(s.Std, math.Sqrt(2.5)) {
		t.Errorf("std = %g", s.Std)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

// TestSummarizeInPlace: the in-place variant matches Summarize bit for
// bit — on a sample whose float sum depends on the order of addition —
// only reorders its argument, allocates nothing, and leaves Summarize's
// input untouched.
func TestSummarizeInPlace(t *testing.T) {
	orig := []float64{1e16, 3, -1e16, 0.1, 7, 1, 0.2, 1e-3}
	xs := append([]float64(nil), orig...)
	want := Summarize(orig)
	if got := SummarizeInPlace(xs); got != want {
		t.Errorf("SummarizeInPlace = %+v, want %+v", got, want)
	}
	sum := 0.0
	for _, x := range orig {
		sum += x
	}
	if mean := sum / float64(len(orig)); want.Mean != mean {
		t.Errorf("Mean = %v, want %v (accumulated in input order)", want.Mean, mean)
	}
	got, sorted := slices.Clone(xs), slices.Clone(orig)
	slices.Sort(got)
	slices.Sort(sorted)
	if !slices.Equal(got, sorted) {
		t.Errorf("SummarizeInPlace changed its sample: %v, want a reordering of %v", xs, orig)
	}
	if orig[0] != 1e16 || orig[2] != -1e16 {
		t.Errorf("Summarize mutated its input: %v", orig)
	}
	if n := testing.AllocsPerRun(10, func() { SummarizeInPlace(xs) }); n != 0 {
		t.Errorf("SummarizeInPlace allocates %v times, want 0", n)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || !almost(s.Mean, 7) || s.Std != 0 || !almost(s.Median, 7) {
		t.Errorf("single summary = %+v", s)
	}
	if s.CI95() != 0 {
		t.Error("CI95 of single sample should be 0")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40},
		{1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almost(got, c.want) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

// TestQuantilePanicsUnsorted pins the enforced caller contract: an
// unsorted sample used to return silently-wrong quantiles; now it
// panics so the bug class cannot recur.
func TestQuantilePanicsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile accepted an unsorted sample")
		}
	}()
	Quantile([]float64{10, 30, 20, 40}, 0.5)
}

func TestQuantileUnsorted(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	if got := QuantileUnsorted(xs, 0.5); !almost(got, 25) {
		t.Errorf("QuantileUnsorted(0.5) = %g, want 25", got)
	}
	// The input must not be mutated (callers keep arrival order).
	if xs[0] != 40 || xs[1] != 10 || xs[2] != 30 || xs[3] != 20 {
		t.Errorf("QuantileUnsorted mutated its input: %v", xs)
	}
	// Ties and equal runs are legal sorted input, not a contract breach.
	if got := Quantile([]float64{5, 5, 5}, 0.9); got != 5 {
		t.Errorf("Quantile of constant sample = %g", got)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f := FitLinear(xs, ys)
	if !almost(f.Slope, 2) || !almost(f.Intercept, 3) || !almost(f.R2, 1) {
		t.Errorf("fit = %+v", f)
	}
	if !strings.Contains(f.String(), "R²") {
		t.Errorf("String = %q", f.String())
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	// Vertical scatter: all x equal.
	f := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || !almost(f.Intercept, 2) {
		t.Errorf("degenerate fit = %+v", f)
	}
	// Horizontal: all y equal.
	f2 := FitLinear([]float64{1, 2, 3}, []float64{4, 4, 4})
	if !almost(f2.Slope, 0) || !almost(f2.Intercept, 4) || !almost(f2.R2, 1) {
		t.Errorf("horizontal fit = %+v", f2)
	}
}

func TestFitLinearPanics(t *testing.T) {
	for _, c := range []struct{ xs, ys []float64 }{
		{[]float64{1}, []float64{1, 2}},
		{[]float64{1}, []float64{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", c)
				}
			}()
			FitLinear(c.xs, c.ys)
		}()
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 5, 5}, 5)
	if h.Total != 8 {
		t.Errorf("total = %d", h.Total)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 8 {
		t.Errorf("counts sum = %d", sum)
	}
	// Max value lands in the last bin.
	if h.Counts[4] < 3 {
		t.Errorf("last bin = %d, want >= 3", h.Counts[4])
	}
	if !strings.Contains(h.String(), "#") {
		t.Error("String has no bars")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram(nil, 3)
	if h.Total != 0 {
		t.Errorf("empty total = %d", h.Total)
	}
	// Constant sample.
	hc := NewHistogram([]float64{2, 2, 2}, 4)
	if hc.Total != 3 || hc.Counts[0] != 3 {
		t.Errorf("constant histogram = %+v", hc)
	}
	// bins < 1 clamps to 1.
	h1 := NewHistogram([]float64{1, 2}, 0)
	if len(h1.Counts) != 1 {
		t.Errorf("bins = %d", len(h1.Counts))
	}
	if h1.Bar(0, 10) == "" {
		t.Error("Bar empty for populated bin")
	}
}

func TestMeanAndHelpers(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if MaxInt([]int{3, 9, 2}) != 9 {
		t.Error("MaxInt wrong")
	}
	if MaxInt(nil) != 0 {
		t.Error("MaxInt(nil) != 0")
	}
	fs := Floats([]int{1, 2})
	if len(fs) != 2 || fs[1] != 2 {
		t.Error("Floats wrong")
	}
}

// Property: for any sample, Min <= Median <= Max and Mean within
// [Min, Max]; quantiles are monotone in q.
func TestSummaryPropertyQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		if s.Min > s.Median || s.Median > s.Max {
			return false
		}
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return s.Median <= s.P90+1e-9 && s.P90 <= s.P99+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FitLinear recovers any exact line.
func TestFitLinearPropertyQuick(t *testing.T) {
	f := func(a, b int8, n uint8) bool {
		m := int(n%20) + 2
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := 0; i < m; i++ {
			xs[i] = float64(i)
			ys[i] = float64(a)*xs[i] + float64(b)
		}
		fit := FitLinear(xs, ys)
		return math.Abs(fit.Slope-float64(a)) < 1e-6 && math.Abs(fit.Intercept-float64(b)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
