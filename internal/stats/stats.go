// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics, histograms, and least-squares fits
// used to check scaling shapes (e.g. routing time linear in C+L).
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
	P90, P99  float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample. xs is not modified.
func Summarize(xs []float64) Summary {
	return SummarizeInPlace(append([]float64(nil), xs...))
}

// SummarizeInPlace is Summarize without the private copy: it may
// reorder xs, so callers that own a scratch sample avoid the
// allocation. The moments are accumulated in xs's original order, before
// any reordering, and Median/P90/P99 are read by in-place selection at
// the ranks Quantile interpolates between, with Quantile's formula, so
// the result is bit-identical to Quantile over the sorted sample. It
// runs in O(n) expected time and allocates nothing.
//
// Special values: Min and Max skip NaNs (they stay ±Inf when every
// sample is NaN), and Mean and Std are NaN when any sample is NaN. The
// order statistics rank by NaN < −Inf < negatives < −0 < +0 <
// positives < +Inf: a NaN sample sorts first, as slices.Sort orders it,
// and a zero rank is −0 exactly when it falls among the −0 samples.
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	// A NaN sample makes the sum NaN (so does +Inf + −Inf, which the
	// partition then finds NaN-free): only then move the NaNs to the
	// front, where their rank puts them, and select among the rest.
	sel := orderStats{xs: xs}
	if math.IsNaN(sum) {
		for i, x := range xs {
			if x != x {
				xs[i], xs[sel.placed] = xs[sel.placed], x
				sel.placed++
			}
		}
	}
	s.Median = sel.quantile(0.5)
	s.P90 = sel.quantile(0.9)
	s.P99 = sel.quantile(0.99)
	return s
}

// orderStats reads quantiles of xs at nondecreasing q by selection:
// xs[:placed] holds the placed smallest values, and every rank below
// placed that a quantile reads was selected into its slot, so the next
// rank is selected from xs[placed:] alone.
type orderStats struct {
	xs     []float64
	placed int
}

// quantile returns Quantile of the sorted sample at q. Calls must come
// in nondecreasing q.
func (o *orderStats) quantile(q float64) float64 {
	lo, hi, frac := quantilePos(len(o.xs), q)
	if lo == hi {
		return o.rank(lo)
	}
	return interpolate(o.rank(lo), o.rank(hi), frac)
}

// rank returns the value of rank k (0-based, ascending), selecting it
// into xs[k] when it is not placed yet.
func (o *orderStats) rank(k int) float64 {
	if k >= o.placed {
		selectRank(o.xs[o.placed:], k-o.placed)
		o.placed = k + 1
	}
	return o.xs[k]
}

// orderKey maps a non-NaN float to an int64 that orders as the float
// does, with −0 below +0: the sign-magnitude bits with the magnitude of
// negatives flipped.
func orderKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	return b ^ int64(uint64(b>>63)>>1)
}

// selectRank reorders the NaN-free xs so that xs[k] holds the value of
// rank k, with no larger value before it and no smaller one after it.
// It is quickselect with a median-of-three pivot, comparing orderKeys:
// integer compares the partition loops turn into conditional moves, so
// their cost does not hinge on predicting the data. Each round splits
// the window into keys below, equal to and above the pivot — the equal
// pass only when k lies past the lower part — so runs of equal samples
// end the search at once. A search that keeps landing on bad pivots
// finishes with a sort of what is left, which bounds the worst case by
// O(n log n).
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)
	if k == 0 {
		// The common rank right after a placed one: a min scan.
		m, mk := 0, orderKey(xs[0])
		for i := 1; i < hi; i++ {
			if ki := orderKey(xs[i]); ki < mk {
				m, mk = i, ki
			}
		}
		xs[0], xs[m] = xs[m], xs[0]
		return
	}
	for budget := 2 * bits.Len(uint(hi)); hi-lo > 16; budget-- {
		if budget == 0 {
			slices.SortFunc(xs[lo:hi], func(a, b float64) int {
				return cmp.Compare(orderKey(a), orderKey(b))
			})
			return
		}
		a, b, c := orderKey(xs[lo]), orderKey(xs[lo+(hi-lo)/2]), orderKey(xs[hi-1])
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = max(a, c)
		}
		pivot := b
		// Branch-free Lomuto passes: xs[lo:lt] < pivot, then
		// xs[lt:eq] == pivot.
		lt := lo
		for i := lo; i < hi; i++ {
			x := xs[i]
			xs[i], xs[lt] = xs[lt], x
			d := 0
			if orderKey(x) < pivot {
				d = 1
			}
			lt += d
		}
		if k < lt {
			hi = lt
			continue
		}
		eq := lt
		for i := lt; i < hi; i++ {
			x := xs[i]
			xs[i], xs[eq] = xs[eq], x
			d := 0
			if orderKey(x) == pivot {
				d = 1
			}
			eq += d
		}
		if k < eq {
			return
		}
		lo = eq
	}
	// Insertion sort of the short window left.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && orderKey(xs[j]) < orderKey(xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// quantilePos returns the ranks Quantile interpolates between for q over
// n sorted samples, and the weight of the upper one.
func quantilePos(n int, q float64) (lo, hi int, frac float64) {
	if q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// interpolate is Quantile's linear interpolation between neighbouring
// order statistics.
func interpolate(lo, hi, frac float64) float64 {
	return lo*(1-frac) + hi*frac
}

// Quantile returns the q-quantile (0<=q<=1) of a sorted sample using
// linear interpolation. It panics if the sample is empty or not in
// ascending order: an unsorted sample silently returns garbage
// quantiles, which poisoned downstream regression gates before this
// contract was enforced. Callers with raw samples use QuantileUnsorted.
// The order check is a single O(n) pass — noise next to the sort every
// caller already paid for.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			panic(fmt.Sprintf("stats: Quantile of unsorted sample (xs[%d]=%g < xs[%d]=%g)",
				i, sorted[i], i-1, sorted[i-1]))
		}
	}
	lo, hi, frac := quantilePos(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return interpolate(sorted[lo], sorted[hi], frac)
}

// QuantileUnsorted returns the q-quantile of a raw sample: it sorts a
// private copy (the input is never mutated) and delegates to Quantile.
// Use this at call sites that hold samples in arrival order; use
// Quantile directly when the slice is already sorted and the copy would
// be waste.
func QuantileUnsorted(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Quantile(sorted, q)
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f±%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.P90, s.P99, s.Max)
}

// CI95 returns the half-width of the 95% normal-approximation
// confidence interval for the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// LinearFit is the least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLinear computes the least-squares fit of ys against xs. It panics
// if the slices differ in length or hold fewer than two points.
func FitLinear(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLinear length mismatch")
	}
	if len(xs) < 2 {
		panic("stats: FitLinear needs at least two points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Slope: 0, Intercept: my, R2: 0}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // all ys equal and perfectly predicted by slope 0
	}
	return fit
}

// String renders the fit.
func (f LinearFit) String() string {
	return fmt.Sprintf("y = %.3f*x + %.3f (R²=%.3f)", f.Slope, f.Intercept, f.R2)
}

// Histogram is a fixed-bin-width histogram.
type Histogram struct {
	Min, Width float64
	Counts     []int
	Total      int
}

// NewHistogram builds a histogram of xs with the given number of bins
// spanning [min(xs), max(xs)]. An empty sample yields an empty
// histogram.
func NewHistogram(xs []float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	h := &Histogram{Counts: make([]int, bins)}
	if len(xs) == 0 {
		h.Width = 1
		return h
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	h.Min = lo
	h.Width = (hi - lo) / float64(bins)
	if h.Width == 0 {
		h.Width = 1
	}
	for _, x := range xs {
		b := int((x - lo) / h.Width)
		if b >= bins {
			b = bins - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

// Bar renders bin i as a bar of at most width characters, scaled to the
// largest bin.
func (h *Histogram) Bar(i, width int) string {
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	n := h.Counts[i] * width / max
	out := make([]byte, n)
	for j := range out {
		out[j] = '#'
	}
	return string(out)
}

// String renders the histogram, one bin per line.
func (h *Histogram) String() string {
	out := ""
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*h.Width
		out += fmt.Sprintf("[%8.2f, %8.2f) %6d %s\n", lo, lo+h.Width, c, h.Bar(i, 40))
	}
	return out
}

// Mean is a convenience for the mean of xs (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MaxInt returns the maximum of an int slice (0 for empty).
func MaxInt(xs []int) int {
	m := 0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Floats converts ints to float64s.
func Floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
