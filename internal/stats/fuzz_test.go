package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// totalCompare orders floats as SummarizeInPlace ranks them: NaN first,
// then ascending, with −0 before +0.
func totalCompare(a, b float64) int {
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	switch sa, sb := math.Signbit(a), math.Signbit(b); {
	case sa && !sb:
		return -1
	case !sa && sb:
		return 1
	}
	return 0
}

// summarizeBySort is the sort-based reference: the moments accumulated
// in input order, the quantiles read by Quantile off a sorted copy.
func summarizeBySort(xs []float64) Summary {
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
	sorted := slices.Clone(xs)
	slices.SortStableFunc(sorted, totalCompare)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// sameBits reports whether two floats are the same value bit for bit,
// any NaN matching any NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkSummary(t *testing.T, xs []float64) {
	t.Helper()
	want := summarizeBySort(xs)
	work := slices.Clone(xs)
	got := SummarizeInPlace(work)
	fields := []struct {
		name      string
		got, want float64
	}{
		{"Mean", got.Mean, want.Mean}, {"Std", got.Std, want.Std},
		{"Min", got.Min, want.Min}, {"Max", got.Max, want.Max},
		{"Median", got.Median, want.Median}, {"P90", got.P90, want.P90}, {"P99", got.P99, want.P99},
	}
	if got.N != want.N {
		t.Errorf("N = %d, want %d", got.N, want.N)
	}
	for _, f := range fields {
		if !sameBits(f.got, f.want) {
			t.Errorf("n=%d: %s = %v (%#x), want %v (%#x)", len(xs), f.name,
				f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	// Reordered, never rewritten: the same multiset of bit patterns.
	a, b := slices.Clone(xs), work
	slices.SortFunc(a, func(x, y float64) int { return cmpBits(x, y) })
	slices.SortFunc(b, func(x, y float64) int { return cmpBits(x, y) })
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("SummarizeInPlace changed the sample's values")
		}
	}
}

func cmpBits(x, y float64) int {
	bx, by := math.Float64bits(x), math.Float64bits(y)
	switch {
	case bx < by:
		return -1
	case bx > by:
		return 1
	}
	return 0
}

// fuzzSample decodes a fuzz input. An even first byte reads small
// integers and halves from the following bytes — many ties, negatives
// and ±0 — and an odd one reads raw 8-byte floats, which reach NaN
// payloads, ±Inf and subnormals.
func fuzzSample(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	var xs []float64
	if mode%2 == 0 {
		for _, b := range data {
			x := float64(int8(b)%8) / 2
			if b == 0x80 {
				x = math.Copysign(0, -1)
			}
			xs = append(xs, x)
		}
		return xs
	}
	for len(data) >= 8 {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return xs
}

func floatBytes(xs ...float64) []byte {
	out := []byte{1}
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// FuzzSummarize checks SummarizeInPlace against the sort-based
// reference bit for bit, and that it only reorders its argument.
func FuzzSummarize(f *testing.F) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	for _, xs := range [][]float64{
		{7},
		{2, 1},
		{negZero},
		{0, negZero},
		{negZero, 0, negZero, 0},
		{3, 3, 3, 3, 3},
		{0.1, 0.2, 0.3, 1e-3, 1e16, -1e16},
		{nan},
		{nan, 1, 2, nan, -1},
		{inf, -inf, 1},
		{-inf, -inf, inf},
		{-5, -2.5, negZero, 0, 2.5},
		{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0},
	} {
		f.Add(floatBytes(xs...))
	}
	// Samples long enough for selection to partition, with heavy ties.
	ties := []byte{0}
	for i := 0; i < 1024; i++ {
		ties = append(ties, byte(i*37%11))
	}
	f.Add(ties)
	wide := []byte{1}
	for i := 0; i < 300; i++ {
		wide = binary.LittleEndian.AppendUint64(wide, math.Float64bits(float64((i*7919)%1009)-500.5))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSummary(t, fuzzSample(data))
	})
}

// TestSummarizeMatchesSortOnRunShapes runs the reference check on the
// shapes core.Runner summarizes: 1,024 step counts drawn from a few
// hundred distinct values, in ascending, descending and shuffled order.
func TestSummarizeMatchesSortOnRunShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 100, 1024, 4099} {
		asc := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i * 300 / n * 480)
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		shuf := slices.Clone(asc)
		for i := range shuf {
			j := (i*7919 + 13) % n
			shuf[i], shuf[j] = shuf[j], shuf[i]
		}
		for _, xs := range [][]float64{asc, desc, shuf} {
			checkSummary(t, xs)
		}
	}
}
