package stats

import (
	"math"
	"sort"
	"testing"
)

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*math.Max(scale, 1)
}

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2.5, 6, 5.25, 3.5}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.N() != len(xs) {
		t.Fatalf("N = %d, want %d", o.N(), len(xs))
	}
	// A serial feed accumulates the sum in the same order as the batch
	// helpers, so mean and sum are bit-identical.
	if o.Sum() != Sum(xs) {
		t.Errorf("Sum = %v, want %v", o.Sum(), Sum(xs))
	}
	if o.Mean() != Mean(xs) {
		t.Errorf("Mean = %v, want %v", o.Mean(), Mean(xs))
	}
	if o.Min() != Min(xs) || o.Max() != Max(xs) {
		t.Errorf("Min/Max = %v/%v, want %v/%v", o.Min(), o.Max(), Min(xs), Max(xs))
	}
	if !relClose(o.Variance(), Variance(xs), 1e-12) {
		t.Errorf("Variance = %v, want %v", o.Variance(), Variance(xs))
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 {
		t.Errorf("empty Online: mean=%v var=%v, want 0/0", o.Mean(), o.Variance())
	}
	if !math.IsInf(o.Min(), 1) || !math.IsInf(o.Max(), -1) {
		t.Errorf("empty Online: min=%v max=%v, want +Inf/-Inf", o.Min(), o.Max())
	}
}

func TestOnlineMergeMatchesSerial(t *testing.T) {
	xs := []float64{10, 20, 0.5, 7, 13, 42, 8, 8, 8, 1e6, 3}
	var serial Online
	for _, x := range xs {
		serial.Add(x)
	}
	var a, b Online
	for _, x := range xs[:4] {
		a.Add(x)
	}
	for _, x := range xs[4:] {
		b.Add(x)
	}
	a.Merge(&b)
	if a.N() != serial.N() || a.Sum() != serial.Sum() {
		t.Fatalf("merged N/Sum = %d/%v, want %d/%v", a.N(), a.Sum(), serial.N(), serial.Sum())
	}
	if !relClose(a.Variance(), serial.Variance(), 1e-9) {
		t.Errorf("merged Variance = %v, serial %v", a.Variance(), serial.Variance())
	}
	if a.Min() != serial.Min() || a.Max() != serial.Max() {
		t.Errorf("merged Min/Max = %v/%v, serial %v/%v", a.Min(), a.Max(), serial.Min(), serial.Max())
	}

	// Merging into an empty accumulator copies, merging an empty one is
	// a no-op.
	var empty Online
	empty.Merge(&serial)
	if empty.N() != serial.N() || empty.Mean() != serial.Mean() {
		t.Error("merge into empty accumulator did not copy")
	}
	n := serial.N()
	serial.Merge(&Online{})
	if serial.N() != n {
		t.Error("merging an empty accumulator changed N")
	}
}

func TestSketchQuantileWithinRelativeError(t *testing.T) {
	// A skewed sample spanning several orders of magnitude.
	var xs []float64
	for i := 1; i <= 2000; i++ {
		xs = append(xs, float64(i)*float64(i)/100)
	}
	s := NewSketch(DefaultSketchAccuracy)
	for _, x := range xs {
		s.Add(x)
	}
	// The sketch's guarantee is relative to the nearest-rank sample value
	// (not the interpolated percentile), so compare against that.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := s.Quantile(q)
		rank := int(math.Ceil(q * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		want := sorted[rank-1]
		if !relClose(got, want, 3*DefaultSketchAccuracy) {
			t.Errorf("Quantile(%g) = %g, exact %g (outside relative error)", q, got, want)
		}
	}
}

func TestSketchZeroAndEmpty(t *testing.T) {
	s := NewSketch(DefaultSketchAccuracy)
	if s.Quantile(0.5) != 0 {
		t.Error("empty sketch quantile should be 0")
	}
	s.Add(0)
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("median of {0,0,10} = %g, want 0", got)
	}
	if got := s.Quantile(1); !relClose(got, 10, 3*DefaultSketchAccuracy) {
		t.Errorf("max quantile = %g, want ~10", got)
	}
	if s.N() != 3 {
		t.Errorf("N = %d, want 3", s.N())
	}
}

func TestSketchMergeMatchesSerial(t *testing.T) {
	a := NewSketch(DefaultSketchAccuracy)
	b := NewSketch(DefaultSketchAccuracy)
	serial := NewSketch(DefaultSketchAccuracy)
	for i := 1; i <= 100; i++ {
		x := float64(i)
		serial.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != serial.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), serial.N())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if a.Quantile(q) != serial.Quantile(q) {
			t.Errorf("Quantile(%g): merged %g != serial %g", q, a.Quantile(q), serial.Quantile(q))
		}
	}
}

func TestStreamSummaryApproximatesBatch(t *testing.T) {
	var xs []float64
	for i := 0; i < 500; i++ {
		xs = append(xs, math.Sqrt(float64(i))*7+0.5)
	}
	st := NewStream()
	for _, x := range xs {
		st.Add(x)
	}
	got := st.Summary()
	want := Summarize(xs)
	if got.N != want.N || got.Mean != want.Mean || got.Min != want.Min || got.Max != want.Max {
		t.Errorf("exact fields differ: got %+v, want %+v", got, want)
	}
	for _, pair := range [][2]float64{{got.P25, want.P25}, {got.Median, want.Median}, {got.P75, want.P75}, {got.P90, want.P90}} {
		if !relClose(pair[0], pair[1], 3*DefaultSketchAccuracy) {
			t.Errorf("quantile %g outside error bound of exact %g", pair[0], pair[1])
		}
	}
}

// TestStreamSummaryQuantilesWithinRange pins that a clamped summary never
// reports a sketch quantile outside the observed [Min, Max]: a sample of
// identical values must summarize to that value everywhere.
func TestStreamSummaryQuantilesWithinRange(t *testing.T) {
	for _, xs := range [][]float64{
		{2, 2, 2, 2},
		{2, 2, 2, 3},
		{7.3},
		{1, 46, 46, 46, 46},
	} {
		st := NewStream()
		for _, x := range xs {
			st.Add(x)
		}
		got := st.Summary().Clamped()
		for _, q := range []float64{got.P25, got.Median, got.P75, got.P90} {
			if q < got.Min || q > got.Max {
				t.Errorf("%v: quantile %v outside [%v, %v] in %+v", xs, q, got.Min, got.Max, got)
			}
		}
	}
	st := NewStream()
	for i := 0; i < 4; i++ {
		st.Add(2)
	}
	if got := st.Summary().Clamped(); got.P25 != 2 || got.Median != 2 || got.P90 != 2 {
		t.Errorf("constant sample of 2s summarizes to %+v", got)
	}
}
