package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file is the streaming counterpart of the batch helpers above:
// one-pass, constant-memory accumulators that replace "collect every
// sample, then Summarize" where per-job records must not be
// materialized (the koalad server, every record-free experiment point). Two pieces
// compose: Online tracks the moments exactly (sum, mean, variance via
// Welford, min, max) and Sketch tracks the distribution approximately
// (log-bucketed histogram with bounded relative error, mergeable).

// Online accumulates count, sum, mean, variance, min and max of a
// sample in one pass and O(1) memory. The zero value is ready to use.
// Mean is defined as Sum/N with Sum accumulated in arrival order, so a
// serial feed reproduces the batch Mean() bit for bit; variance uses
// Welford's recurrence and Chan's pairwise rule under Merge.
type Online struct {
	n    int
	sum  float64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.n++
	o.sum += x
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Merge folds another accumulator into o (Chan et al. pairwise update).
// Merging in a fixed order yields deterministic results.
func (o *Online) Merge(b *Online) {
	if b == nil || b.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *b
		return
	}
	if b.min < o.min {
		o.min = b.min
	}
	if b.max > o.max {
		o.max = b.max
	}
	n1, n2 := float64(o.n), float64(b.n)
	d := b.mean - o.mean
	o.m2 += b.m2 + d*d*n1*n2/(n1+n2)
	o.mean = (n1*o.mean + n2*b.mean) / (n1 + n2)
	o.n += b.n
	o.sum += b.sum
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Sum returns the running sum.
func (o *Online) Sum() float64 { return o.sum }

// Mean returns Sum/N, or 0 for an empty accumulator.
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return 0
	}
	return o.sum / float64(o.n)
}

// Variance returns the population variance, or 0 for fewer than two
// observations (matching the batch Variance).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the minimum, or +Inf for an empty accumulator (matching
// the batch Min).
func (o *Online) Min() float64 {
	if o.n == 0 {
		return math.Inf(1)
	}
	return o.min
}

// Max returns the maximum, or -Inf for an empty accumulator.
func (o *Online) Max() float64 {
	if o.n == 0 {
		return math.Inf(-1)
	}
	return o.max
}

// DefaultSketchAccuracy is the relative error guarantee of sketches
// built by NewSketch: quantile estimates land within 1% of the true
// sample value.
const DefaultSketchAccuracy = 0.01

// Sketch is a mergeable quantile sketch for non-negative samples (all
// of the paper's metrics — times, processor counts — are non-negative).
// Values are assigned to logarithmic buckets i = ceil(log_gamma(x))
// with gamma = (1+alpha)/(1-alpha), which bounds the relative error of
// any quantile estimate by alpha while keeping memory proportional to
// the dynamic range's log, not the sample count (the DDSketch scheme).
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64
	counts  map[int]int64
	zeros   int64 // observations <= MinTrackable collapse into one bucket
	n       int64
}

// minTrackable is the smallest magnitude stored in a log bucket;
// anything below (including 0) lands in the zero bucket.
const minTrackable = 1e-9

// NewSketch returns an empty sketch with the given relative accuracy in
// (0,1); pass DefaultSketchAccuracy for the standard 1%.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stats: sketch accuracy %g outside (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		counts:  make(map[int]int64),
	}
}

// Add folds one observation into the sketch. Negative values are
// clamped to the zero bucket: they cannot occur for the simulator's
// metrics, and clamping keeps the accessor contracts total.
func (s *Sketch) Add(x float64) {
	s.n++
	if x <= minTrackable {
		s.zeros++
		return
	}
	s.counts[int(math.Ceil(math.Log(x)/s.lnGamma))]++
}

// Merge folds another sketch into s. Both must share the same accuracy
// (they do when both come from NewSketch with the same alpha).
func (s *Sketch) Merge(b *Sketch) {
	if b == nil || b.n == 0 {
		return
	}
	if b.alpha != s.alpha {
		panic(fmt.Sprintf("stats: merging sketches of different accuracy (%g vs %g)", s.alpha, b.alpha))
	}
	s.n += b.n
	s.zeros += b.zeros
	//koalalint:ordered bucket counts add commutatively; only the merged totals escape
	for k, c := range b.counts {
		s.counts[k] += c
	}
}

// N returns the number of observations.
func (s *Sketch) N() int64 { return s.n }

// Quantile returns an estimate of the q-th quantile (q in [0,1]) with
// relative error at most the sketch accuracy. It returns 0 for an
// empty sketch and panics for q outside [0,1].
func (s *Sketch) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g out of [0,1]", q))
	}
	if s.n == 0 {
		return 0
	}
	// The target rank mirrors the nearest-rank definition: the smallest
	// bucket whose cumulative count reaches it.
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if s.zeros >= rank {
		return 0
	}
	keys := make([]int, 0, len(s.counts))
	//koalalint:ordered keys are sorted before the cumulative walk below
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	cum := s.zeros
	for _, k := range keys {
		cum += s.counts[k]
		if cum >= rank {
			// The bucket spans (gamma^(k-1), gamma^k]; its midpoint
			// 2·gamma^k/(gamma+1) is within alpha of every value in it.
			return 2 * math.Exp(float64(k)*s.lnGamma) / (s.gamma + 1)
		}
	}
	// Unreachable: cum equals n after the loop and rank <= n.
	return 0
}

// Percentile is Quantile with p in [0,100], mirroring the batch API.
func (s *Sketch) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// Stream couples an Online accumulator with a quantile Sketch: the
// one-pass replacement for Summarize.
type Stream struct {
	Online Online
	Sketch *Sketch
}

// NewStream returns an empty Stream with the default sketch accuracy.
func NewStream() *Stream {
	return &Stream{Sketch: NewSketch(DefaultSketchAccuracy)}
}

// Add folds one observation into both halves.
func (s *Stream) Add(x float64) {
	s.Online.Add(x)
	s.Sketch.Add(x)
}

// Merge folds another Stream into s.
func (s *Stream) Merge(b *Stream) {
	if b == nil {
		return
	}
	s.Online.Merge(&b.Online)
	s.Sketch.Merge(b.Sketch)
}

// N returns the number of observations.
func (s *Stream) N() int { return s.Online.N() }

// Summary renders the stream as the batch Summary shape: the moments
// (N, Mean, StdDev, Min, Max) are exact, the quantiles (P25, Median,
// P75, P90) come from the sketch and carry its relative error; they are
// raw bucket estimates (see Summary.Clamped), which perfbench's stored
// result digests hash.
func (s *Stream) Summary() Summary {
	if s.Online.N() == 0 {
		return Summary{}
	}
	return Summary{
		N:      s.Online.N(),
		Mean:   s.Online.Mean(),
		StdDev: s.Online.StdDev(),
		Min:    s.Online.Min(),
		P25:    s.Sketch.Quantile(0.25),
		Median: s.Sketch.Quantile(0.50),
		P75:    s.Sketch.Quantile(0.75),
		P90:    s.Sketch.Quantile(0.90),
		Max:    s.Online.Max(),
	}
}

// Clamped returns s with its quantiles clamped to [Min, Max]. A sketch
// quantile is a bucket midpoint that can land just outside the observed
// range (a sample of all 2s reads 1.99); the true quantile lies in that
// range, so clamping only moves an estimate closer to it.
func (s Summary) Clamped() Summary {
	if s.N == 0 {
		return s
	}
	for _, q := range []*float64{&s.P25, &s.Median, &s.P75, &s.P90} {
		*q = min(max(*q, s.Min), s.Max)
	}
	return s
}
