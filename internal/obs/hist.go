package obs

import "math"

// Histogram is a handle on one registry histogram (Metrics.HistogramOf):
// log-linear bucket counts beside the exact sample count, minimum, maximum
// and running sum.
//
// A positive value's bucket is the top of its IEEE-754 bit pattern — the 11
// exponent bits and the first subBits mantissa bits — so every power of two
// is cut into 32 equal sub-buckets, the index is monotone in the value, and
// computing it is one shift. A quantile reports the lower edge of the bucket
// its nearest-rank sample fell in, clamped into [min, max]: at most 1/32
// below the sample, and exact for a value that is its bucket's edge (every
// integer up to 64) and for the first and last rank. Values ≤ 0 share one
// bucket that reports 0; NaN and ±Inf are tallied and enter nothing else.
//
// counts spans only the buckets between the smallest and largest positive
// value seen — one count after one value, ~13 octaves × 32 for latencies
// from 0.1 to 1000 ms — so memory follows the range observed, never the
// number of samples.
type Histogram struct {
	n, low, nonfinite int      // finite samples; those ≤ 0; NaN/±Inf seen
	sum, min, max     float64  // over the n finite samples
	lo                int      // bucket index of counts[0]
	counts            []uint64 // per-bucket sample counts over [lo, lo+len)
}

const subBits = 5 // 2^5 sub-buckets per power of two: the 1/32 bound

func bucketOf(v float64) int       { return int(math.Float64bits(v) >> (52 - subBits)) }
func bucketEdge(i int) float64     { return math.Float64frombits(uint64(i) << (52 - subBits)) }
func (h *Histogram) hi() int       { return h.lo + len(h.counts) }
func (h *Histogram) mean() float64 { return h.sum / float64(max(h.n, 1)) }

// recorded reports whether any sample, finite or not, was observed.
func (h *Histogram) recorded() bool { return h.n > 0 || h.nonfinite > 0 }

// Observe records one sample: an index and an increment once the span
// covers the value's bucket. NaN and ±Inf are tallied (Snapshot shows the
// tally when it is non-zero) and otherwise ignored: they enter no bucket,
// count, minimum, maximum or mean.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonfinite++
		return
	}
	if h.n == 0 {
		h.min, h.max = v, v
	}
	h.min, h.max = min(h.min, v), max(h.max, v)
	h.n++
	h.sum += v
	if v <= 0 {
		h.low++
		return
	}
	i := bucketOf(v)
	h.cover(i, i+1)
	h.counts[i-h.lo]++
}

// cover widens the span to include buckets [lo, hi). A side that has to
// move moves by at least half the current span, so a distribution that keeps
// widening reallocates O(log span) times, not once per new bucket.
func (h *Histogram) cover(lo, hi int) {
	n := len(h.counts)
	if n == 0 {
		h.lo, h.counts = lo, make([]uint64, hi-lo)
		return
	}
	if lo >= h.lo && hi <= h.hi() {
		return
	}
	if lo < h.lo {
		lo = max(min(lo, h.lo-n/2), 0)
	}
	if hi > h.hi() {
		hi = max(hi, h.hi()+n/2)
	}
	lo, hi = min(lo, h.lo), max(hi, h.hi())
	counts := make([]uint64, hi-lo)
	copy(counts[h.lo-lo:], h.counts)
	h.lo, h.counts = lo, counts
}

// reset empties h but keeps its bucket span: a quantile walks past zero
// counts, and merge and Observe widen a span as a new one would, so only the
// allocation differs from a fresh histogram.
func (h *Histogram) reset() {
	clear(h.counts)
	*h = Histogram{lo: h.lo, counts: h.counts}
}

// merge adds src into h: counts add bucket by bucket, so merging is
// commutative and associative in everything but the last bits of sum, which
// follow the order float64 addition was done in.
func (h *Histogram) merge(src *Histogram) {
	h.nonfinite += src.nonfinite
	if src.n == 0 {
		return
	}
	if h.n == 0 {
		h.min, h.max = src.min, src.max
	}
	h.min, h.max = min(h.min, src.min), max(h.max, src.max)
	h.n += src.n
	h.low += src.low
	h.sum += src.sum
	if len(src.counts) > 0 {
		h.cover(src.lo, src.hi())
		dst := h.counts[src.lo-h.lo:]
		for i, c := range src.counts {
			dst[i] += c
		}
	}
}

// quantile is nearest-rank over the buckets: the q-quantile (q in (0, 1])
// of n samples is the sample of rank ⌈n·q⌉, reported as described on Histogram.
func (h *Histogram) quantile(q float64) float64 {
	rank := int(float64(float64(h.n)*q) + 0.999999999)
	switch {
	case h.n == 0:
		return 0
	case rank <= 1:
		return h.min
	case rank >= h.n:
		return h.max
	case rank <= h.low:
		return math.Min(0, h.max)
	}
	seen := h.low
	for i, c := range h.counts {
		if seen += int(c); seen >= rank {
			return math.Max(bucketEdge(h.lo+i), h.min)
		}
	}
	return h.max
}
