// Package rng is the pipeline's per-frame random stream: math/rand's
// generator, value for value, with the two costs the pipeline pays for it
// removed. Every frame re-seeds a generator a few times to draw a dozen
// numbers (common random numbers across test scales), and math/rand's Seed
// runs 1 841 sequential divisions to fill 607 state words of which those
// draws read two dozen; and the renderer draws one normal per pixel through
// an interface call. Here Seed is O(1) — a state word is computed when a draw
// first reads it — and NormFloat64s fills a block of normals in one loop.
//
// Bit-compatibility with rand.New(rand.NewSource(seed)) is the contract, not
// a convenience: every rendered pixel, detection and golden in this
// repository was produced from that stream (DESIGN.md §4g).
package rng

import "math/rand"

const (
	rngLen   = 607 // state words: x[n] = x[n-607] + x[n-273]
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedA is the multiplier of math/rand's seedrand, which computes
	// x·48271 mod (2³¹−1) by Schrage's method.
	seedA = 48271

	// cookedAll is the draw count from which every state word has been
	// computed: draw n first touches vec[333−n] and, while n < rngTap,
	// vec[606−n].
	cookedAll = rngLen - rngTap
)

// seedPow[i] is 48271^(21+3i) mod (2³¹−1). math/rand's Seed applies seedrand
// 20 times and then three times per state word, so word i is made of
// seed·seedPow[i] and its next two seedrand images.
var seedPow [rngLen]uint32

func init() {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = mulmod(x, seedA)
	}
	for i := range seedPow {
		seedPow[i] = uint32(x)
		x = mulmod(mulmod(mulmod(x, seedA), seedA), seedA)
	}
}

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹. 2³¹ ≡ 1, so the product's
// high bits fold onto its low ones: two shift-adds, no division.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Source is a rand.Source64 that produces the values of rand.NewSource(seed).
// It must be seeded before use (New does).
type Source struct {
	vec   [rngLen]int64
	feed  int    // index of the word the last draw wrote; the tap is rngTap above it
	seed  uint32 // the seed reduced as math/rand reduces it: in [1, 2³¹−2]
	draws int32  // draws since Seed, counted up to cookedAll
}

// Seed resets the stream to that of rand.NewSource(seed). It computes no
// state word, so seeding a pooled generator to make a handful of draws costs
// the draws, not the state.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.feed, s.seed, s.draws = cookedAll, uint32(seed), 0
}

// word computes state word i as math/rand's Seed leaves it.
func (s *Source) word(i int) int64 {
	x := mulmod(uint64(s.seed), uint64(seedPow[i]))
	u := int64(x) << 40
	x = mulmod(x, seedA)
	u ^= int64(x) << 20
	x = mulmod(x, seedA)
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// cook computes every state word no draw has touched yet.
func (s *Source) cook() {
	if s.draws >= cookedAll {
		return
	}
	n := int(s.draws)
	for i := 0; i < cookedAll-n; i++ {
		s.vec[i] = s.word(i)
	}
	for i := cookedAll; i < rngLen-n; i++ {
		s.vec[i] = s.word(i)
	}
	s.draws = cookedAll
}

// Uint64 returns the next value of the stream.
func (s *Source) Uint64() uint64 {
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	tap := s.feed + rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	if s.draws < cookedAll {
		s.vec[s.feed] = s.word(s.feed)
		if s.draws < rngTap {
			s.vec[tap] = s.word(tap)
		}
		s.draws++
	}
	x := s.vec[s.feed] + s.vec[tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Rand is a *rand.Rand over a Source — every method of rand.Rand, on the
// stream of rand.New(rand.NewSource(seed)) — plus the block draw.
type Rand struct {
	*rand.Rand
	src *Source
}

// New returns a generator seeded with seed.
func New(seed int64) *Rand {
	src := new(Source)
	src.Seed(seed)
	return &Rand{Rand: rand.New(src), src: src}
}

// NormFloat64s fills dst with what len(dst) successive NormFloat64 calls
// would return and leaves the stream where they would.
//
// The state advances in place, one straight run at a time: within a run the
// tap sits at a fixed distance from the word being written, so the loop is
// vec[i] += vec[i+off] walking down, with the ziggurat's fast path (97 % of
// draws) taken inline. A draw that fails it is handed to rand.Rand.NormFloat64
// with the stream still positioned on its word, so the rejection arithmetic is
// the standard library's own.
func (r *Rand) NormFloat64s(dst []float64) {
	s := r.src
	s.cook()
	for len(dst) > 0 {
		feed := s.feed
		if feed == 0 {
			feed = rngLen
		}
		// Words [cookedAll, rngLen) tap cookedAll below, words [0, cookedAll) rngTap above.
		lo, off := 0, rngTap
		if feed > cookedAll {
			lo, off = cookedAll, -cookedAll
		}
		n := min(feed-lo, len(dst))
		done := fastRun(s.vec[feed-n:feed], s.vec[feed-n+off:feed+off], dst[:n])
		s.feed = feed - done
		dst = dst[done:]
		if done < n {
			dst[0] = r.Rand.NormFloat64()
			dst = dst[1:]
		}
	}
}

// fastRun walks words from the top down, adding the tap word to each, and
// writes the fast-path normal of each sum to out in draw order. It stops in
// front of the first word whose draw fails the fast path — that word is left
// unadvanced — and returns how many it completed. The three slices have one
// length.
func fastRun(words, taps []int64, out []float64) int {
	n := len(out)
	words, taps = words[:n], taps[:n]
	for k := range out {
		i := n - 1 - k
		x := words[i] + taps[i]
		j := int32(x >> 31)
		strip := j & 0x7F
		if absInt32(j) >= kn[strip] {
			return k
		}
		words[i] = x
		out[k] = float64(j) * float64(wn[strip])
	}
	return n
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// Mix64 is the splitmix64 finaliser: a bijective avalanche of z in which
// every input bit flips each output bit with probability about one half.
// Callers derive seeds from (seed, IDs) by pre-mixing them into z with their
// own odd multipliers and salt, so the streams of different callers stay
// independent.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
