package rng

import (
	"math"
	"math/rand"
	"testing"
)

// The oracle of every test here is rand.New(rand.NewSource(seed)): the
// package exists to be indistinguishable from it.

var edgeSeeds = []int64{
	0, 1, -1, 2, int32max - 1, int32max, int32max + 1, 1 << 31, -int32max,
	3 * int32max, 3*int32max + 5, math.MaxInt64, math.MinInt64, 89482311, 0x5DEECE66D, 20190331,
}

// drawMixed makes one scalar draw of kind k from both generators and fails the
// test unless they agree.
func drawMixed(t testing.TB, k int, got *Rand, want *rand.Rand) {
	t.Helper()
	var g, w uint64
	switch k % 5 {
	case 0:
		g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
	case 1:
		g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
	case 2:
		g, w = uint64(got.Intn(5)), uint64(want.Intn(5))
	case 3:
		g, w = got.Uint64(), want.Uint64()
	case 4:
		g, w = uint64(got.Int63()), uint64(want.Int63())
	}
	if g != w {
		t.Fatalf("draw kind %d: got %#x, math/rand has %#x", k%5, g, w)
	}
}

func checkNormBlock(t testing.TB, got *Rand, want *rand.Rand, n int) {
	t.Helper()
	dst := make([]float64, n)
	got.NormFloat64s(dst)
	for i, x := range dst {
		if w := want.NormFloat64(); math.Float64bits(x) != math.Float64bits(w) {
			t.Fatalf("NormFloat64s(%d)[%d] = %v, math/rand has %v", n, i, x, w)
		}
	}
}

func TestMulmodIsSeedrand(t *testing.T) {
	// seedrand as math/rand writes it (Schrage), iterated over the whole
	// range Seed uses, against the folded product.
	seedrand := func(x int32) int32 {
		const (
			A = 48271
			Q = 44488
			R = 3399
		)
		hi, lo := x/Q, x%Q
		x = A*lo - R*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	for _, x0 := range []int32{1, 2, 89482311, int32max - 1, 44488, 44487} {
		if got, want := mulmod(uint64(x0), seedA), seedrand(x0); got != uint64(want) {
			t.Fatalf("mulmod(%d, A) = %d, seedrand %d", x0, got, want)
		}
		x := x0
		for n := 1; n <= 21+3*(rngLen-1); n++ {
			x = seedrand(x)
			if n >= 21 && (n-21)%3 == 0 {
				if got := mulmod(uint64(x0), uint64(seedPow[(n-21)/3])); got != uint64(x) {
					t.Fatalf("seed %d: %d applications give %d, jump-ahead %d", x0, n, x, got)
				}
			}
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	got := New(12345) // one generator, re-seeded throughout as the pools do
	for round := 0; round < 3; round++ {
		for _, seed := range edgeSeeds {
			want := rand.New(rand.NewSource(seed))
			got.Seed(seed)
			for k := 0; k < 5000; k++ {
				drawMixed(t, k+round, got, want)
			}
		}
	}
}

func TestNormFloat64sMatchesMathRand(t *testing.T) {
	got := New(1)
	for _, seed := range edgeSeeds[:6] {
		for _, pre := range []int{0, 1, 272, 273, 333, 334, 607} {
			for _, n := range []int{0, 1, 7, 606, 607, 608, 30000} {
				want := rand.New(rand.NewSource(seed))
				got.Seed(seed)
				for k := 0; k < pre; k++ {
					if got.Int63() != want.Int63() {
						t.Fatalf("seed %d: draw %d differs", seed, k)
					}
				}
				checkNormBlock(t, got, want, n)
				// The stream is left where scalar calls would leave it, and
				// a second block starts from a fully cooked state.
				for k := 0; k < 12; k++ {
					drawMixed(t, k, got, want)
				}
				checkNormBlock(t, got, want, 609)
				drawMixed(t, 3, got, want)
			}
		}
	}
}

// wordLog is a rand.Source64 that records the values it hands out, so a test
// can see which words one NormFloat64 call consumed.
type wordLog struct {
	rand.Source64
	words []uint64
}

func (w *wordLog) Int63() int64 {
	v := w.Source64.Int63()
	w.words = append(w.words, uint64(v))
	return v
}

// TestNormFloat64sSlowPaths draws 3·10⁶ normals in one stream — long enough
// that the oracle takes the base-strip rejection loop and the strip-1 wedge
// (kn[1] is 0: never fast) — and requires every one equal.
func TestNormFloat64sSlowPaths(t *testing.T) {
	const total, chunk = 3_000_000, 30_000
	log := &wordLog{Source64: rand.NewSource(7).(rand.Source64)}
	want := rand.New(log)
	got := New(7)
	dst := make([]float64, chunk)
	var base, strip1, slow int
	for done := 0; done < total; done += chunk {
		got.NormFloat64s(dst)
		for i, x := range dst {
			log.words = log.words[:0]
			if w := want.NormFloat64(); math.Float64bits(x) != math.Float64bits(w) {
				t.Fatalf("normal %d = %v, math/rand has %v", done+i, x, w)
			}
			if len(log.words) > 1 {
				slow++
				switch int32(log.words[0]>>31) & 0x7F {
				case 0:
					base++
				case 1:
					strip1++
				}
			}
		}
	}
	if base == 0 || strip1 == 0 {
		t.Fatalf("slow paths not exercised: base strip %d, strip 1 %d of %d slow draws", base, strip1, slow)
	}
	t.Logf("%d of %d draws left the fast path (%d base strip, %d strip 1)", slow, total, base, strip1)
}

// FuzzSeedStream: any seed, pre scalar draws, then a block of n normals and a
// few more scalar draws, all equal to math/rand's.
func FuzzSeedStream(f *testing.F) {
	f.Add(int64(0), uint16(0), uint16(0))
	f.Add(int64(1), uint16(273), uint16(607))
	f.Add(int64(math.MinInt64), uint16(333), uint16(608))
	f.Add(int64(int32max), uint16(334), uint16(1))
	f.Add(int64(89482311), uint16(607), uint16(30000))
	pooled := New(1)
	f.Fuzz(func(t *testing.T, seed int64, pre uint16, n uint16) {
		want := rand.New(rand.NewSource(seed))
		pooled.Seed(seed)
		for k := 0; k < int(pre); k++ {
			drawMixed(t, k+int(seed&7), pooled, want)
		}
		checkNormBlock(t, pooled, want, int(n))
		for k := 0; k < 5; k++ {
			drawMixed(t, k, pooled, want)
		}
	})
}

// seedDraw12 is what rfcn.Detect does per object: re-seed a pooled generator
// and draw a dozen numbers.
func seedDraw12(r *rand.Rand, seed int64) {
	r.Seed(seed)
	for k := 0; k < 6; k++ {
		sinkF += r.Float64() + r.NormFloat64()
	}
}

var sinkF float64

func TestSeedAndDrawsDoNotAllocate(t *testing.T) {
	r := New(1)
	seed := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		seed++
		seedDraw12(r.Rand, seed)
	}); a != 0 {
		t.Fatalf("Seed + 12 draws allocate %v times", a)
	}
}

func BenchmarkSeedDraw12(b *testing.B) {
	for _, c := range []struct {
		name string
		r    *rand.Rand
	}{{"rng", New(1).Rand}, {"math-rand", rand.New(rand.NewSource(1))}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seedDraw12(c.r, int64(i))
			}
		})
	}
}

// BenchmarkNormFloat64s30k is the noise of one scale-600 render (150×200
// pixels), seed included.
func BenchmarkNormFloat64s30k(b *testing.B) {
	dst := make([]float64, 30000)
	b.Run("rng", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			r.NormFloat64s(dst)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for j := range dst {
				dst[j] = r.NormFloat64()
			}
		}
	})
}

// TestMix64 pins the finaliser to splitmix64's published first output for
// state 0 (the state advances by the golden gamma before mixing).
func TestMix64(t *testing.T) {
	if got := Mix64(0x9E3779B97F4A7C15); got != 0xE220A8397B1DCDAF {
		t.Fatalf("Mix64 = %#x, want 0xe220a8397b1dcdaf", got)
	}
}
