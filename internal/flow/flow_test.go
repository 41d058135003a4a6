package flow

import (
	"math"
	"math/rand"
	"testing"

	"adascale/internal/detect"
	"adascale/internal/raster"
)

// texturedImage builds a random-texture image so block matching has
// structure to lock onto.
func texturedImage(rng *rand.Rand, w, h int) *raster.Image {
	im := raster.New(w, h)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	im.BoxBlurInPlace(1) // correlate neighbours slightly
	return im
}

// shifted returns a copy of im translated by (dx, dy), filling new pixels
// with mid-gray.
func shifted(im *raster.Image, dx, dy int) *raster.Image {
	out := raster.New(im.W, im.H)
	for i := range out.Pix {
		out.Pix[i] = 0.5
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			sx, sy := x-dx, y-dy
			if sx >= 0 && sx < im.W && sy >= 0 && sy < im.H {
				out.Pix[y*im.W+x] = im.Pix[sy*im.W+sx]
			}
		}
	}
	return out
}

// mustEstimate is the test-side wrapper over Estimate for well-formed
// inputs.
func mustEstimate(t *testing.T, prev, cur *raster.Image, block, radius int) *Field {
	t.Helper()
	f, err := Estimate(prev, cur, block, radius)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestZeroFlowOnIdenticalFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := texturedImage(rng, 48, 32)
	f := mustEstimate(t, im, im, 8, 4)
	for i := range f.U {
		if f.U[i] != 0 || f.V[i] != 0 {
			t.Fatalf("identical frames must give zero flow, cell %d has (%v, %v)", i, f.U[i], f.V[i])
		}
	}
	if f.MeanResidual() != 0 {
		t.Fatalf("identical frames must match perfectly, residual %v", f.MeanResidual())
	}
}

func TestRecoversGlobalTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := texturedImage(rng, 64, 48)
	for _, shift := range [][2]int{{3, 0}, {0, -2}, {2, 2}, {-3, 1}} {
		cur := shifted(im, shift[0], shift[1])
		f := mustEstimate(t, im, cur, 8, 4)
		// Interior blocks (away from borders where fill dominates) must
		// recover the exact displacement.
		okCount, total := 0, 0
		for by := 1; by < f.Rows-1; by++ {
			for bx := 1; bx < f.Cols-1; bx++ {
				i := by*f.Cols + bx
				total++
				if int(f.U[i]) == shift[0] && int(f.V[i]) == shift[1] {
					okCount++
				}
			}
		}
		if float64(okCount) < 0.8*float64(total) {
			t.Fatalf("shift %v: only %d/%d interior blocks recovered", shift, okCount, total)
		}
	}
}

func TestWarpBoxFollowsMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im := texturedImage(rng, 64, 64)
	cur := shifted(im, 3, 2)
	f := mustEstimate(t, im, cur, 8, 4)
	b := detect.Box{X1: 16, Y1: 16, X2: 40, Y2: 40}
	w := f.WarpBox(b)
	if math.Abs(w.X1-b.X1-3) > 1.5 || math.Abs(w.Y1-b.Y1-2) > 1.5 {
		t.Fatalf("warped box %v does not follow the (3,2) motion from %v", w, b)
	}
	// A box fully outside the field is returned unchanged.
	out := detect.Box{X1: -100, Y1: -100, X2: -90, Y2: -90}
	if f.WarpBox(out) != out {
		t.Fatal("out-of-field box must be unchanged")
	}
}

func TestResidualSignalsUnreliableFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prev := texturedImage(rng, 48, 48)
	// Completely unrelated next frame: no displacement explains it.
	unrelated := texturedImage(rand.New(rand.NewSource(99)), 48, 48)
	translated := shifted(prev, 2, 0)
	fBad := mustEstimate(t, prev, unrelated, 8, 3)
	fGood := mustEstimate(t, prev, translated, 8, 3)
	if fBad.MeanResidual() <= fGood.MeanResidual() {
		t.Fatalf("unrelated frames should have higher residual: %v vs %v",
			fBad.MeanResidual(), fGood.MeanResidual())
	}
}

// TestMalformedFramesReturnError pins the hardened contract: a malformed
// frame pair is an error, never a panic, so one bad frame cannot kill a
// whole evaluation.
func TestMalformedFramesReturnError(t *testing.T) {
	if _, err := Estimate(raster.New(10, 10), raster.New(20, 10), 4, 2); err == nil {
		t.Fatal("mismatched sizes must return an error")
	}
	if _, err := Estimate(nil, raster.New(10, 10), 4, 2); err == nil {
		t.Fatal("nil prev must return an error")
	}
	if _, err := Estimate(raster.New(10, 10), nil, 4, 2); err == nil {
		t.Fatal("nil cur must return an error")
	}
}

func TestSmallBlockClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := texturedImage(rng, 16, 16)
	f := mustEstimate(t, im, im, 1, 1) // block clamps to 2
	if f.Block != 2 {
		t.Fatalf("block = %d, want clamp to 2", f.Block)
	}
}

// FuzzFlowEstimate holds Estimate, whose interior blocks take blockSAD's
// row loop, to the same search on edgeSAD alone — the per-pixel loop every
// block took before — bit for bit in U, V and Residual. Frames are a
// textured image and a shifted, perturbed copy, of any size from one pixel
// (so blocks hang off every edge) up to a few blocks across; a share raw/256
// of cur's pixels are arbitrary float32 bit patterns (NaN and ±Inf among
// them), so aborted, infinite and NaN sums occur too.
func FuzzFlowEstimate(f *testing.F) {
	f.Add(int64(1), uint8(48), uint8(32), uint8(8), uint8(4), int8(2), int8(-1), uint8(0)) // the DFF shape family
	f.Add(int64(2), uint8(21), uint8(13), uint8(4), uint8(3), int8(-3), int8(2), uint8(0)) // partial blocks on both edges
	f.Add(int64(3), uint8(40), uint8(40), uint8(8), uint8(2), int8(0), int8(0), uint8(16)) // specials in cur
	f.Add(int64(4), uint8(1), uint8(3), uint8(1), uint8(1), int8(1), int8(1), uint8(255))  // smaller than one block
	f.Fuzz(func(t *testing.T, seed int64, w, h, block, radius uint8, dx, dy int8, raw uint8) {
		rng := rand.New(rand.NewSource(seed))
		prev := texturedImage(rng, 1+int(w)%64, 1+int(h)%48)
		cur := shifted(prev, int(dx)%5, int(dy)%5)
		for i := range cur.Pix {
			switch {
			case uint8(rng.Intn(256)) < raw:
				cur.Pix[i] = math.Float32frombits(rng.Uint32())
			case rng.Intn(4) == 0:
				cur.Pix[i] += float32(rng.NormFloat64()) / 16
			}
		}
		bl, r := 2+int(block)%11, int(radius)%6
		got, err := Estimate(prev, cur, bl, r)
		if err != nil {
			t.Fatal(err)
		}
		want := estimate(prev, cur, bl, r, edgeSAD)
		for name, pair := range map[string][2][]float32{"U": {got.U, want.U}, "V": {got.V, want.V}, "Residual": {got.Residual, want.Residual}} {
			for i := range pair[1] {
				if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
					t.Fatalf("%dx%d block %d radius %d: %s[%d] = %v, edge loop gives %v", prev.W, prev.H, bl, r, name, i, pair[0][i], pair[1][i])
				}
			}
		}
	})
}
