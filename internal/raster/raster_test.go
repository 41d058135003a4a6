package raster

import (
	"math"
	"math/rand"
	"testing"

	"adascale/internal/rng"
)

func TestNewAndAccessors(t *testing.T) {
	im := New(4, 3)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 12 {
		t.Fatalf("bad image %dx%d len %d", im.W, im.H, len(im.Pix))
	}
	for i, v := range im.Pix {
		if v != 0 {
			t.Fatalf("New left pixel %d at %v", i, v)
		}
	}
}

// mean is the average pixel value of a non-empty image.
func mean(im *Image) float64 {
	var s float64
	for _, v := range im.Pix {
		s += float64(v)
	}
	return s / float64(len(im.Pix))
}

// at is im.Pix at (x, y), for coordinates inside the image.
func at(im *Image, x, y int) float32 { return im.Pix[y*im.W+x] }

// clone is a deep copy of im.
func clone(im *Image) *Image {
	out := New(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

func TestScaleFactorProtocol(t *testing.T) {
	// 720p frame scaled to shortest 600: factor 600/720, long side 1067 < 2000.
	f := ScaleFactor(1280, 720, 600, 2000)
	if math.Abs(f-600.0/720.0) > 1e-12 {
		t.Fatalf("factor = %v", f)
	}
	// Extreme aspect ratio triggers the longest-side cap.
	f = ScaleFactor(6000, 100, 600, 2000)
	if math.Abs(f-2000.0/6000.0) > 1e-12 {
		t.Fatalf("capped factor = %v", f)
	}
	if ScaleFactor(0, 10, 600, 2000) != 1 {
		t.Fatal("degenerate size must return 1")
	}
}

func TestBoxBlurPreservesMeanAndSmooths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := New(32, 32)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	b := clone(im)
	b.BoxBlurInPlace(2)
	if math.Abs(mean(im)-mean(b)) > 0.02 {
		t.Fatalf("blur shifted mean: %v vs %v", mean(im), mean(b))
	}
	varOf := func(p *Image) float64 {
		m := mean(p)
		var s float64
		for _, v := range p.Pix {
			s += (float64(v) - m) * (float64(v) - m)
		}
		return s / float64(len(p.Pix))
	}
	if varOf(b) >= varOf(im) {
		t.Fatal("blur must reduce variance of a noise image")
	}
	same := clone(im)
	same.BoxBlurInPlace(0)
	for i := range im.Pix {
		if same.Pix[i] != im.Pix[i] {
			t.Fatal("radius 0 must be identity")
		}
	}
}

// boxBlurTwoBuffers is the blur as it was before BoxBlurInPlace: a whole
// image of scratch for the horizontal pass and a second one for the result.
// Kept as the oracle — the renderer's pixels, and through them every feature
// map and golden, hang on the exact running sums.
func boxBlurTwoBuffers(im *Image, radius int) *Image {
	tmp, out := New(im.W, im.H), New(im.W, im.H)
	n := float32(2*radius + 1)
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*im.W : (y+1)*im.W]
		var sum float32
		for x := -radius; x <= radius; x++ {
			sum += row[clampInt(x, 0, im.W-1)]
		}
		for x := 0; x < im.W; x++ {
			tmp.Pix[y*im.W+x] = sum / n
			sum -= row[clampInt(x-radius, 0, im.W-1)]
			sum += row[clampInt(x+radius+1, 0, im.W-1)]
		}
	}
	for x := 0; x < im.W; x++ {
		var sum float32
		for y := -radius; y <= radius; y++ {
			sum += tmp.Pix[clampInt(y, 0, im.H-1)*im.W+x]
		}
		for y := 0; y < im.H; y++ {
			out.Pix[y*im.W+x] = sum / n
			sum -= tmp.Pix[clampInt(y-radius, 0, im.H-1)*im.W+x]
			sum += tmp.Pix[clampInt(y+radius+1, 0, im.H-1)*im.W+x]
		}
	}
	return out
}

func TestBoxBlurInPlaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct{ w, h, radius int }{
		{33, 19, 1}, {19, 33, 2}, {7, 5, 6}, {1, 9, 2}, {9, 1, 2}, {134, 75, 3},
		{0, 5, 1}, {5, 0, 1}, {0, 0, 2}, // empty: blurring New(0, 5) used to panic
		{3, 40, 3}, {3, 40, 9}, {40, 3, 3}, {40, 3, 9}, // radius ≥ W, radius ≥ H
		{1, 1, 1}, {1, 1, 4},
	}
	for h := 1; h <= 5; h++ { // the four-row block of the horizontal pass and its remainder
		cases = append(cases, struct{ w, h, radius int }{11, h, 2})
	}
	var buf Image // one image for every case: the in-place blur also runs on scratch a previous case left stale
	for _, c := range cases {
		im := Reuse(&buf, c.w, c.h)
		for i := range im.Pix {
			im.Pix[i] = rng.Float32()
		}
		want := im // an empty image blurs to itself; the oracle indexes column 0
		if c.w > 0 && c.h > 0 {
			want = boxBlurTwoBuffers(im, c.radius)
		}
		im.BoxBlurInPlace(c.radius)
		for i := range want.Pix {
			if math.Float32bits(im.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("%dx%d radius %d: pixel %d = %v, want %v", c.w, c.h, c.radius, i, im.Pix[i], want.Pix[i])
			}
		}
	}
}

// addNoiseThenClamp is AddNoise as it was: one NormFloat64 call per pixel,
// then a separate pass limiting every pixel to [0, 1]. Kept as the oracle.
func addNoiseThenClamp(im *Image, r *rand.Rand, sigma float64) {
	for i := range im.Pix {
		im.Pix[i] += float32(r.NormFloat64() * sigma)
	}
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
}

func TestAddNoiseBitIdentical(t *testing.T) {
	for _, sigma := range []float64{0.01, 0.015, 0.215} {
		for _, pre := range []int{0, 1, 300, 700} {
			// Pixels around both ends of [0, 1] so the clamp takes every
			// branch, plus the values a comparison treats specially.
			im := New(157, 201)
			fill := rand.New(rand.NewSource(int64(pre)))
			for i := range im.Pix {
				switch i % 3 {
				case 0:
					im.Pix[i] = float32(fill.NormFloat64() * sigma)
				case 1:
					im.Pix[i] = 1 + float32(fill.NormFloat64()*sigma)
				default:
					im.Pix[i] = fill.Float32()
				}
			}
			im.Pix[5] = float32(math.NaN())
			im.Pix[6] = float32(math.Copysign(0, -1))
			im.Pix[7], im.Pix[8] = 0, 1
			want := clone(im)

			seed := int64(1000*pre) + int64(sigma*1e4)
			r, oracle := rng.New(seed), rand.New(rand.NewSource(seed))
			for k := 0; k < pre; k++ {
				r.Float64()
				oracle.Float64()
			}
			im.AddNoise(r, sigma)
			addNoiseThenClamp(want, oracle, sigma)
			var lo, hi int
			for i := range want.Pix {
				if math.Float32bits(im.Pix[i]) != math.Float32bits(want.Pix[i]) {
					t.Fatalf("sigma %v after %d draws: pixel %d = %v, add-then-clamp has %v", sigma, pre, i, im.Pix[i], want.Pix[i])
				}
				if want.Pix[i] == 0 {
					lo++
				} else if want.Pix[i] == 1 {
					hi++
				}
			}
			if lo < 100 || hi < 100 || !math.IsNaN(float64(im.Pix[5])) {
				t.Fatalf("sigma %v: %d pixels clamped at 0, %d at 1, NaN pixel = %v: the image does not exercise the clamp", sigma, lo, hi, im.Pix[5])
			}
			if r.Int63() != oracle.Int63() {
				t.Fatalf("sigma %v after %d draws: the streams part after the noise", sigma, pre)
			}
		}
	}
}

func TestAddNoiseDoesNotAllocate(t *testing.T) {
	im := New(150, 200)
	r := rng.New(1)
	if a := testing.AllocsPerRun(10, func() {
		r.Seed(9)
		im.AddNoise(r, 0.015)
	}); a != 0 {
		t.Fatalf("a 30 000-pixel AddNoise allocates %v times", a)
	}
}

// TestBoxBlurInPlaceDoesNotAllocate: the blur's scratch stays with the
// image, so once an image has been blurred at a radius, blurring it again at
// that radius or a smaller one allocates nothing.
func TestBoxBlurInPlaceDoesNotAllocate(t *testing.T) {
	im := New(150, 200)
	im.BoxBlurInPlace(5)
	if a := testing.AllocsPerRun(10, func() {
		im.BoxBlurInPlace(5)
		im.BoxBlurInPlace(2)
	}); a != 0 {
		t.Fatalf("a warm 30 000-pixel BoxBlurInPlace allocates %v times", a)
	}
}

func TestClampAndNoise(t *testing.T) {
	im := New(4, 4)
	for i := range im.Pix {
		im.Pix[i] = 0.5
	}
	im.AddNoise(rng.New(3), 10)
	for _, v := range im.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("clamp failed: %v", v)
		}
	}
}

func TestDrawEllipseInside(t *testing.T) {
	im := New(40, 40)
	im.DrawEllipse(10, 10, 30, 30, TextureSolid, 0.9, 8)
	if at(im, 20, 20) != 0.9 {
		t.Fatal("ellipse centre not drawn")
	}
	if at(im, 11, 11) != 0 {
		t.Fatal("ellipse corner should remain background")
	}
	if at(im, 5, 20) != 0 {
		t.Fatal("outside box must be untouched")
	}
}

func TestDrawRectTexturesDiffer(t *testing.T) {
	variance := func(tex Texture) float64 {
		im := New(32, 32)
		im.DrawRect(0, 0, 32, 32, tex, 0.9, 4)
		m := mean(im)
		var s float64
		for _, v := range im.Pix {
			s += (float64(v) - m) * (float64(v) - m)
		}
		return s / float64(len(im.Pix))
	}
	if variance(TextureSolid) != 0 {
		t.Fatal("solid texture must have zero variance")
	}
	if variance(TextureChecker) <= variance(TextureGradient) {
		t.Fatal("checker should be higher-frequency than gradient")
	}
}

func TestTextureComplexityOrdering(t *testing.T) {
	order := []Texture{TextureSolid, TextureGradient, TextureStripes, TextureChecker, TextureDots}
	for i := 1; i < len(order); i++ {
		if order[i].Complexity() <= order[i-1].Complexity() {
			t.Fatalf("complexity not increasing at %v", order[i])
		}
	}
	for _, tex := range order {
		if tex.String() == "unknown" {
			t.Fatalf("missing name for %d", tex)
		}
	}
}

func TestDrawDegenerateBoxesNoPanic(t *testing.T) {
	im := New(10, 10)
	im.DrawEllipse(5, 5, 5, 5, TextureDots, 1, 2)
	im.DrawRect(3, 3, 3, 9, TextureStripes, 1, 2)
}

// texValue, drawEllipsePerPixel and drawRectPerPixel are DrawEllipse and
// DrawRect as they were: every pixel of the box's range evaluates its own
// inside test and texture from scratch, through set. Kept as the oracle;
// their products are written float64(x*y) as the drawing code's are, so the
// oracle is the same function on a compiler that fuses.
func texValue(t Texture, u, v float64, base float32, periodPx float64, wPx, hPx float64) float32 {
	switch t {
	case TextureSolid:
		return base
	case TextureGradient:
		return base * float32(0.6+float64(0.4*u))
	case TextureStripes:
		phase := u * wPx / math.Max(periodPx, 1)
		if int(math.Floor(phase))%2 == 0 {
			return base
		}
		return base * 0.45
	case TextureChecker:
		pu := int(math.Floor(u * wPx / math.Max(periodPx, 1)))
		pv := int(math.Floor(v * hPx / math.Max(periodPx, 1)))
		if (pu+pv)%2 == 0 {
			return base
		}
		return base * 0.4
	case TextureDots:
		du := math.Mod(u*wPx, math.Max(periodPx, 1)) / math.Max(periodPx, 1)
		dv := math.Mod(v*hPx, math.Max(periodPx, 1)) / math.Max(periodPx, 1)
		r := math.Hypot(du-0.5, dv-0.5)
		if r < 0.3 {
			return base * 0.35
		}
		return base
	default:
		return base
	}
}

// set writes the pixel at (x, y); out-of-bounds writes are ignored.
func set(im *Image, x, y int, v float32) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

func drawEllipsePerPixel(im *Image, x0, y0, x1, y1 float64, tex Texture, base float32, periodPx float64) {
	cx, cy := float64((x0+x1)/2), float64((y0+y1)/2)
	rx, ry := (x1-x0)/2, (y1-y0)/2
	if rx <= 0 || ry <= 0 {
		return
	}
	for y := int(math.Floor(y0)); y <= int(math.Ceil(y1)); y++ {
		for x := int(math.Floor(x0)); x <= int(math.Ceil(x1)); x++ {
			dx := (float64(x) + 0.5 - cx) / rx
			dy := (float64(y) + 0.5 - cy) / ry
			if float64(dx*dx)+float64(dy*dy) > 1 {
				continue
			}
			u := (float64(x) + 0.5 - x0) / (x1 - x0)
			v := (float64(y) + 0.5 - y0) / (y1 - y0)
			set(im, x, y, texValue(tex, u, v, base, periodPx, x1-x0, y1-y0))
		}
	}
}

func drawRectPerPixel(im *Image, x0, y0, x1, y1 float64, tex Texture, base float32, periodPx float64) {
	for y := int(math.Floor(y0)); y < int(math.Ceil(y1)); y++ {
		for x := int(math.Floor(x0)); x < int(math.Ceil(x1)); x++ {
			u := (float64(x) + 0.5 - x0) / math.Max(x1-x0, 1e-9)
			v := (float64(y) + 0.5 - y0) / math.Max(y1-y0, 1e-9)
			if u < 0 || u >= 1 || v < 0 || v >= 1 {
				continue
			}
			set(im, x, y, texValue(tex, u, v, base, periodPx, x1-x0, y1-y0))
		}
	}
}

// shapeCase is one DrawEllipse or DrawRect call.
type shapeCase struct {
	rect           bool
	x0, y0, x1, y1 float64
	tex            Texture
	base           float32
	period         float64
}

// checkShapes draws the shapes in order into im with the span code and into
// a copy with the per-pixel oracle, and requires the two images to be equal
// bit for bit — the pixels no shape touches included.
func checkShapes(t *testing.T, im *Image, shapes []shapeCase) {
	t.Helper()
	want := clone(im)
	for _, c := range shapes {
		if c.rect {
			im.DrawRect(c.x0, c.y0, c.x1, c.y1, c.tex, c.base, c.period)
			drawRectPerPixel(want, c.x0, c.y0, c.x1, c.y1, c.tex, c.base, c.period)
		} else {
			im.DrawEllipse(c.x0, c.y0, c.x1, c.y1, c.tex, c.base, c.period)
			drawEllipsePerPixel(want, c.x0, c.y0, c.x1, c.y1, c.tex, c.base, c.period)
		}
		for i := range want.Pix {
			if math.Float32bits(im.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("%dx%d image, after %+v: pixel (%d, %d) = %v, per-pixel drawing has %v",
					im.W, im.H, c, i%im.W, i/im.W, im.Pix[i], want.Pix[i])
			}
		}
	}
}

// TestDrawShapesMatchPerPixel draws a few hundred random shapes, one after
// another, into images of a few sizes — so the column scratch grows, shrinks
// and is reused stale — and holds each image to the per-pixel oracle. The
// sizes share one image through Reuse, and its width grows twice within the
// pixel storage of the first, narrow and tall size, so the scratch an image
// keeps must grow with its width.
func TestDrawShapesMatchPerPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf Image
	for _, size := range [][2]int{{20, 720}, {40, 31}, {160, 90}, {7, 3}, {1, 1}} {
		w, h := size[0], size[1]
		im := Reuse(&buf, w, h)
		for i := range im.Pix {
			im.Pix[i] = rng.Float32()
		}
		var shapes []shapeCase
		for range 200 {
			// Boxes from well outside the image to well past it, of any size
			// down to a fraction of a pixel, sometimes inverted.
			x0 := (rng.Float64()*1.6 - 0.3) * float64(w)
			y0 := (rng.Float64()*1.6 - 0.3) * float64(h)
			bw := rng.Float64() * float64(w) * []float64{0.02, 0.3, 1, 2}[rng.Intn(4)]
			bh := rng.Float64() * float64(h) * []float64{0.02, 0.3, 1, 2}[rng.Intn(4)]
			if rng.Intn(10) == 0 {
				bw = -bw
			}
			shapes = append(shapes, shapeCase{
				rect: rng.Intn(2) == 0,
				x0:   x0, y0: y0, x1: x0 + bw, y1: y0 + bh,
				tex:    Texture(rng.Intn(7) - 1),
				base:   rng.Float32(),
				period: rng.Float64() * 12,
			})
		}
		checkShapes(t, im, shapes)
	}
}

// FuzzDrawShapes holds an ellipse and then a rectangle, drawn into one
// image, to the per-pixel oracle. Coordinates are 1/128 of a pixel from −256
// to 256 around an image of at most 48×48, so boxes land off the image,
// partly clipped, inverted or empty (rx ≤ 0, x1 < x0), below a pixel, or
// many times the image; textures run from −1 to 5, an unknown one at each
// end; periods from −16 to 16 in eighths, so below 1 as well.
func FuzzDrawShapes(f *testing.F) {
	f.Add(uint8(39), uint8(29), int16(1280), int16(640), int16(3840), int16(3200), int8(4), int16(-640), int16(-640), int16(1300), int16(900), int8(3), int8(20), uint8(200))
	f.Fuzz(func(t *testing.T, w, h uint8, ex0, ey0, ex1, ey1 int16, etex int8, rx0, ry0, rx1, ry1 int16, rtex int8, period int8, base uint8) {
		im := New(1+int(w)%48, 1+int(h)%48)
		r := rand.New(rand.NewSource(int64(w)<<8 | int64(h)))
		for i := range im.Pix {
			im.Pix[i] = r.Float32()
		}
		c := func(v int16) float64 { return float64(v) / 128 }
		tex := func(v int8) Texture { return Texture(int(v)%7 - 1) }
		p, b := float64(period)/8, float32(base)/255
		checkShapes(t, im, []shapeCase{
			{false, c(ex0), c(ey0), c(ex1), c(ey1), tex(etex), b, p},
			{true, c(rx0), c(ry0), c(rx1), c(ry1), tex(rtex), b, p},
		})
	})
}
