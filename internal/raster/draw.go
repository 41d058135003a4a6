package raster

import "math"

// Texture selects the fill pattern used when rendering a synthetic object.
// Texture complexity is one of the signals the paper says the scale
// regressor should react to ("if the object is large or has simple texture
// … down-sample the image").
type Texture int

// Texture kinds, roughly ordered by spatial-frequency content.
const (
	TextureSolid Texture = iota
	TextureGradient
	TextureStripes
	TextureChecker
	TextureDots
)

// String names the texture for logs and experiment dumps.
func (t Texture) String() string {
	switch t {
	case TextureSolid:
		return "solid"
	case TextureGradient:
		return "gradient"
	case TextureStripes:
		return "stripes"
	case TextureChecker:
		return "checker"
	case TextureDots:
		return "dots"
	default:
		return "unknown"
	}
}

// Complexity returns a rough [0,1] measure of the texture's spatial
// frequency content, used by the synthetic dataset to correlate texture
// with optimal scale.
func (t Texture) Complexity() float64 {
	switch t {
	case TextureSolid:
		return 0.05
	case TextureGradient:
		return 0.2
	case TextureStripes:
		return 0.55
	case TextureChecker:
		return 0.75
	case TextureDots:
		return 0.95
	default:
		return 0.5
	}
}

// A shape is drawn in row spans. It is clipped to the image once and its
// texture resolved once: every term of a pixel's value that depends only on
// its column (u, the stripe or checker column index, the dots' du) is
// computed once per column into scratch kept on the Image, every term that
// depends only on its row (dy, v, the checker's row index, the dots' dv) once
// per row. Per pixel only the inside test and the dots' Hypot remain. Each
// term is the expression the per-pixel definition evaluates (raster_test.go
// keeps that definition as the oracle), in the same order, so the pixels are
// its bit for bit. A product that meets a sum is written float64(x*y), so no
// compiler fuses it into one rounding.

// shapeCols is the per-column scratch of one shape, kept on the Image.
type shapeCols struct {
	in  []float64    // the column's term of the inside test: dx², or 0 / +Inf
	du  []float64    // the dots' du − 0.5
	val [2][]float32 // the pixel a non-dots texture gives the column in rows of even and odd checker parity
}

// span is one shape clipped to the image: columns x0 … x0+len(in)−1 and rows
// y0 … y1, its texture resolved over those columns.
type span struct {
	x0, y0, y1 int
	shapeCols
	tex    Texture
	base   float32
	period float64 // max(periodPx, 1)
}

// clipSpan returns the pixels lo … hi of the whole-number range [a, b] that
// lie in [0, n), and false when none does (or a bound is NaN).
func clipSpan(a, b float64, n int) (lo, hi int, ok bool) {
	a, b = math.Max(a, 0), math.Min(b, float64(n-1))
	if !(a <= b) {
		return 0, 0, false
	}
	return int(a), int(b), true
}

// span clips the pixel columns [xa, xb] and rows [ya, yb] (whole numbers) to
// the image and sizes the column scratch for them.
func (im *Image) span(xa, xb, ya, yb float64) (s span, ok bool) {
	x0, x1, okx := clipSpan(xa, xb, im.W)
	y0, y1, oky := clipSpan(ya, yb, im.H)
	if !okx || !oky {
		return s, false
	}
	n := x1 - x0 + 1
	c := &im.shape
	if cap(c.in) < n {
		// No span is wider than the image: sized to its width, the scratch
		// grows once per width the image reaches, not once per wider shape.
		w := im.W
		c.in, c.du = make([]float64, w), make([]float64, w)
		c.val = [2][]float32{make([]float32, w), make([]float32, w)}
	}
	return span{
		x0: x0, y0: y0, y1: y1,
		shapeCols: shapeCols{c.in[:n], c.du[:n], [2][]float32{c.val[0][:n], c.val[1][:n]}},
	}, true
}

// texture resolves tex over the span's columns. Column x = s.x0+i sits at
// u = (x + 0.5 − ux0)/udiv in the box; the texture scales u by the box width
// wPx.
func (s *span) texture(tex Texture, base float32, periodPx, ux0, udiv, wPx float64) {
	s.tex, s.base, s.period = tex, base, math.Max(periodPx, 1)
	u := func(i int) float64 { return (float64(s.x0+i) + 0.5 - ux0) / udiv }
	even, odd := s.val[0], s.val[1]
	switch tex {
	case TextureGradient:
		for i := range even {
			even[i] = base * float32(0.6+float64(0.4*u(i)))
		}
	case TextureStripes:
		for i := range even {
			even[i] = base
			if int(math.Floor(u(i)*wPx/s.period))%2 != 0 {
				even[i] = base * 0.45
			}
		}
	case TextureChecker:
		// (pu + pv) % 2 == 0 exactly when pu and pv have the same parity.
		for i := range even {
			even[i], odd[i] = base, base*0.4
			if int(math.Floor(u(i)*wPx/s.period))&1 != 0 {
				even[i], odd[i] = odd[i], even[i]
			}
		}
	case TextureDots:
		for i := range s.du {
			s.du[i] = math.Mod(u(i)*wPx, s.period)/s.period - 0.5
		}
	default: // solid, and an unknown texture
		for i := range even {
			even[i] = base
		}
	}
}

// row draws row y of the span: column i is inside the shape unless
// in[i] + ty > 1. The row sits at v in the box; the texture scales v by the
// box height hPx.
func (s *span) row(im *Image, y int, ty, v, hPx float64) {
	row := im.Pix[y*im.W+s.x0:][:len(s.in)]
	if s.tex == TextureDots {
		dv := math.Mod(v*hPx, s.period)/s.period - 0.5
		for i, t := range s.in {
			if t+ty > 1 {
				continue
			}
			row[i] = s.base
			if math.Hypot(s.du[i], dv) < 0.3 {
				row[i] = s.base * 0.35
			}
		}
		return
	}
	val := s.val[0]
	if s.tex == TextureChecker {
		val = s.val[int(math.Floor(v*hPx/s.period))&1]
	}
	for i, t := range s.in {
		if t+ty > 1 {
			continue
		}
		row[i] = val[i]
	}
}

// DrawEllipse renders a filled textured ellipse inscribed in the box
// (x0,y0)-(x1,y1) (half-open, native-resolution pixel coordinates).
func (im *Image) DrawEllipse(x0, y0, x1, y1 float64, tex Texture, base float32, periodPx float64) {
	// A halving compiles to a product by 0.5, which the centre's uses below
	// would otherwise fuse with.
	cx, cy := float64((x0+x1)/2), float64((y0+y1)/2)
	rx, ry := (x1-x0)/2, (y1-y0)/2
	if rx <= 0 || ry <= 0 {
		return
	}
	s, ok := im.span(math.Floor(x0), math.Ceil(x1), math.Floor(y0), math.Ceil(y1))
	if !ok {
		return
	}
	for i := range s.in {
		dx := (float64(s.x0+i) + 0.5 - cx) / rx
		s.in[i] = float64(dx * dx)
	}
	s.texture(tex, base, periodPx, x0, x1-x0, x1-x0)
	for y := s.y0; y <= s.y1; y++ {
		dy := (float64(y) + 0.5 - cy) / ry
		s.row(im, y, float64(dy*dy), (float64(y)+0.5-y0)/(y1-y0), y1-y0)
	}
}

// DrawRect renders a filled textured axis-aligned rectangle.
func (im *Image) DrawRect(x0, y0, x1, y1 float64, tex Texture, base float32, periodPx float64) {
	s, ok := im.span(math.Floor(x0), math.Ceil(x1)-1, math.Floor(y0), math.Ceil(y1)-1)
	if !ok {
		return
	}
	udiv, vdiv := math.Max(x1-x0, 1e-9), math.Max(y1-y0, 1e-9)
	for i := range s.in {
		s.in[i] = 0
		if u := (float64(s.x0+i) + 0.5 - x0) / udiv; u < 0 || u >= 1 {
			s.in[i] = math.Inf(1)
		}
	}
	s.texture(tex, base, periodPx, x0, udiv, x1-x0)
	for y := s.y0; y <= s.y1; y++ {
		if v := (float64(y) + 0.5 - y0) / vdiv; !(v < 0 || v >= 1) {
			s.row(im, y, 0, v, y1-y0)
		}
	}
}
