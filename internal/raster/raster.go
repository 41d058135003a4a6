// Package raster provides grayscale float32 images plus the operations the
// AdaScale pipeline needs: bilinear resize following the Fast R-CNN
// protocol (shortest side = scale, longest side capped), primitive drawing
// with per-class texture patterns for the synthetic video renderer, additive
// noise, and box blur used to model motion blur and camera-focus failure.
package raster

import (
	"fmt"
	"math"
	"math/rand"
)

// Image is a grayscale image with float32 pixels, nominally in [0, 1],
// stored row-major.
type Image struct {
	W, H int
	Pix  []float32
}

// New returns a zero (black) image of the given size.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("raster: negative image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, w*h)}
}

// Reuse is New into caller-owned storage: it resizes buf to a zero (black)
// w×h image, keeping its pixel storage when the capacity suffices, and
// returns it. A nil buf allocates as New does.
func Reuse(buf *Image, w, h int) *Image {
	if buf == nil {
		return New(w, h)
	}
	if w < 0 || h < 0 || cap(buf.Pix) < w*h {
		*buf = *New(w, h)
		return buf
	}
	buf.W, buf.H, buf.Pix = w, h, buf.Pix[:w*h]
	clear(buf.Pix)
	return buf
}

// At returns the pixel at (x, y); out-of-bounds reads return 0.
func (im *Image) At(x, y int) float32 {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return 0
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v float32) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Fill sets every pixel to v.
func (im *Image) Fill(v float32) {
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	c := New(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// Mean returns the average pixel value; 0 for empty images.
func (im *Image) Mean() float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	var s float64
	for _, v := range im.Pix {
		s += float64(v)
	}
	return s / float64(len(im.Pix))
}

// Shortest returns the length of the shorter image side — the paper's
// definition of "scale".
func (im *Image) Shortest() int {
	if im.W < im.H {
		return im.W
	}
	return im.H
}

// Longest returns the length of the longer image side.
func (im *Image) Longest() int {
	if im.W > im.H {
		return im.W
	}
	return im.H
}

// ResizeBilinear resizes to exactly newW×newH with bilinear sampling.
func (im *Image) ResizeBilinear(newW, newH int) *Image {
	out := New(newW, newH)
	if newW == 0 || newH == 0 || im.W == 0 || im.H == 0 {
		return out
	}
	sx := float64(im.W) / float64(newW)
	sy := float64(im.H) / float64(newH)
	for y := 0; y < newH; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(math.Floor(fy))
		wy := float32(fy - float64(y0))
		y1 := y0 + 1
		y0 = clampInt(y0, 0, im.H-1)
		y1 = clampInt(y1, 0, im.H-1)
		for x := 0; x < newW; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(math.Floor(fx))
			wx := float32(fx - float64(x0))
			x1 := x0 + 1
			x0 = clampInt(x0, 0, im.W-1)
			x1 = clampInt(x1, 0, im.W-1)
			top := im.Pix[y0*im.W+x0]*(1-wx) + im.Pix[y0*im.W+x1]*wx
			bot := im.Pix[y1*im.W+x0]*(1-wx) + im.Pix[y1*im.W+x1]*wx
			out.Pix[y*newW+x] = top*(1-wy) + bot*wy
		}
	}
	return out
}

// ScaleFactor returns the resize factor that maps an image of size w×h to a
// target shortest-side scale with the longest side capped at maxLong (the
// Fast R-CNN protocol the paper follows; the paper uses maxLong = 2000).
func ScaleFactor(w, h, scale, maxLong int) float64 {
	short, long := w, h
	if short > long {
		short, long = long, short
	}
	if short == 0 {
		return 1
	}
	f := float64(scale) / float64(short)
	if maxLong > 0 && float64(long)*f > float64(maxLong) {
		f = float64(maxLong) / float64(long)
	}
	return f
}

// ResizeToScale resizes so the shortest side equals scale, capping the
// longest side at maxLong per the Fast R-CNN protocol.
func (im *Image) ResizeToScale(scale, maxLong int) *Image {
	f := ScaleFactor(im.W, im.H, scale, maxLong)
	nw := int(math.Round(float64(im.W) * f))
	nh := int(math.Round(float64(im.H) * f))
	if nw < 1 {
		nw = 1
	}
	if nh < 1 {
		nh = 1
	}
	return im.ResizeBilinear(nw, nh)
}

// AddNoise adds zero-mean Gaussian noise with the given sigma.
func (im *Image) AddNoise(rng *rand.Rand, sigma float64) {
	for i := range im.Pix {
		im.Pix[i] += float32(rng.NormFloat64() * sigma)
	}
}

// Clamp limits every pixel to [0, 1].
func (im *Image) Clamp() {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
}

// BoxBlur applies a separable box blur of the given radius; radius 0 is a
// no-op. Used to model motion blur and de-focus.
func (im *Image) BoxBlur(radius int) *Image {
	out := im.Clone()
	out.BoxBlurInPlace(radius)
	return out
}

// BoxBlurInPlace is BoxBlur written back over im. Each pass blurs one row or
// column at a time from a copy of it, so the scratch is one line, not an
// image, and the sums — hence the pixels — are BoxBlur's exactly.
func (im *Image) BoxBlurInPlace(radius int) {
	if radius <= 0 {
		return
	}
	n := float32(2*radius + 1)
	line := make([]float32, max(im.W, im.H))
	// Horizontal pass with running sum.
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*im.W : (y+1)*im.W]
		src := line[:im.W]
		copy(src, row)
		var sum float32
		for x := -radius; x <= radius; x++ {
			sum += src[clampInt(x, 0, im.W-1)]
		}
		for x := 0; x < im.W; x++ {
			row[x] = sum / n
			sum -= src[clampInt(x-radius, 0, im.W-1)]
			sum += src[clampInt(x+radius+1, 0, im.W-1)]
		}
	}
	// Vertical pass.
	for x := 0; x < im.W; x++ {
		src := line[:im.H]
		for y := range src {
			src[y] = im.Pix[y*im.W+x]
		}
		var sum float32
		for y := -radius; y <= radius; y++ {
			sum += src[clampInt(y, 0, im.H-1)]
		}
		for y := 0; y < im.H; y++ {
			im.Pix[y*im.W+x] = sum / n
			sum -= src[clampInt(y-radius, 0, im.H-1)]
			sum += src[clampInt(y+radius+1, 0, im.H-1)]
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
