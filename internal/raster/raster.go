// Package raster provides grayscale float32 images plus the operations the
// AdaScale pipeline needs: the Fast R-CNN scale factor (shortest side =
// scale, longest side capped) at which frames are rendered directly,
// primitive drawing with per-class texture patterns for the synthetic video
// renderer, additive noise, and box blur used to model motion blur and
// camera-focus failure.
package raster

import (
	"fmt"

	"adascale/internal/rng"
)

// Image is a grayscale image with float32 pixels, nominally in [0, 1],
// stored row-major.
type Image struct {
	W, H int
	Pix  []float32

	blur  []float32 // BoxBlurInPlace's few lines of scratch, kept for the next call
	shape shapeCols // DrawEllipse's and DrawRect's per-column scratch, kept for the next shape
}

// New returns a zero (black) image of the given size.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("raster: negative image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, w*h)}
}

// Reuse is New into caller-owned storage, for a caller about to write every
// pixel: it resizes buf to w×h, keeping its pixel storage when the capacity
// suffices, and returns it. The pixels are whatever the storage held —
// overwrite them. A nil buf allocates as New does.
func Reuse(buf *Image, w, h int) *Image {
	if buf == nil {
		return New(w, h)
	}
	if w < 0 || h < 0 || cap(buf.Pix) < w*h {
		*buf = *New(w, h)
		return buf
	}
	buf.W, buf.H, buf.Pix = w, h, buf.Pix[:w*h]
	return buf
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

// noiseChunk is how many normals AddNoise draws at a time: a block long
// enough to amortise the call, short enough (1 KB) to sit on the stack.
const noiseChunk = 128

// AddNoise adds zero-mean Gaussian noise with the given sigma, drawn from r
// one normal per pixel in pixel order, and limits every pixel to [0, 1] in the
// same pass. A NaN pixel stays NaN.
func (im *Image) AddNoise(r *rng.Rand, sigma float64) {
	var z [noiseChunk]float64
	for pix := im.Pix; len(pix) > 0; {
		zs := z[:min(len(pix), noiseChunk)]
		r.NormFloat64s(zs)
		chunk := pix[:len(zs)]
		for i, x := range zs {
			v := chunk[i] + float32(x*sigma)
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			chunk[i] = v
		}
		pix = pix[len(zs):]
	}
}

// blurRows is how many rows the horizontal pass runs at once: a running sum
// is a chain of dependent adds, and four independent chains overlap them.
const blurRows = 4

// BoxBlurInPlace applies a separable box blur of the given radius over im;
// radius 0 is a no-op. Used to model motion blur and de-focus. It is a
// horizontal running-sum pass, then a vertical one, both clamping reads at
// the image edge. Every pixel of either pass receives the chain `sum -=
// leaving; sum += entering; sum/n` of the textbook column-by-column form,
// from the same start and in the same order, so the pixels are that form's
// exactly; what differs is that both passes walk memory row-wise and that
// the scratch is a few lines, not an image.
func (im *Image) BoxBlurInPlace(radius int) {
	w, h := im.W, im.H
	if radius <= 0 || w == 0 || h == 0 {
		return
	}
	n := float32(2*radius + 1)
	// Horizontal scratch: blurRows edge-padded line copies, pad[radius+x] =
	// row[clamp(x)] for x in [-radius, w+radius]. Vertical scratch: one sum
	// per column and a ring of saved original rows.
	padLen := w + 2*radius + 1
	ring := min(radius+1, h)
	need := max(blurRows*padLen, (ring+1)*w)
	if cap(im.blur) < need {
		im.blur = make([]float32, need)
	}
	scratch := im.blur[:need]

	var pads [blurRows][]float32
	for i := range pads {
		pads[i] = scratch[i*padLen:][:padLen]
	}
	for y := 0; y < h; y += blurRows {
		rows := min(blurRows, h-y)
		for i := 0; i < rows; i++ {
			row, pad := im.Pix[(y+i)*w:][:w], pads[i]
			for x := 0; x < radius; x++ {
				pad[x] = row[0]
			}
			copy(pad[radius:], row)
			for x := radius + w; x < padLen; x++ {
				pad[x] = row[w-1]
			}
		}
		if rows < blurRows {
			for i := 0; i < rows; i++ {
				blurLine(im.Pix[(y+i)*w:][:w], pads[i], radius, n)
			}
			continue
		}
		p0, p1, p2, p3 := pads[0], pads[1], pads[2], pads[3]
		var s0, s1, s2, s3 float32
		for x := 0; x <= 2*radius; x++ {
			s0 += p0[x]
			s1 += p1[x]
			s2 += p2[x]
			s3 += p3[x]
		}
		// Leaving and entering pixels of output x, all slices w long.
		r0, r1, r2, r3 := im.Pix[y*w:][:w], im.Pix[(y+1)*w:][:w], im.Pix[(y+2)*w:][:w], im.Pix[(y+3)*w:][:w]
		out0, out1, out2, out3 := p0[:w], p1[:w], p2[:w], p3[:w]
		in0, in1, in2, in3 := p0[2*radius+1:][:w], p1[2*radius+1:][:w], p2[2*radius+1:][:w], p3[2*radius+1:][:w]
		for x := 0; x < w; x++ {
			r0[x], r1[x], r2[x], r3[x] = s0/n, s1/n, s2/n, s3/n
			s0 -= out0[x]
			s1 -= out1[x]
			s2 -= out2[x]
			s3 -= out3[x]
			s0 += in0[x]
			s1 += in1[x]
			s2 += in2[x]
			s3 += in3[x]
		}
	}

	// Vertical pass. Row y's output overwrites an original the sums still
	// need radius rows later, so originals are saved in the ring first.
	sums, saved := scratch[:w], scratch[w:]
	clear(sums)
	for y := -radius; y <= radius; y++ {
		for x, v := range im.Pix[clampInt(y, 0, h-1)*w:][:w] {
			sums[x] += v
		}
	}
	for y := 0; y < h; y++ {
		row := im.Pix[y*w:][:w]
		copy(saved[y%ring*w:][:w], row)
		leaving := saved[max(y-radius, 0)%ring*w:][:w]
		// The entering row lies below y and is still original, except on the
		// last row, whose sums nobody reads.
		entering := im.Pix[min(y+radius+1, h-1)*w:][:w]
		for x := range row {
			row[x] = sums[x] / n
			sums[x] -= leaving[x]
			sums[x] += entering[x]
		}
	}
}

// blurLine is the horizontal pass over one row from its edge-padded copy.
func blurLine(row, pad []float32, radius int, n float32) {
	var sum float32
	for x := 0; x <= 2*radius; x++ {
		sum += pad[x]
	}
	out, in := pad[:len(row)], pad[2*radius+1:][:len(row)]
	for x := range row {
		row[x] = sum / n
		sum -= out[x]
		sum += in[x]
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
