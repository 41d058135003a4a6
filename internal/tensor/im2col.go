package tensor

import "fmt"

// ConvOutSize returns the spatial output size of a convolution over an
// input of size in with the given kernel, stride and symmetric padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col lowers a C×H×W input into a (C·K·K)×(Ho·Wo) matrix so that a
// convolution with Cout filters becomes a single (Cout)×(C·K·K) by
// (C·K·K)×(Ho·Wo) matrix multiplication. Out-of-bounds taps contribute 0.
//
// The returned matrix is freshly allocated; use Im2ColInto to reuse a
// buffer in training loops.
func Im2Col(x *Tensor, kernel, stride, pad int) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	ho := ConvOutSize(h, kernel, stride, pad)
	wo := ConvOutSize(w, kernel, stride, pad)
	out := New(c*kernel*kernel, ho*wo)
	Im2ColInto(out, x, kernel, stride, pad)
	return out
}

// Im2ColInto performs Im2Col into dst, which must have shape
// (C·K·K)×(Ho·Wo). dst is fully overwritten.
func Im2ColInto(dst, x *Tensor, kernel, stride, pad int) {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires a C×H×W input, got %v", x.shape))
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	ho := ConvOutSize(h, kernel, stride, pad)
	wo := ConvOutSize(w, kernel, stride, pad)
	if dst.Dim(0) != c*kernel*kernel || dst.Dim(1) != ho*wo {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want [%d %d]", dst.shape, c*kernel*kernel, ho*wo))
	}
	xd, dd := x.data, dst.data
	cols := ho * wo
	// The in-bounds ox range for a given kx (ix = ox·stride − pad + kx in
	// [0, w)) does not depend on oy; precomputing it turns the interior of
	// each output row into a branch-free span — a straight copy when
	// stride is 1 — with zero fills only at the edges.
	ox0s := make([]int, kernel)
	ox1s := make([]int, kernel)
	for kx := 0; kx < kernel; kx++ {
		ox0 := 0
		if d := pad - kx; d > 0 {
			ox0 = (d + stride - 1) / stride
		}
		ox1 := 0
		if t := w - 1 + pad - kx; t >= 0 {
			ox1 = t/stride + 1
			if ox1 > wo {
				ox1 = wo
			}
		}
		if ox0 > ox1 {
			ox0 = ox1
		}
		ox0s[kx], ox1s[kx] = ox0, ox1
	}
	for ch := 0; ch < c; ch++ {
		plane := xd[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				row := dd[((ch*kernel+ky)*kernel+kx)*cols : ((ch*kernel+ky)*kernel+kx+1)*cols]
				ox0, ox1 := ox0s[kx], ox1s[kx]
				for oy := 0; oy < ho; oy++ {
					iy := oy*stride - pad + ky
					seg := row[oy*wo : oy*wo+wo]
					if iy < 0 || iy >= h {
						clear(seg)
						continue
					}
					clear(seg[:ox0])
					clear(seg[ox1:])
					if stride == 1 {
						copy(seg[ox0:ox1], plane[iy*w+ox0+kx-pad:iy*w+ox1+kx-pad])
					} else {
						base := iy*w + kx - pad
						for ox := ox0; ox < ox1; ox++ {
							seg[ox] = plane[base+ox*stride]
						}
					}
				}
			}
		}
	}
}

// Col2Im scatters a (C·K·K)×(Ho·Wo) column matrix back into a C×H×W
// tensor, accumulating overlapping taps. It is the adjoint of Im2Col and
// is used for convolution input gradients.
func Col2Im(cols *Tensor, c, h, w, kernel, stride, pad int) *Tensor {
	ho := ConvOutSize(h, kernel, stride, pad)
	wo := ConvOutSize(w, kernel, stride, pad)
	if cols.Dim(0) != c*kernel*kernel || cols.Dim(1) != ho*wo {
		panic(fmt.Sprintf("tensor: Col2Im cols shape %v, want [%d %d]", cols.shape, c*kernel*kernel, ho*wo))
	}
	out := New(c, h, w)
	cd, od := cols.data, out.data
	n := ho * wo
	for ch := 0; ch < c; ch++ {
		plane := od[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				row := cd[((ch*kernel+ky)*kernel+kx)*n : ((ch*kernel+ky)*kernel+kx+1)*n]
				idx := 0
				for oy := 0; oy < ho; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						idx += wo
						continue
					}
					base := iy * w
					for ox := 0; ox < wo; ox++ {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							plane[base+ix] += row[idx]
						}
						idx++
					}
				}
			}
		}
	}
	return out
}
