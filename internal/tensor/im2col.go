package tensor

import "fmt"

// ConvOutSize returns the spatial output size of a convolution over an
// input of size in with the given kernel, stride and symmetric padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// padSpan returns the range [j0, j1) within [0, n) of positions j whose
// strided, padded coordinate j·stride + off lands inside [0, w): the part of
// an im2col output row or a convolution band row that reads real input. The
// rest is zero padding.
func padSpan(w, n, stride, off int) (j0, j1 int) {
	if off < 0 {
		j0 = min((stride-1-off)/stride, n)
	}
	j1 = j0
	if t := w - 1 - off; t >= 0 {
		j1 = max(min(t/stride+1, n), j0)
	}
	return j0, j1
}

// gatherRow fills seg[j] with xrow[j·stride + off] for j in [j0, j1) — the
// padSpan of that geometry — and with zero padding elsewhere: a branch-free
// span, a straight copy when stride is 1, with zero fills only at the edges.
func gatherRow(seg, xrow []float32, j0, j1, stride, off int) {
	clear(seg[:j0])
	clear(seg[j1:])
	if j0 == j1 {
		return // all padding; j0·stride + off may lie outside xrow
	}
	if stride == 1 {
		copy(seg[j0:j1], xrow[j0+off:])
		return
	}
	ix := j0*stride + off
	for j := j0; j < j1; j++ {
		seg[j] = xrow[ix]
		ix += stride
	}
}

// Im2Col lowers a C×H×W input into a (C·K·K)×(Ho·Wo) matrix so that a
// convolution with Cout filters becomes a single (Cout)×(C·K·K) by
// (C·K·K)×(Ho·Wo) matrix multiplication. Out-of-bounds taps contribute 0.
//
// The returned matrix is freshly allocated; use Im2ColInto to reuse a
// buffer in training loops. The product MatMul(weights, Im2Col(x)) plus bias
// is the oracle ConvInto is held to, bit for bit.
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
	for ch := 0; ch < c; ch++ {
		plane := xd[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				row := dd[((ch*kernel+ky)*kernel+kx)*cols : ((ch*kernel+ky)*kernel+kx+1)*cols]
				// The in-bounds ox range of a kx does not depend on oy.
				ox0, ox1 := padSpan(w, wo, stride, kx-pad)
				for oy := 0; oy < ho; oy++ {
					iy := oy*stride - pad + ky
					seg := row[oy*wo : oy*wo+wo]
					if iy < 0 || iy >= h {
						clear(seg)
						continue
					}
					gatherRow(seg, plane[iy*w:][:w], ox0, ox1, stride, kx-pad)
				}
			}
		}
	}
}
