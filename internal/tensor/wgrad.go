package tensor

import (
	"fmt"
	"sync"
)

// The weight gradient of a convolution, dW = dy·Im2Col(x)ᵀ: the one product
// the scale regressor's training step is made of. Its defining lowering is
// the oracle and the portable path — Im2ColInto, then MatMulABTInto's four
// dot products at a time — and on amd64 with AVX2 a stride-1 layer whose
// output channels fill whole YMM registers takes wgradAVX2 instead, which
// reads the input where it lies (zero-padded once) and keeps no lowered copy.
//
// The vector kernel makes the output channels the lanes. dy is transposed to
// position-major blocks of eight channels, dyT[b][p][l] = dy[8b+l][p], and
// weight row r = (ci·K+ky)·K+kx of the lowered matrix is the padded input
// seen through a fixed offset, cols[r][p] = xpad[ci][oy+ky][ox+kx] =
// xpad[off(r) + oy·Wp + ox]. For eight rows at a time the kernel walks p in
// ascending order: one load of dyT[b][p], then per row one broadcast of its
// input value, a VMULPS and a VADDPS into that row's accumulator.
//
// Bit-identity (DESIGN.md §4g): element dW[co][r] is, in both paths, the
// chain s = +0; s += dy[co][p]·cols[r][p] for p = 0, 1, …, n−1, each product
// rounded before the add — MatMulABTInto's tile keeps each element's chain
// apart, and the kernel's lane l of row j's accumulator is exactly that
// chain for co = 8b+l. A padded position reads +0 from xpad as it reads +0
// from the zero-padded cols, and an input −0 is copied as −0 by both. Rows
// past the last multiple of eight repeat the last row's offset and are
// computed and discarded. So every weight the regressor trains is the same
// float32, on every path; only a NaN meeting a NaN may keep a different
// payload (which one survives is operand order, see FuzzMatMulABT).

// wgradScratch is one call's working storage, recycled through wgradPool:
// the vector path's transposed dy, padded input and row offsets, and the
// portable path's tensor headers and lowered input.
type wgradScratch struct {
	dyT, xpad, cols []float32
	offs            []int
	dyHdr, colsHdr  Tensor
}

var wgradPool = sync.Pool{New: func() any { return new(wgradScratch) }}

// ConvWeightGradInto computes the weight gradient of a convolution of the
// Cin×H×W input x with K×K kernels, given dy, the OutC×Ho×Wo gradient of its
// output: dw, OutC×(Cin·K·K) and fully overwritten, becomes
// MatMulABT(dy as OutC×(Ho·Wo), Im2Col(x, kernel, stride, pad)) to the bit.
func ConvWeightGradInto(dw, dy, x *Tensor, kernel, stride, pad int) {
	if x.Dims() != 3 || dy.Dims() != 3 || dw.Dims() != 2 ||
		dy.Dim(1) != ConvOutSize(x.Dim(1), kernel, stride, pad) ||
		dy.Dim(2) != ConvOutSize(x.Dim(2), kernel, stride, pad) ||
		dw.Dim(0) != dy.Dim(0) || dw.Dim(1) != x.Dim(0)*kernel*kernel {
		panic(fmt.Sprintf("tensor: ConvWeightGradInto wants x C×H×W, dy O×Ho×Wo and dw O×(C·K·K) for kernel %d stride %d pad %d; got %v, %v, %v",
			kernel, stride, pad, x.shape, dy.shape, dw.shape))
	}
	cin, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	outC, ho, wo := dy.Dim(0), dy.Dim(1), dy.Dim(2)
	rows, n := cin*kernel*kernel, ho*wo
	s := wgradPool.Get().(*wgradScratch)
	if useAVX2 && outC%8 == 0 && stride == 1 && n > 0 {
		s.vector(dw.data, dy.data, x.data, cin, h, w, outC, kernel, pad, ho, wo)
	} else {
		dym := FromSliceInto(&s.dyHdr, dy.data, outC, n)
		cols := &s.colsHdr
		if kernel == 1 && stride == 1 && pad == 0 {
			FromSliceInto(cols, x.data, rows, n) // the lowering of a 1×1 kernel is its input
		} else {
			s.cols = grow(s.cols, rows*n)
			Im2ColInto(FromSliceInto(cols, s.cols, rows, n), x, kernel, stride, pad)
		}
		MatMulABTInto(dw, dym, cols)
		s.dyHdr.data, s.colsHdr.data = nil, nil // pin no caller storage in the pool
	}
	wgradPool.Put(s)
}

// vector is ConvWeightGradInto's AVX2 path: stride 1, outC a multiple of 8,
// at least one position.
func (s *wgradScratch) vector(dw, dy, x []float32, cin, h, w, outC, kernel, pad, ho, wo int) {
	n, rows := ho*wo, cin*kernel*kernel
	hp, wp := h+2*pad, w+2*pad
	xp := x
	if pad > 0 {
		s.xpad = grow(s.xpad, cin*hp*wp)
		xp = s.xpad
		clear(xp)
		for ci := 0; ci < cin; ci++ {
			for iy := 0; iy < h; iy++ {
				copy(xp[(ci*hp+iy+pad)*wp+pad:][:w], x[(ci*h+iy)*w:][:w])
			}
		}
	}

	groups := (rows + 7) / 8
	s.offs = grow(s.offs, groups*8)
	offs := s.offs
	for ci := 0; ci < cin; ci++ {
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				offs[(ci*kernel+ky)*kernel+kx] = (ci*hp+ky)*wp + kx
			}
		}
	}
	for r := rows; r < len(offs); r++ {
		offs[r] = offs[rows-1]
	}

	s.dyT = grow(s.dyT, outC*n)
	dyT := s.dyT
	for b := 0; b < outC/8; b++ {
		d := dy[b*8*n : (b+1)*8*n]
		d0, d1, d2, d3 := d[:n], d[n:2*n], d[2*n:3*n], d[3*n:4*n]
		d4, d5, d6, d7 := d[4*n:5*n], d[5*n:6*n], d[6*n:7*n], d[7*n:]
		t := dyT[b*8*n : (b+1)*8*n]
		for p := range d0 {
			q := t[p*8 : p*8+8 : p*8+8]
			q[0], q[1], q[2], q[3] = d0[p], d1[p], d2[p], d3[p]
			q[4], q[5], q[6], q[7] = d4[p], d5[p], d6[p], d7[p]
		}
	}

	var acc [64]float32
	for b := 0; b < outC/8; b++ {
		for g := 0; g < groups; g++ {
			wgradAVX2(&acc[0], &dyT[b*n*8], &xp[0], &offs[g*8], ho, wo, wp)
			for l := 0; l < 8; l++ {
				row := dw[(b*8+l)*rows+g*8:][:min(8, rows-g*8)]
				for j := range row {
					row[j] = acc[j*8+l]
				}
			}
		}
	}
}

// grow returns buf resliced to n elements, reallocated if it is too short;
// the contents are stale.
func grow[T float32 | int | bool](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
