package tensor

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the hot-path kernels, run informationally in CI via
// `make microbench`. Shapes are the backbone's real ones: three 3×3
// stride-2 pad-1 layers over a RenderDiv-4 render, so a scale-600 frame is
// 150×267 → 75×134 → 38×67 → 19×34 and a scale-128 frame 32×57 → 16×29 →
// 8×15 → 4×8; at scale 480 conv3 reads 30×54 and writes 15×27. The
// regressor's branches read the 16-channel feature map (19×34 at 600, 15×27
// at 480, near the mean scale Algorithm 1 serves).

// BenchmarkMatMulABT times dst = A·Bᵀ at the products the regressor's
// training step defines its weight gradient by: dW = dy·colsᵀ with dy 8
// channels × H·W positions and cols the lowered 16-channel feature map
// (19×34 at scale 600, 4×8 at 128) of the 3×3 and the 1×1 branch. Each
// shape's "-ConvWeightGrad" sibling times the entry point Conv2D.Backward
// calls, tensor.ConvWeightGradInto, from dy and the feature map itself: the
// AVX2 kernel where the CPU has it (the log says), else im2col (not for the
// 1×1 branch) and this same product.
func BenchmarkMatMulABT(b *testing.B) {
	for _, s := range []struct {
		name         string
		m, k, n      int
		h, w, kernel int
	}{
		{"dW3x3@600", 8, 646, 144, 19, 34, 3},
		{"dW1x1@600", 8, 646, 16, 19, 34, 1},
		{"dW3x3@128", 8, 32, 144, 4, 8, 3},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			x := randTensor(rng, s.m, s.k)
			y := randTensor(rng, s.n, s.k)
			dst := New(s.m, s.n)
			b.SetBytes(int64(s.m*s.k+s.n*s.k+s.m*s.n) * 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulABTInto(dst, x, y)
			}
		})
		b.Run(s.name+"-ConvWeightGrad", func(b *testing.B) {
			if b.N == 1 && s.name == "dW3x3@600" {
				b.Logf("AVX2 kernels: %v", useAVX2)
			}
			rng := rand.New(rand.NewSource(4))
			cin := s.n / (s.kernel * s.kernel)
			dy := randTensor(rng, s.m, s.h, s.w)
			x := randTensor(rng, cin, s.h, s.w)
			dst := New(s.m, s.n)
			b.SetBytes(int64(s.m*s.k+cin*s.k+s.m*s.n) * 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvWeightGradInto(dst, dy, x, s.kernel, 1, s.kernel/2)
			}
		})
	}
}

func BenchmarkIm2Col600(b *testing.B) { // conv2 @600
	rng := rand.New(rand.NewSource(2))
	x := randTensor(rng, 8, 75, 134)
	dst := New(8*9, 38*67)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(dst, x, 3, 2, 1)
	}
}

func benchConv(b *testing.B, cin, h, w, outC, kernel, stride, pad int) {
	rng := rand.New(rand.NewSource(3))
	x := randTensor(rng, cin, h, w)
	weight := randTensor(rng, outC, cin, kernel, kernel)
	bias := randTensor(rng, outC)
	ho := ConvOutSize(h, kernel, stride, pad)
	wo := ConvOutSize(w, kernel, stride, pad)
	dst := New(outC, ho, wo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvInto(dst, x, weight, bias, stride, pad)
	}
}

func BenchmarkConv(b *testing.B) {
	for _, s := range []struct {
		name                                 string
		cin, h, w, outC, kernel, stride, pad int
	}{
		{"conv1@600", 1, 150, 267, 8, 3, 2, 1},
		{"conv2@600", 8, 75, 134, 12, 3, 2, 1},
		{"conv3@600", 12, 38, 67, 12, 3, 2, 1},
		{"conv3@480", 12, 30, 54, 12, 3, 2, 1},
		{"conv1@128", 1, 32, 57, 8, 3, 2, 1},
		{"conv2@128", 8, 16, 29, 12, 3, 2, 1},
		{"conv3@128", 12, 8, 15, 12, 3, 2, 1},
		{"branch3x3@600", 16, 19, 34, 8, 3, 1, 1}, // regressor branches: stride 1, same-pad
		{"branch3x3@480", 16, 15, 27, 8, 3, 1, 1},
		{"branch1x1@600", 16, 19, 34, 8, 1, 1, 0},
	} {
		b.Run(s.name, func(b *testing.B) {
			if b.N == 1 && s.name == "conv1@600" {
				b.Logf("row kernel: %s", kernelName()) // once, so the log says what the table measured
			}
			benchConv(b, s.cin, s.h, s.w, s.outC, s.kernel, s.stride, s.pad)
		})
	}
}

func BenchmarkConvIm2ColPath(b *testing.B) {
	// The historical lowering of conv2@600, for the before/after comparison
	// in README.
	rng := rand.New(rand.NewSource(3))
	x := randTensor(rng, 8, 75, 134)
	weight := randTensor(rng, 12, 8, 3, 3)
	wm := weight.Reshape(12, 72)
	cols := New(72, 38*67)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(cols, x, 3, 2, 1)
		MatMul(wm, cols)
	}
}

func BenchmarkPoolGetPut(b *testing.B) {
	p := NewPool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.Get(1 << 16)
		p.Put(buf)
	}
}
