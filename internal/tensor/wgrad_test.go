package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ConvWeightGradInto is only allowed to be faster than the product it is
// defined as: Im2Col, then MatMulABTInto. These tests hold both of its paths
// — the AVX2 kernel and the portable lowering — to that product bit for bit.

// wgradValues fills n values: mostly normals, and a share special/256 of ±0,
// subnormals, ±Inf (so Inf·0 and Inf−Inf make NaNs mid-chain) and values
// whose products overflow. No NaN inputs: which NaN payload survives a NaN
// meeting a NaN is operand order, not arithmetic (FuzzMatMulABT).
func wgradValues(rng *rand.Rand, n int, special uint8) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38,
	}
	v := make([]float32, n)
	for i := range v {
		if uint8(rng.Intn(256)) < special {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

// checkConvWeightGrad draws x and dy at one geometry and requires
// ConvWeightGradInto, with the AVX2 kernel off and (where the CPU has it) on,
// to give Im2Col + MatMulABTInto's bits in a garbage-filled destination. It
// returns false when the geometry has no output shape.
func checkConvWeightGrad(t *testing.T, rng *rand.Rand, cin, h, w, outC, kernel, stride, pad int, special uint8) bool {
	t.Helper()
	ho, wo := ConvOutSize(h, kernel, stride, pad), ConvOutSize(w, kernel, stride, pad)
	if ho < 0 || wo < 0 {
		return false
	}
	x := FromSlice(wgradValues(rng, cin*h*w, special), cin, h, w)
	dy := FromSlice(wgradValues(rng, outC*ho*wo, special), outC, ho, wo)
	rows := cin * kernel * kernel
	want := New(outC, rows)
	MatMulABTInto(want, dy.Reshape(outC, ho*wo), Im2Col(x, kernel, stride, pad))
	eachConvKernel(t, func(k string) {
		got := New(outC, rows)
		got.Fill(float32(math.NaN()))
		ConvWeightGradInto(got, dy, x, kernel, stride, pad)
		bitsEqual(t, fmt.Sprintf("ConvWeightGradInto cin=%d h=%d w=%d outC=%d k=%d s=%d pad=%d (%s)",
			cin, h, w, outC, kernel, stride, pad, k), got, want)
	})
	return true
}

// TestConvWeightGradBitIdentical covers the regressor's branches at the
// feature-map sizes of scale 600 and 128 (16 channels, 8 or 16 outputs, same
// padding) and then a random sweep that reaches every edge of the vector
// path: row counts that are not a multiple of eight, one-position maps,
// padding wider than the input, and the fallbacks (stride 2, OutC not a
// multiple of 8).
func TestConvWeightGradBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, outC := range []int{8, 16} {
		for _, k := range []int{1, 3, 5} {
			for _, hw := range [][2]int{{19, 34}, {4, 8}} {
				checkConvWeightGrad(t, rng, 16, hw[0], hw[1], outC, k, 1, k/2, 16)
			}
		}
	}
	vector := 0
	for i := 0; i < 300; i++ {
		k := []int{1, 3, 5}[rng.Intn(3)]
		outC := []int{8, 16, 1 + rng.Intn(12)}[rng.Intn(3)]
		stride := 1 + rng.Intn(4)/3 // one draw in four is stride 2
		pad := rng.Intn(k + 1)
		cin, h, w := 1+rng.Intn(5), 1+rng.Intn(9), 1+rng.Intn(20)
		if checkConvWeightGrad(t, rng, cin, h, w, outC, k, stride, pad, uint8(rng.Intn(64))) &&
			outC%8 == 0 && stride == 1 && ConvOutSize(h, k, 1, pad) > 0 && ConvOutSize(w, k, 1, pad) > 0 {
			vector++
		}
	}
	if vector < 100 {
		t.Errorf("only %d of 300 geometries take the vector path's shape", vector)
	}
}

// FuzzConvWeightGrad holds the same oracle over fuzzer-chosen geometry and
// values: K ∈ {1, 3, 5}, padding 0 or "same", OutC 8, 16 or a non-multiple
// of 8 (the fallback), stride 1 or 2, and a share special/256 of ±0,
// subnormal, infinite and overflowing values.
func FuzzConvWeightGrad(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(19), uint8(34), uint8(0), uint8(1), true, false, uint8(0)) // the 3×3 branch at 600
	f.Add(int64(2), uint8(16), uint8(4), uint8(8), uint8(1), uint8(0), true, false, uint8(40))  // the 1×1 branch at 128, 16 outputs
	f.Add(int64(3), uint8(3), uint8(7), uint8(5), uint8(2), uint8(2), false, true, uint8(255))  // fallback: 5×5, unpadded, stride 2
	f.Add(int64(4), uint8(5), uint8(1), uint8(1), uint8(0), uint8(2), true, false, uint8(128))  // one position, padding wider than the input
	f.Fuzz(func(t *testing.T, seed int64, cin, h, w, outSel, kSel uint8, same, stride2 bool, special uint8) {
		k := []int{1, 3, 5}[int(kSel)%3]
		outC := 8
		switch outSel % 3 {
		case 1:
			outC = 16
		case 2:
			if outC = 1 + int(outSel/3)%23; outC%8 == 0 {
				outC++
			}
		}
		pad, stride := 0, 1
		if same {
			pad = k / 2
		}
		if stride2 {
			stride = 2
		}
		checkConvWeightGrad(t, rand.New(rand.NewSource(seed)),
			1+int(cin)%20, 1+int(h)%24, 1+int(w)%40, outC, k, stride, pad, special)
	})
}
