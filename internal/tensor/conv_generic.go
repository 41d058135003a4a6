//go:build !amd64

package tensor

// No vector kernels on this architecture: (*convPlan).run keeps to the Go
// tile, deinterleave to its scalar loops, ConvWeightGradInto to im2col and
// MatMulABTInto, and none calls its stub.
var useAVX2 = false

func convRowAVX2(out, band *float32, taps *tap, ntaps, n int, bias float32, mask uint32) {
	panic("tensor: convRowAVX2 called without AVX2")
}

func convRow2AVX2(out0, out1, band *float32, taps *tap, ntaps, n int, bias0, bias1 float32, mask uint32) {
	panic("tensor: convRow2AVX2 called without AVX2")
}

func deinterleave2AVX2(ev, od, src *float32, n int) {
	panic("tensor: deinterleave2AVX2 called without AVX2")
}

func wgradAVX2(acc, dyT, x *float32, offs *int, ho, wo, wp int) {
	panic("tensor: wgradAVX2 called without AVX2")
}
