//go:build !amd64

package tensor

// No vector kernels on this architecture: (*convPlan).run keeps to the Go
// tile, gatherRow to its scalar loop, ConvWeightGradInto to im2col and
// MatMulABTInto, and none calls its stub.
var useAVX2 = false

func convRowAVX2(out, band *float32, taps *tap, ntaps, n int, bias float32, mask uint32) {
	panic("tensor: convRowAVX2 called without AVX2")
}

func gather2AVX2(dst, src *float32, n int) {
	panic("tensor: gather2AVX2 called without AVX2")
}

func wgradAVX2(acc, dyT, x *float32, offs *int, ho, wo, wp int) {
	panic("tensor: wgradAVX2 called without AVX2")
}
