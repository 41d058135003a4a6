//go:build !amd64

package tensor

// No vector row kernel on this architecture: (*convPlan).rows keeps to the
// Go tile and never calls the stub.
var useAVX2 = false

func convRowAVX2(out, band *float32, taps *tap, ntaps, n int, bias float32) {
	panic("tensor: convRowAVX2 called without AVX2")
}
