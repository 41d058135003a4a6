//go:build amd64

package tensor

// useAVX2 reports whether this CPU and OS run the AVX2 row kernel; read once
// at init. When false (*convPlan).run keeps to the Go tile. Tests toggle it
// to exercise both paths on one machine.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports CPUID AVX2 with OS-enabled YMM state.
func cpuHasAVX2() bool

// convRowAVX2 computes n ≥ convTile output columns of one output row of one
// channel: out[ox] = Σ taps[t].w·band[taps[t].off+ox] + bias, the sum taken
// from +0 in ascending t with a separately rounded multiply and add, exactly
// as the Go tile does. ntaps must be ≥ 1; every band[off+ox], ox < n, must
// be in bounds.
//
//go:noescape
func convRowAVX2(out, band *float32, taps *tap, ntaps, n int, bias float32)

// gather2AVX2 is the stride-2 gather dst[j] = src[2j], j < n, for n a multiple
// of 8 with all 2n source floats in bounds.
//
//go:noescape
func gather2AVX2(dst, src *float32, n int)
