//go:build amd64

package tensor

import "os"

// useAVX2 reports whether this CPU and OS run the AVX2 kernels; read once at
// init. When false (*convPlan).run keeps to the Go tile and
// ConvWeightGradInto to im2col + MatMulABTInto. GODEBUG=cpu.avx2=off (or
// cpu.all=off), which makes the Go runtime treat the CPU as one without
// AVX2, turns them off too, so a whole program can be replayed on the
// portable kernels. Tests toggle it to exercise both paths on one machine.
var useAVX2 = cpuHasAVX2() && !avx2Off(os.Getenv("GODEBUG"))

// avx2Off reports whether a GODEBUG value turns AVX2 off as the runtime
// reads it: cpu.avx2=off or cpu.all=off among its comma-separated settings.
// The runtime accepts no "on" for a CPU feature, nor does this.
func avx2Off(godebug string) bool {
	for start, i := 0, 0; i <= len(godebug); i++ {
		if i == len(godebug) || godebug[i] == ',' {
			if kv := godebug[start:i]; kv == "cpu.avx2=off" || kv == "cpu.all=off" {
				return true
			}
			start = i + 1
		}
	}
	return false
}

// cpuHasAVX2 reports CPUID AVX2 with OS-enabled YMM state.
func cpuHasAVX2() bool

// convRowAVX2 computes n ≥ convTile columns of one band's run for one output
// channel: out[ox] = Σ taps[t].w·band[taps[t].off+ox] + bias, the sum taken
// from +0 in ascending t with a separately rounded multiply and add, exactly
// as the Go tile does, its bits ANDed with mask before the store. ntaps must
// be ≥ 1; every band[off+ox], ox < n, must be in bounds.
//
//go:noescape
func convRowAVX2(out, band *float32, taps *tap, ntaps, n int, bias float32, mask uint32)

// convRow2AVX2 is convRowAVX2 for channels c and c+1 at once, n ≥ 32:
// taps[t].w is c's weight and taps[t].w1 is c+1's, out0 and out1 their runs.
//
//go:noescape
func convRow2AVX2(out0, out1, band *float32, taps *tap, ntaps, n int, bias0, bias1 float32, mask uint32)

// deinterleave2AVX2 is ev[j] = src[2j] and od[j] = src[2j+1], j < n, for n a
// multiple of 8 with all 2n source floats in bounds.
//
//go:noescape
func deinterleave2AVX2(ev, od, src *float32, n int)

// wgradAVX2 computes eight rows of eight output channels of a stride-1
// weight gradient into acc (row-major, 8×8): acc[j·8+l] = Σ_p dyT[p·8+l] ·
// x[offs[j] + oy·wp + ox] for p = oy·wo+ox ascending, from +0, a separately
// rounded multiply and add per term, exactly as MatMulABTInto sums
// dy·Im2Col(x)ᵀ. ho, wo ≥ 1; offs has eight entries and every x index
// reached must be in bounds.
//
//go:noescape
func wgradAVX2(acc, dyT, x *float32, offs *int, ho, wo, wp int)
