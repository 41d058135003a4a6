package tensor

import (
	"fmt"
	"sync"
)

// Band-tiled im2col-free convolution. The historical path lowers the input
// with Im2Col and multiplies by the reshaped weight matrix; that
// materialises a (C·K·K)×(Ho·Wo) matrix that is K·K times larger than the
// input and is read exactly once. ConvInto instead works one output row at
// a time from two small structures:
//
//   - a list of the *nonzero* weight taps per output channel — the
//     backbone's hand-designed filters are mostly exact zeros, so skipping
//     them (as the serial matmul kernel does via its a-value skip) is where
//     the flops go away;
//   - a row band: the Cin×K input rows output row oy reads, copied into a
//     scratch that is zero-padded on every side and split by column phase,
//     band[ci][ky][p][j] = xpad[ci][oy·s+ky][j·s+p]. Tap (ci,ky,kx) of
//     output column ox then reads band[((ci·K+ky)·P + kx mod s)·L + kx/s + ox]:
//     contiguous in ox, always in bounds, and at an offset that does not
//     depend on oy. Padding makes every element "interior", so stride 1 and
//     stride s, edge and middle, all take the same loop.
//
// Each output channel walks the row in tiles of convTile columns, holding
// the tile's accumulators in registers across the whole tap list and
// storing acc+bias once. A tile is one AVX2 register: on amd64 CPUs that
// have it, convRowAVX2 (conv_amd64.s) computes the row — per tap one
// broadcast weight, one VMULPS and one VADDPS per tile, four tiles in
// flight to hide the add latency. It is never an FMA: a fused multiply-add
// rounds once where `acc += w·x` rounds twice, and every golden pins the
// twice-rounded bits. The Go tile below is the same arithmetic lane by
// lane; it is the kernel on every other GOARCH and on amd64 without AVX2,
// and the oracle the tests hold the assembly to. A row's last tile ends at
// column wo: when wo is not a multiple of convTile it overlaps the tile
// before it and recomputes those columns to the same bits, so only rows
// narrower than one tile take a scalar loop. The band (≈13 KB for the
// backbone's conv2 at scale 600) is built once per output row and reused by
// every output channel while it sits in L1.
//
// Bit-identity with the im2col path (DESIGN.md §4g): for an output element
// (co, oy, ox), the im2col route accumulates wm[co][p]·cols[p][oyx] in
// ascending p = ((ci·K+ky)·K+kx) from +0, skipping zero weights, then adds
// the bias. ConvInto — Go tile and assembly alike — applies the same nonzero
// taps in the same order to an accumulator that starts at +0, and an
// out-of-bounds tap reads the band's zero padding exactly as it reads the
// zero-padded cols matrix, so each element receives the identical chain of
// float32 operations. A nil bias adds +0, the identity: a partial sum is
// never -0 (it starts at +0 and exact cancellation rounds to +0).
//
// The kernel is a straight serial loop over output rows: frames and snippets
// run in parallel (internal/parallel), a convolution never does, so its bits
// cannot depend on the worker count.

// convTile is the tile width: the eight float32 lanes of a YMM register,
// which the Go tile spells as eight scalar accumulators (they, the weight and
// the products fit amd64's 16 registers; a 16-wide Go tile spills and
// measured 20 % slower, EXPERIMENTS.md).
const convTile = 8

// tap is one nonzero weight of a convolution filter: off is where in the
// row band its reads for output column 0 start.
type tap struct {
	off int
	w   float32
}

// ConvInto computes a 2-D convolution of a Cin×H×W input with an
// OutC×Cin×K×K weight tensor and an OutC bias vector (nil for no bias) into
// a caller-owned OutC×Ho×Wo destination (typically pooled). dst is fully
// overwritten; it must not alias x. Results are bit-identical to
// MatMul(weight reshaped, Im2Col(x)) plus bias.
func ConvInto(dst, x, weight, bias *Tensor, stride, pad int) {
	if x.Dims() != 3 || weight.Dims() != 4 || dst.Dims() != 3 {
		panic(fmt.Sprintf("tensor: ConvInto requires x C×H×W, weight O×C×K×K, dst O×Ho×Wo; got %v, %v, %v", x.shape, weight.shape, dst.shape))
	}
	cin, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	outC, kernel := weight.Dim(0), weight.Dim(2)
	if weight.Dim(1) != cin || weight.Dim(3) != kernel {
		panic(fmt.Sprintf("tensor: ConvInto weight %v does not match input %v", weight.shape, x.shape))
	}
	ho := ConvOutSize(h, kernel, stride, pad)
	wo := ConvOutSize(w, kernel, stride, pad)
	if dst.Dim(0) != outC || dst.Dim(1) != ho || dst.Dim(2) != wo {
		panic(fmt.Sprintf("tensor: ConvInto dst %v, want [%d %d %d]", dst.shape, outC, ho, wo))
	}
	if bias != nil && bias.Size() != outC {
		panic(fmt.Sprintf("tensor: ConvInto bias %v, want length %d", bias.shape, outC))
	}
	if wo == 0 || ho == 0 || outC == 0 {
		return
	}

	// Only phases a tap can land on are built: kx mod s < min(s, K). A band
	// row holds the wo columns plus the (K−1)/s a tap's kx/s shifts by.
	phases := min(stride, kernel)
	rowLen := wo + (kernel-1)/stride

	// Nonzero taps per output channel, in ascending (ci, ky, kx) order —
	// the accumulation order the im2col route uses and the goldens pin.
	// The plan is rebuilt every call but its storage (tap list, counts and
	// row band) recycles through a pool, so a steady-state convolution
	// allocates nothing.
	wd := weight.data
	cv := convPlanPool.Get().(*convPlan)
	flat := cv.taps[:0]
	counts := cv.counts
	if cap(counts) < outC+1 {
		counts = make([]int, outC+1)
	}
	counts = counts[:outC+1]
	counts[0] = 0
	for co := 0; co < outC; co++ {
		base := co * cin * kernel * kernel
		for ci := 0; ci < cin; ci++ {
			for ky := 0; ky < kernel; ky++ {
				for kx := 0; kx < kernel; kx++ {
					if wv := wd[base+(ci*kernel+ky)*kernel+kx]; wv != 0 {
						off := ((ci*kernel+ky)*phases+kx%stride)*rowLen + kx/stride
						flat = append(flat, tap{off, wv})
					}
				}
			}
		}
		counts[co+1] = len(flat)
	}

	band := cv.band
	if n := cin * kernel * phases * rowLen; cap(band) < n {
		band = make([]float32, n)
	} else {
		band = band[:n]
	}
	*cv = convPlan{
		xd: x.data, dd: dst.data, bias: bias,
		cin: cin, h: h, w: w, kernel: kernel, stride: stride, pad: pad,
		ho: ho, wo: wo, phases: phases, rowLen: rowLen,
		taps: flat, counts: counts, band: band,
	}
	cv.run()
	// Drop the tensor references and recycle the plan's storage.
	cv.xd, cv.dd, cv.bias = nil, nil, nil
	convPlanPool.Put(cv)
}

// convPlanPool recycles convPlan structs and their slice storage across
// ConvInto calls; every field is rebuilt before use, and the band only ever
// grows to the largest row seen.
var convPlanPool = sync.Pool{New: func() any { return new(convPlan) }}

// convPlan is one call's geometry, tap list and row band.
type convPlan struct {
	xd, dd []float32
	bias   *Tensor
	cin    int
	h, w   int
	kernel int
	stride int
	pad    int
	ho, wo int
	phases int // column phases in the band: min(stride, kernel)
	rowLen int // band row length L: wo + (kernel−1)/stride
	taps   []tap
	counts []int // taps[counts[co]:counts[co+1]] belong to channel co
	band   []float32
}

// run computes every output row of every output channel.
func (cv *convPlan) run() {
	band := cv.band
	ho, wo := cv.ho, cv.wo
	for oy := 0; oy < ho; oy++ {
		cv.fillBand(band, oy)
		for co := range cv.counts[1:] {
			taps := cv.taps[cv.counts[co]:cv.counts[co+1]]
			var bv float32
			if cv.bias != nil {
				bv = cv.bias.data[co]
			}
			orow := cv.dd[(co*ho+oy)*wo:][:wo]
			if wo < convTile {
				for ox := range orow {
					var a float32
					for _, tp := range taps {
						a += tp.w * band[tp.off+ox]
					}
					orow[ox] = a + bv
				}
				continue
			}
			if useAVX2 && len(taps) > 0 {
				convRowAVX2(&orow[0], &band[0], &taps[0], len(taps), wo, bv)
				continue
			}
			for ox := 0; ox < wo; ox += convTile {
				ox := min(ox, wo-convTile) // the last tile ends at column wo
				var a0, a1, a2, a3, a4, a5, a6, a7 float32
				for _, tp := range taps {
					b := band[tp.off+ox : tp.off+ox+convTile : tp.off+ox+convTile]
					wv := tp.w
					a0 += wv * b[0]
					a1 += wv * b[1]
					a2 += wv * b[2]
					a3 += wv * b[3]
					a4 += wv * b[4]
					a5 += wv * b[5]
					a6 += wv * b[6]
					a7 += wv * b[7]
				}
				o := orow[ox : ox+convTile : ox+convTile]
				o[0], o[1], o[2], o[3] = a0+bv, a1+bv, a2+bv, a3+bv
				o[4], o[5], o[6], o[7] = a4+bv, a5+bv, a6+bv, a7+bv
			}
		}
	}
}

// fillBand builds output row oy's band: segment (ci, ky, p) holds padded
// input row oy·s+ky of channel ci at padded columns p, p+s, p+2s, …, with
// zeros wherever the padded coordinate falls outside the input.
func (cv *convPlan) fillBand(band []float32, oy int) {
	h, w, kernel, stride, pad, phases, rowLen := cv.h, cv.w, cv.kernel, cv.stride, cv.pad, cv.phases, cv.rowLen
	for p := 0; p < phases; p++ {
		// Band column j holds input column j·s + p − pad.
		j0, j1 := padSpan(w, rowLen, stride, p-pad)
		for ci := 0; ci < cv.cin; ci++ {
			for ky := 0; ky < kernel; ky++ {
				seg := band[((ci*kernel+ky)*phases+p)*rowLen:][:rowLen]
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					clear(seg)
					continue
				}
				gatherRow(seg, cv.xd[(ci*h+iy)*w:][:w], j0, j1, stride, p-pad)
			}
		}
	}
}
