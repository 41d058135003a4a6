package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Band-tiled im2col-free convolution. The historical path lowers the input
// with Im2Col and multiplies by the reshaped weight matrix; that
// materialises a (C·K·K)×(Ho·Wo) matrix that is K·K times larger than the
// input and is read exactly once. ConvInto instead works a band of R output
// rows at a time from two small structures:
//
//   - a list of the *nonzero* weight taps per output channel — the
//     backbone's hand-designed filters are mostly exact zeros, so skipping
//     them (as the serial matmul kernel does via its a-value skip) is where
//     the flops go away;
//   - a band: the input rows output rows oy0 … oy0+R−1 read, copied into a
//     scratch that is zero-padded on every side and split by row and column
//     phase. Phase plane (ci, py, px) holds padded input rows s·(oy0+j)+py,
//     j < R + (K−1−py)/s, sampled at padded columns s·c+px, each plane row
//     L = wo + (K−1)/s long. Tap (ci, ky, kx) of output (r, ox) then reads
//     plane (ci, ky mod s, kx mod s) at flat index (ky/s)·L + kx/s + r·L + ox:
//     a tap's offset does not depend on r, ox or oy0, and the band's outputs
//     are one run of (R−1)·L + wo columns, output (r, ox) at r·L + ox.
//     Padding makes every element "interior", so stride 1 and stride s, edge
//     and middle, all take the same loop.
//
// The last (K−1)/s columns of each band row but the last are computed and
// dropped: they read the next row's planes, always in bounds. R is
// convCols/L, at least 1 and at most Ho, so a narrow layer — conv3 and the
// regressor's branches, every layer at a low scale — runs a few hundred
// columns per call instead of one short row ending in tail tiles. When R is
// 1 or (K−1)/s is 0 (L = wo) the run is laid out as dst is and is written
// straight into it; otherwise it goes to a small scratch whose kept columns
// are copied out row by row. The last band holds the Ho mod R rows left,
// in planes laid out for R.
//
// Each output channel walks the run in tiles of convTile columns, holding
// the tile's accumulators in registers across the whole tap list and
// storing acc+bias once, its bits ANDed with the call's store mask. A tile
// is one AVX2 register: on amd64 CPUs that have it, convRowAVX2
// (conv_amd64.s) computes the run — per tap one broadcast weight, one VMULPS
// and one VADDPS per tile, four tiles in flight to hide the add latency.
// Never an FMA: a fused multiply-add rounds once where `acc += w·x` rounds
// twice, and every golden pins the twice-rounded bits; the Go loops write
// each product float32(w·x) so that no compiler fuses them either. The Go
// tile below is the same arithmetic lane by lane: the kernel on every other
// GOARCH and on amd64 without AVX2, and the oracle the tests hold the
// assembly to. A run's last tile ends at its last column, overlapping the
// tile before and recomputing those columns to the same bits, so only runs
// narrower than one tile take a scalar loop. The band (≈34 KB for conv2 at
// scale 600) is built once per band and reused by every output channel
// while it sits in L1/L2; at stride 2 one pass over each input row fills
// both column phases.
//
// Channel pairs: the band loads, not the adds, bound convRowAVX2. Under
// AVX2 the plan pairs channel co with co+1, greedily from 0, when their
// nonzero taps sit at the same offsets — always for dense filters — and
// convRow2AVX2 runs a pair's runs (pairRun) from one set of band loads. A
// pattern is never padded with zero-weight taps to make a pair: 0·NaN is
// NaN, not +0. Each channel still receives its own taps in the same order
// from +0, then its own bias, so the bits are the unpaired kernel's.
//
// Bit-identity with the im2col path (DESIGN.md §4g): for an output element
// (co, oy, ox), the im2col route accumulates wm[co][p]·cols[p][oyx] in
// ascending p = ((ci·K+ky)·K+kx) from +0, skipping zero weights, then adds
// the bias. ConvInto — Go tile and assembly alike — applies the same nonzero
// taps in the same order to an accumulator that starts at +0, and an
// out-of-bounds tap reads the band's zero padding exactly as it reads the
// zero-padded cols matrix, so each kept element receives the identical chain
// of float32 operations whatever R is or where in the run it sits; a dropped
// column's value never reaches dst. A nil bias adds +0, the identity: a
// partial sum is never -0 (it starts at +0 and exact cancellation rounds to
// +0).
//
// The store mask is all ones for ConvInto and 0x7fffffff for ConvAbsInto: one
// VANDPS before each VMOVUPS (or one AND per Go store) clears the sign bit
// of the value ConvInto would store, which is |x| bit for bit — IEEE |x| is
// exactly that bit — for every value, -0 and NaN included. A second pass over
// dst would do the same work again from memory; the mask does it from the
// register the element is stored from.
//
// The kernel is a straight serial loop over bands: frames and snippets run
// in parallel (internal/parallel), a convolution never does, so its bits
// cannot depend on the worker count.

// convTile is the tile width: the eight float32 lanes of a YMM register,
// which the Go tile spells as eight scalar accumulators (they, the weight and
// the products fit amd64's 16 registers; a 16-wide Go tile spills and
// measured 20 % slower, EXPERIMENTS.md).
const convTile = 8

// convCols is a band's column target: R = convCols/L output rows share one
// band, so a kernel call runs about convCols columns — long 4-tile blocks
// rather than a narrow row's tail tiles — while the band stays near L1
// (EXPERIMENTS.md, "Multi-row bands", lists the targets measured).
const convCols = 256

// tap is one nonzero weight of a convolution filter: off is where in the
// band its reads for the band's output (0, 0) start; w1 is the next
// channel's weight there when the two run as a pair (16 bytes either way).
type tap struct {
	off   int
	w, w1 float32
}

// ConvInto computes a 2-D convolution of a Cin×H×W input with an
// OutC×Cin×K×K weight tensor and an OutC bias vector (nil for no bias) into
// a caller-owned OutC×Ho×Wo destination (typically pooled). dst is fully
// overwritten; it must not alias x. Results are bit-identical to
// MatMul(weight reshaped, Im2Col(x)) plus bias.
func ConvInto(dst, x, weight, bias *Tensor, stride, pad int) {
	conv(dst, x, weight, bias, stride, pad, ^uint32(0))
}

// ConvAbsInto is ConvInto followed by |x| on every output element, in the
// same pass: the kernel clears each element's sign bit as it stores it, so
// the result is bit-identical to ConvInto's with the sign bits cleared.
func ConvAbsInto(dst, x, weight, bias *Tensor, stride, pad int) {
	conv(dst, x, weight, bias, stride, pad, 0x7fffffff)
}

// conv is ConvInto and ConvAbsInto: every stored element's bits are ANDed
// with mask.
func conv(dst, x, weight, bias *Tensor, stride, pad int, mask uint32) {
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

	// Only phases a tap can land on are built: ky, kx mod s < min(s, K).
	// A band row holds the wo columns plus the (K−1)/s a tap's kx/s shifts
	// by; every plane has room for the R + (K−1)/s rows phase 0 needs.
	phases := min(stride, kernel)
	rowLen := wo + (kernel-1)/stride
	rows := max(1, min(ho, convCols/rowLen))
	plane := (rows + (kernel-1)/stride) * rowLen
	perCi := phases * phases * plane

	// Nonzero taps per output channel, in ascending (ci, ky, kx) order —
	// the accumulation order the im2col route uses and the goldens pin —
	// each at channel ci's planes plus its place in a K×K offset table.
	// The plan is rebuilt every call but its storage (offset table, tap
	// list, counts, band and run scratch) recycles through a pool, so a
	// steady-state convolution allocates nothing.
	cv := convPlanPool.Get().(*convPlan)
	kk := kernel * kernel
	koff := grow(cv.koff, kk)
	for ky := 0; ky < kernel; ky++ {
		for kx := 0; kx < kernel; kx++ {
			koff[ky*kernel+kx] = ((ky%stride)*phases+kx%stride)*plane + ky/stride*rowLen + kx/stride
		}
	}
	wd := weight.data
	flat := cv.taps[:0]
	counts := grow(cv.counts, outC+1)
	counts[0] = 0
	for co := 0; co < outC; co++ {
		for ci := 0; ci < cin; ci++ {
			for k, wv := range wd[(co*cin+ci)*kk:][:kk] {
				if wv != 0 {
					flat = append(flat, tap{off: ci*perCi + koff[k], w: wv})
				}
			}
		}
		counts[co+1] = len(flat)
	}
	// Channel pairs (above): co+1's weights ride in co's taps as w1.
	paired := grow(cv.paired, outC)
	clear(paired)
	for co := 0; pairRun((rows-1)*rowLen+wo) && co+1 < outC; co++ {
		a, b := flat[counts[co]:counts[co+1]], flat[counts[co+1]:counts[co+2]]
		same := len(a) > 0 && len(a) == len(b)
		for t := 0; same && t < len(a); t++ {
			same = a[t].off == b[t].off
			a[t].w1 = b[t].w // read only if the pair holds
		}
		if same {
			paired[co] = true
			co++
		}
	}

	*cv = convPlan{
		xd: x.data, dd: dst.data, bias: bias, mask: mask,
		cin: cin, h: h, w: w, kernel: kernel, stride: stride, pad: pad,
		ho: ho, wo: wo, phases: phases, rowLen: rowLen, rows: rows, plane: plane,
		koff: koff, taps: flat, counts: counts, paired: paired,
		band: grow(cv.band, cin*perCi), wide: grow(cv.wide, 2*((rows-1)*rowLen+wo)),
	}
	cv.run()
	// Drop the tensor references and recycle the plan's storage.
	cv.xd, cv.dd, cv.bias = nil, nil, nil
	convPlanPool.Put(cv)
}

// convPlanPool recycles convPlan structs and their slice storage across
// ConvInto calls; every field is rebuilt before use, and the band only ever
// grows to the largest seen.
var convPlanPool = sync.Pool{New: func() any { return new(convPlan) }}

// convPlan is one call's geometry, tap list, band and run scratch.
type convPlan struct {
	xd, dd []float32
	bias   *Tensor
	mask   uint32 // ANDed into every stored element's bits
	cin    int
	h, w   int
	kernel int
	stride int
	pad    int
	ho, wo int
	phases int   // row and column phases in the band: min(stride, kernel)
	rowLen int   // band row length L: wo + (kernel−1)/stride
	rows   int   // output rows a band holds, R
	plane  int   // floats per phase plane: (R + (kernel−1)/stride)·L
	koff   []int // K×K tap offsets within one channel's planes
	taps   []tap
	counts []int  // taps[counts[co]:counts[co+1]] belong to channel co
	paired []bool // channel co runs with co+1 on co's taps (w1 is co+1's)
	band   []float32
	wide   []float32 // a band's runs (two for a pair) when not laid out as dst
}

// run computes every band of every output channel.
func (cv *convPlan) run() {
	band, ho, wo, rowLen := cv.band, cv.ho, cv.wo, cv.rowLen
	for oy0 := 0; oy0 < ho; oy0 += cv.rows {
		rows := min(cv.rows, ho-oy0)
		cv.fillBand(band, oy0, rows)
		n := (rows-1)*rowLen + wo
		direct := rows == 1 || rowLen == wo
		for co := 0; co < len(cv.paired); co++ {
			chans := 1
			if cv.paired[co] && pairRun(n) {
				chans = 2
			}
			var outs [2][]float32 // dst itself when laid out as dst is, else scratch
			for k := range chans {
				outs[k] = cv.wide[k*n:][:n]
				if direct {
					outs[k] = cv.dd[((co+k)*ho+oy0)*wo:][:n]
				}
			}
			taps := cv.taps[cv.counts[co]:cv.counts[co+1]]
			if chans == 2 {
				convRow2AVX2(&outs[0][0], &outs[1][0], &band[0], &taps[0], len(taps), n, cv.biasAt(co), cv.biasAt(co+1), cv.mask)
			} else {
				cv.runRow(outs[0], taps, cv.biasAt(co))
			}
			for k := 0; k < chans && !direct; k++ {
				for r := 0; r < rows; r++ {
					copy(cv.dd[((co+k)*ho+oy0+r)*wo:][:wo], outs[k][r*rowLen:])
				}
			}
			co += chans - 1
		}
	}
}

// pairRun reports whether a pair's run of n columns goes to convRow2AVX2:
// whole 32-column blocks, or enough that the last block's overlap costs less
// than the pair saves (at n = 35 it would recompute 29 columns).
func pairRun(n int) bool { return useAVX2 && (n%32 == 0 || n > 48) }

// biasAt is channel co's bias, +0 without one.
func (cv *convPlan) biasAt(co int) float32 {
	if cv.bias == nil {
		return 0
	}
	return cv.bias.data[co]
}

// runRow computes one channel's run out from its taps: the scalar loop for a
// run narrower than a tile, convRowAVX2 where the CPU has it, else the Go
// tile.
func (cv *convPlan) runRow(out []float32, taps []tap, bv float32) {
	band, n := cv.band, len(out)
	switch {
	case n < convTile:
		for ox := range out {
			var a float32
			for _, tp := range taps {
				a += float32(tp.w * band[tp.off+ox])
			}
			out[ox] = masked(a+bv, cv.mask)
		}
	case useAVX2 && len(taps) > 0:
		convRowAVX2(&out[0], &band[0], &taps[0], len(taps), n, bv, cv.mask)
	default:
		for ox := 0; ox < n; ox += convTile {
			ox := min(ox, n-convTile) // the last tile ends at column n
			var a0, a1, a2, a3, a4, a5, a6, a7 float32
			for _, tp := range taps {
				b := band[tp.off+ox : tp.off+ox+convTile : tp.off+ox+convTile]
				wv := tp.w
				a0 += float32(wv * b[0])
				a1 += float32(wv * b[1])
				a2 += float32(wv * b[2])
				a3 += float32(wv * b[3])
				a4 += float32(wv * b[4])
				a5 += float32(wv * b[5])
				a6 += float32(wv * b[6])
				a7 += float32(wv * b[7])
			}
			o := out[ox : ox+convTile : ox+convTile]
			o[0], o[1], o[2], o[3] = masked(a0+bv, cv.mask), masked(a1+bv, cv.mask), masked(a2+bv, cv.mask), masked(a3+bv, cv.mask)
			o[4], o[5], o[6], o[7] = masked(a4+bv, cv.mask), masked(a5+bv, cv.mask), masked(a6+bv, cv.mask), masked(a7+bv, cv.mask)
		}
	}
}

// masked is v with its bits ANDed with mask: the store of every run kernel.
func masked(v float32, mask uint32) float32 {
	return math.Float32frombits(math.Float32bits(v) & mask)
}

// fillBand builds the band of output rows oy0 … oy0+rows−1: row j of plane
// (ci, py, px) holds padded input row s·(oy0+j)+py of channel ci at padded
// columns px, px+s, px+2s, …, with zeros wherever the padded coordinate
// falls outside the input. Only the rows + (K−1−py)/s rows the band's taps
// read are built. At stride 2 with both column phases built — every
// backbone layer — one pass over each input row fills both (deinterleave).
func (cv *convPlan) fillBand(band []float32, oy0, rows int) {
	h, w, kernel, stride, pad, phases, rowLen := cv.h, cv.w, cv.kernel, cv.stride, cv.pad, cv.phases, cv.rowLen
	for ci := 0; ci < cv.cin; ci++ {
		for py := 0; py < phases; py++ {
			pl := band[(ci*phases+py)*phases*cv.plane:]
			for j := 0; j < rows+(kernel-1-py)/stride; j++ {
				iy := (oy0+j)*stride + py - pad
				if iy < 0 || iy >= h {
					for px := 0; px < phases; px++ {
						clear(pl[px*cv.plane+j*rowLen:][:rowLen])
					}
					continue
				}
				xrow := cv.xd[(ci*h+iy)*w:][:w]
				if stride == 2 && phases == 2 {
					// Input column 2m lands in phase pad mod 2 at band
					// column m + pad/2, column 2m+1 in the other phase at
					// m + (pad+1)/2.
					e := pad % 2
					deinterleave(pl[e*cv.plane+j*rowLen:][:rowLen], pl[(1-e)*cv.plane+j*rowLen:][:rowLen], xrow, pad/2, (pad+1)/2)
					continue
				}
				for px := 0; px < phases; px++ {
					// Band column c holds input column c·s + px − pad.
					j0, j1 := padSpan(w, rowLen, stride, px-pad)
					gatherRow(pl[px*cv.plane+j*rowLen:][:rowLen], xrow, j0, j1, stride, px-pad)
				}
			}
		}
	}
}

// deinterleave fills two band rows, at least pad long, from one read of
// xrow: ev[pe+m] = xrow[2m] and od[po+m] = xrow[2m+1] where both sides are in
// bounds, zero padding elsewhere. deinterleave2AVX2 takes whole blocks of
// eight pairs under AVX2, the loops the rest: moves only, so the band holds
// the bits gatherRow would put there.
func deinterleave(ev, od, xrow []float32, pe, po int) {
	ne, no := min(len(ev)-pe, (len(xrow)+1)/2), min(len(od)-po, len(xrow)/2)
	clear(ev[:pe])
	clear(ev[pe+ne:])
	clear(od[:po])
	clear(od[po+no:])
	m := 0
	if n := min(ne, no) &^ 7; useAVX2 && n > 0 {
		deinterleave2AVX2(&ev[pe], &od[po], &xrow[0], n)
		m = n
	}
	for i := m; i < ne; i++ {
		ev[pe+i] = xrow[2*i]
	}
	for i := m; i < no; i++ {
		od[po+i] = xrow[2*i+1]
	}
}
