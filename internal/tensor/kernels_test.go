package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"adascale/internal/parallel"
)

// The band-tiled convolution was only allowed to land because it is
// bit-identical to the im2col + serial matmul lowering it replaced — the
// conformance goldens replay byte-for-byte. These property tests pin that
// contract across odd geometries and both row kernels.

func randTensorWithZeros(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		// Mix in exact zeros and negatives: zeros exercise the serial
		// kernel's zero-skip, whose removal must stay value-neutral.
		switch rng.Intn(5) {
		case 0:
			d[i] = 0
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
	return t
}

func bitsEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: length %d, want %d", name, len(gd), len(wd))
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: element %d = %v (bits %08x), want %v (bits %08x)",
				name, i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
}

// TestMatMulIntoVariantsMatch: the two products agree to the bit on
// transposed operands — MatMulABTInto(A, Bᵀ) is MatMul(A, B), zeros in A
// included (MatMul skips them, MatMulABTInto adds their ±0 products) — so
// the conv oracle and the weight gradient's portable path sum alike.
func TestMatMulIntoVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randTensorWithZeros(rng, 9, 13)
	b := randTensorWithZeros(rng, 13, 5)
	bt := New(5, 13)
	for p := 0; p < 13; p++ {
		for j := 0; j < 5; j++ {
			bt.Data()[j*13+p] = b.Data()[p*5+j]
		}
	}
	abt := New(9, 5)
	MatMulABTInto(abt, a, bt)
	bitsEqual(t, "MatMulABTInto", abt, MatMul(a, b))
	bitsEqual(t, "MatMulABT", MatMulABT(a, bt), MatMul(a, b))
}

// TestMatMulIntoOverwritesDst: MatMulABTInto owns its destination — stale
// contents (a reused scratch) must not leak into the product.
func TestMatMulIntoOverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randTensorWithZeros(rng, 6, 10)
	bt := randTensorWithZeros(rng, 7, 10)
	abt := New(6, 7)
	abt.Fill(999)
	MatMulABTInto(abt, a, bt)
	bitsEqual(t, "MatMulABTInto", abt, MatMulABT(a, bt))
}

// naiveABT is the oracle MatMulABTInto is held to: one accumulator per
// element, from +0, p ascending, the product rounded before the sum — the
// loop the kernel was before it was tiled.
func naiveABT(dst, a, b []float32, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			dst[i*n+j] = s
		}
	}
}

// checkMatMulABT runs the kernel into a garbage-filled destination and holds
// every element to the oracle's bits. Two NaNs count as equal whatever their
// payloads: when a NaN sum meets a NaN product the hardware keeps the payload
// of whichever the compiler made the destination operand, which is register
// allocation, not arithmetic — where a NaN appears is what the chain decides.
func checkMatMulABT(t *testing.T, a, b []float32, m, n, k int) {
	t.Helper()
	want := make([]float32, m*n)
	naiveABT(want, a, b, m, n, k)
	dst := New(m, n)
	dst.Fill(999)
	MatMulABTInto(dst, FromSlice(a, m, k), FromSlice(b, n, k))
	for i, g := range dst.Data() {
		if math.Float32bits(g) != math.Float32bits(want[i]) && !(g != g && want[i] != want[i]) {
			t.Fatalf("%dx%d·(%dx%d)ᵀ element (%d,%d) = %v (bits %08x), want %v (bits %08x)",
				m, k, n, k, i/n, i%n, g, math.Float32bits(g), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestMatMulABTBitIdentical sweeps every tile/edge combination of the 4-row
// tile (m 0…9: no tile, one, two, each with 0–3 rows left over) against
// short and long inner dimensions — 646 is a scale-600 feature map — with the
// values a dense accumulation must not be careless about mixed in: ±0,
// subnormals, ±Inf (so Inf·0 and Inf−Inf make NaNs mid-chain) and NaN.
func TestMatMulABTBitIdentical(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewSource(24))
	fill := func(n int, specials bool) []float32 {
		x := make([]float32, n)
		for i := range x {
			if specials && rng.Intn(8) == 0 {
				x[i] = special[rng.Intn(len(special))]
			} else {
				x[i] = float32(rng.NormFloat64())
			}
		}
		return x
	}
	for _, k := range []int{0, 1, 7, 32, 646} {
		for m := 0; m <= 9; m++ {
			for n := 0; n <= 5; n++ {
				for _, specials := range []bool{false, true} {
					checkMatMulABT(t, fill(m*k, specials), fill(n*k, specials), m, n, k)
				}
			}
		}
	}
}

// FuzzMatMulABT drives the same oracle from the shape and raw bits: of the
// operands' values, a share raw/256 are arbitrary float32 bit patterns (every
// exponent, so subnormals, infinities and NaNs of any payload occur), the
// rest ordinary, so that not every sum is NaN.
func FuzzMatMulABT(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(16), uint16(70), uint8(0))   // the 1×1 branch's dW, a short k
	f.Add(int64(2), uint8(5), uint8(3), uint16(200), uint8(255)) // one tile, one row over, all raw bits
	f.Fuzz(func(t *testing.T, seed int64, m, n uint8, k uint16, raw uint8) {
		rng := rand.New(rand.NewSource(seed))
		fill := func(n int) []float32 {
			x := make([]float32, n)
			for i := range x {
				if uint8(rng.Intn(256)) < raw {
					x[i] = math.Float32frombits(rng.Uint32())
				} else {
					x[i] = float32(rng.NormFloat64())
				}
			}
			return x
		}
		mm, nn, kk := int(m)%13, int(n)%160, int(k)%700
		checkMatMulABT(t, fill(mm*kk), fill(nn*kk), mm, nn, kk)
	})
}

// convReference is the historical im2col + matmul + bias path.
func convReference(x, weight, bias *Tensor, stride, pad int) *Tensor {
	outC, cin, kernel := weight.Dim(0), weight.Dim(1), weight.Dim(2)
	ho := ConvOutSize(x.Dim(1), kernel, stride, pad)
	wo := ConvOutSize(x.Dim(2), kernel, stride, pad)
	cols := Im2Col(x, kernel, stride, pad)
	wm := weight.Reshape(outC, cin*kernel*kernel)
	out := MatMul(wm, cols)
	od := out.Data()
	bd := bias.Data()
	n := ho * wo
	for co := 0; co < outC; co++ {
		bv := bd[co]
		row := od[co*n : (co+1)*n]
		for i := range row {
			row[i] += bv
		}
	}
	return out.Reshape(outC, ho, wo)
}

// convInto runs ConvInto into a fresh destination pre-filled with NaN, so a
// column the kernel failed to write shows up as a bit mismatch.
func convInto(x, weight, bias *Tensor, stride, pad int) *Tensor {
	return convIntoWith(ConvInto, x, weight, bias, stride, pad)
}

// convIntoWith is convInto for ConvInto or ConvAbsInto.
func convIntoWith(f func(dst, x, weight, bias *Tensor, stride, pad int), x, weight, bias *Tensor, stride, pad int) *Tensor {
	dst := New(weight.Dim(0),
		ConvOutSize(x.Dim(1), weight.Dim(2), stride, pad),
		ConvOutSize(x.Dim(2), weight.Dim(2), stride, pad))
	dst.Fill(float32(math.NaN()))
	f(dst, x, weight, bias, stride, pad)
	return dst
}

// absBits is t with every element's sign bit cleared: |x| as IEEE 754
// defines it.
func absBits(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.data {
		out.data[i] = math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
	}
	return out
}

func TestFusedConvBitIdentical(t *testing.T) {
	cases := []struct {
		cin, h, w, outC, kernel, stride, pad int
	}{
		{1, 7, 9, 3, 3, 1, 1},    // same-pad 3×3
		{1, 16, 24, 8, 3, 2, 1},  // backbone conv1 shape family
		{8, 9, 15, 12, 3, 1, 1},  // backbone conv2 family
		{2, 5, 5, 4, 1, 1, 0},    // 1×1 kernel
		{3, 8, 8, 2, 3, 2, 0},    // stride 2, no pad
		{2, 6, 7, 3, 5, 1, 2},    // kernel larger than pad span
		{2, 4, 4, 3, 3, 3, 1},    // stride larger than kernel-1
		{1, 3, 3, 2, 3, 1, 2},    // padding wider than the input edge
		{8, 38, 67, 12, 3, 2, 1}, // backbone conv3-sized
	}
	rng := rand.New(rand.NewSource(99))
	for _, c := range cases {
		x := randTensorWithZeros(rng, c.cin, c.h, c.w)
		weight := randTensorWithZeros(rng, c.outC, c.cin, c.kernel, c.kernel)
		bias := randTensorWithZeros(rng, c.outC)
		want := convReference(x, weight, bias, c.stride, c.pad)
		bitsEqual(t, "ConvInto", convInto(x, weight, bias, c.stride, c.pad), want)
	}
}

// TestConvNilBias covers the two degenerate operands of a run kernel on a
// five-row band whose run takes 32-column blocks, 8-column blocks and an
// overlapping last tile, and on the one-row band after it: no bias at all,
// and an output channel whose filter is all zeros (no taps — the assembly is
// never entered for it).
func TestConvNilBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randTensorWithZeros(rng, 2, 6, 43)
	weight := randTensorWithZeros(rng, 3, 2, 3, 3)
	clear(weight.Data()[18:36]) // channel 1
	zero := New(3)
	want := convReference(x, weight, zero, 1, 1)
	eachConvKernel(t, func(rowKernel string) {
		bitsEqual(t, "ConvInto nil bias, "+rowKernel, convInto(x, weight, nil, 1, 1), want)
	})
}

// kernelName says which run kernel ConvInto runs for runs of at least one
// tile, for the test and microbenchmark logs.
func kernelName() string {
	if useAVX2 {
		return "avx2 row kernel (conv_amd64.s)"
	}
	return "go 8-column tile"
}

// eachConvKernel runs f with the Go tile forced and, where the CPU has it,
// with the AVX2 row kernel, so the portable path stays exercised on an AVX2
// machine. Not a knob: useAVX2 is restored before returning.
func eachConvKernel(t *testing.T, f func(kernel string)) {
	t.Helper()
	have := useAVX2
	defer func() { useAVX2 = have }()
	useAVX2 = false
	f(kernelName())
	if have {
		useAVX2 = true
		f(kernelName())
	}
}

// Zero patterns checkConvGeometry draws a filter bank with: every weight
// zero with chance 1/3 independently (neighbouring channels almost never
// pair), one pattern shared by every channel (every neighbour pairs), or a
// mix — per channel the shared pattern, the shared pattern with one zero and
// one nonzero place swapped (same tap count, different offsets: a pair the
// plan must break), or an independent one.
const (
	zerosIndependent = iota
	zerosShared
	zerosMixed
	zeroModes
)

// randConvWeight draws an outC×cin×k×k filter bank in one of the zero
// patterns above.
func randConvWeight(rng *rand.Rand, outC, cin, kernel, zeros int) *Tensor {
	weight := randTensor(rng, outC, cin, kernel, kernel)
	n := cin * kernel * kernel
	shared := make([]bool, n)
	for i := range shared {
		shared[i] = rng.Intn(3) == 0
	}
	for co := 0; co < outC; co++ {
		zero := shared
		switch {
		case zeros == zerosIndependent, zeros == zerosMixed && rng.Intn(4) == 0:
			zero = make([]bool, n)
			for i := range zero {
				zero[i] = rng.Intn(3) == 0
			}
		case zeros == zerosMixed && rng.Intn(3) == 0:
			zero = append([]bool(nil), shared...)
			i, j := rng.Intn(n), rng.Intn(n)
			zero[i], zero[j] = zero[j], zero[i]
		}
		for i, z := range zero {
			if z {
				weight.Data()[co*n+i] = 0
			}
		}
	}
	return weight
}

// convPairs walks weight's output channels as the plan does under AVX2 —
// greedily from 0, channel co with co+1 when their nonzero places are the
// same and not empty — and counts the pairs it makes and the neighbours it
// leaves apart although they have as many taps as each other (the offsets
// themselves differ).
func convPairs(weight *Tensor) (pairs, broken int) {
	outC := weight.Dim(0)
	n := weight.Size() / outC
	taps := func(co int) (nz []bool, count int) {
		nz = make([]bool, n)
		for i, v := range weight.Data()[co*n:][:n] {
			nz[i] = v != 0
			if nz[i] {
				count++
			}
		}
		return nz, count
	}
	for co := 0; co+1 < outC; co++ {
		a, na := taps(co)
		b, nb := taps(co + 1)
		if na == 0 || na != nb {
			continue
		}
		if slices.Equal(a, b) {
			pairs++
			co++
		} else {
			broken++
		}
	}
	return pairs, broken
}

// checkConvGeometry draws one convolution from rng at the given geometry —
// weights in the given zero pattern, in one draw of four the last output
// channel's filter all zero (no taps), bias nil or not per nilBias — and
// requires ConvInto to match convReference bit for bit under each row
// kernel, and ConvAbsInto to match |ConvInto|. It returns the filter bank,
// nil for a geometry with no output (skipped).
func checkConvGeometry(t *testing.T, rng *rand.Rand, cin, h, w, outC, kernel, stride, pad int, nilBias bool, zeros int) *Tensor {
	t.Helper()
	if ConvOutSize(h, kernel, stride, pad) < 1 || ConvOutSize(w, kernel, stride, pad) < 1 {
		return nil
	}
	x := randTensorWithZeros(rng, cin, h, w)
	weight := randConvWeight(rng, outC, cin, kernel, zeros)
	zeroChannel := rng.Intn(4) == 0
	if zeroChannel {
		clear(weight.Data()[(outC-1)*cin*kernel*kernel:])
	}
	bias, refBias := (*Tensor)(nil), New(outC)
	if !nilBias {
		bias = randTensorWithZeros(rng, outC)
		refBias = bias
	}
	want := convReference(x, weight, refBias, stride, pad)
	eachConvKernel(t, func(rowKernel string) {
		name := fmt.Sprintf("cin=%d h=%d w=%d outC=%d k=%d s=%d pad=%d nilBias=%v zeros=%d zeroChannel=%v %s",
			cin, h, w, outC, kernel, stride, pad, nilBias, zeros, zeroChannel, rowKernel)
		got := convInto(x, weight, bias, stride, pad)
		bitsEqual(t, "ConvInto "+name, got, want)
		bitsEqual(t, "ConvAbsInto "+name, convIntoWith(ConvAbsInto, x, weight, bias, stride, pad), absBits(got))
	})
	return weight
}

// convBands returns the band geometry ConvInto gives an output of ho×wo
// rows and columns at kernel K and stride s: the band row length, the rows
// of a full band and of the last one, and the columns one run of each spans.
func convBands(ho, wo, kernel, stride int) (rowLen, rows, lastRows, run, lastRun int) {
	rowLen = wo + (kernel-1)/stride
	rows = max(1, min(ho, convCols/rowLen))
	lastRows = ho - (ho-1)/rows*rows
	return rowLen, rows, lastRows, (rows-1)*rowLen + wo, (lastRows-1)*rowLen + wo
}

// TestConvRandomGeometry sweeps the bands', the run kernels' and the band
// fill's geometry space: multi-row bands whose dropped columns cross into the
// next row and are copied out, last bands shorter than the rest, one-row
// bands written straight into dst, runs narrower than one tile (scalar loop),
// runs of 8-column blocks, runs wide enough for the 32-column blocks, runs
// whose last tile overlaps the one before, padding wider than the input and
// strides that skip whole kernel columns all occur; so do channel pairs
// (written straight into dst and copied out, with a last 32-column block
// overlapping the one before, and in runs under 32 or 8 columns, which run
// channel by channel), pairs broken by a different zero pattern of the same
// size, an odd channel out, and the stride-2 one-pass fill at pads 0, 1 and 2 with odd and even
// input widths, below and above the 16 columns of its vector block. h stays
// small so the wide rows cost no runtime; w is drawn below 160, 80, 40 or 20
// so that one-row runs narrower than a tile occur too.
func TestConvRandomGeometry(t *testing.T) {
	t.Logf("row kernel on this machine: %s", kernelName())
	const geometries = 1000
	rng := rand.New(rand.NewSource(1501))
	loops := map[string]int{}
	for i := 0; i < geometries; i++ {
		kernel := 1 + rng.Intn(5)
		h, w, stride, pad := 1+rng.Intn(12), 1+rng.Intn(160>>rng.Intn(4)), []int{1, 2, 2, 3}[rng.Intn(4)], rng.Intn(kernel+1)
		outC := 1 + rng.Intn(8)
		weight := checkConvGeometry(t, rng, 1+rng.Intn(4), h, w, outC,
			kernel, stride, pad, rng.Intn(2) == 0, rng.Intn(zeroModes))
		if weight == nil {
			continue
		}
		ho, wo := ConvOutSize(h, kernel, stride, pad), ConvOutSize(w, kernel, stride, pad)
		rowLen, rows, lastRows, run, lastRun := convBands(ho, wo, kernel, stride)
		pairs, broken := convPairs(weight)
		parity := map[bool]string{false: "even", true: "odd"}[w%2 == 1]
		for loop, taken := range map[string]bool{
			"multi-row copied-out":  rows > 1 && rowLen > wo,
			"last partial band":     lastRows < rows,
			"one-row direct":        lastRows == 1 && rowLen > wo,
			"scalar":                lastRun < convTile,
			"8-wide":                run >= convTile && run%32 >= convTile,
			"32-wide":               run >= 32,
			"overlapping":           run >= convTile && run%convTile != 0,
			"pair direct":           pairs > 0 && ((rows == 1 || rowLen == wo) && run >= 32 || lastRows == 1 && lastRun >= 32),
			"pair copied-out":       pairs > 0 && rows > 1 && rowLen > wo && run >= 32,
			"pair overlapping":      pairs > 0 && run > 32 && run%32 != 0,
			"pair broken":           broken > 0,
			"pair, odd outC":        pairs > 0 && outC%2 == 1,
			"pair under 32 columns": pairs > 0 && lastRun >= convTile && lastRun < 32,
			"pair under 8 columns":  pairs > 0 && lastRun < convTile,
			"fill2 w<16":            stride == 2 && kernel >= 2 && w < 16,
			fmt.Sprintf("fill2 pad=%d %s w≥16", pad, parity): stride == 2 && kernel >= 2 && w >= 16,
		} {
			if taken {
				loops[loop]++
			}
		}
	}
	t.Logf("geometries per loop: %v", loops)
	want := []string{"multi-row copied-out", "last partial band", "one-row direct", "scalar", "8-wide", "32-wide", "overlapping",
		"pair direct", "pair copied-out", "pair overlapping", "pair broken", "pair, odd outC", "pair under 32 columns", "pair under 8 columns", "fill2 w<16"}
	for pad := 0; pad <= 2; pad++ {
		want = append(want, fmt.Sprintf("fill2 pad=%d odd w≥16", pad), fmt.Sprintf("fill2 pad=%d even w≥16", pad))
	}
	for _, loop := range want {
		if loops[loop] < 20 {
			t.Errorf("only %d of %d geometries reach the %s case", loops[loop], geometries, loop)
		}
	}
}

// FuzzConvGeometry holds the same oracle over fuzzer-chosen geometry and zero
// pattern, up to 16 input and 12 output channels: the regressor's branches
// read the 16 feature planes, the backbone's conv2 and conv3 write 12.
func FuzzConvGeometry(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(16), uint8(24), uint8(7), uint8(2), uint8(1), uint8(1), false, uint8(zerosIndependent)) // backbone conv1 family
	f.Add(int64(2), uint8(2), uint8(19), uint8(34), uint8(3), uint8(5), uint8(1), uint8(2), true, uint8(zerosShared))       // regressor branch family
	f.Add(int64(3), uint8(7), uint8(37), uint8(66), uint8(11), uint8(2), uint8(1), uint8(1), false, uint8(zerosMixed))      // conv2 family, pairs and breaks
	f.Add(int64(4), uint8(0), uint8(9), uint8(14), uint8(6), uint8(2), uint8(1), uint8(2), true, uint8(zerosMixed))         // odd outC, narrow stride-2 fill at pad 2
	f.Fuzz(func(t *testing.T, seed int64, cin, h, w, outC, kernel, stride, pad uint8, nilBias bool, zeros uint8) {
		k := 1 + int(kernel)%5
		checkConvGeometry(t, rand.New(rand.NewSource(seed)),
			1+int(cin)%16, 1+int(h)%40, 1+int(w)%160, 1+int(outC)%12,
			k, 1+int(stride)%3, int(pad)%(k+1), nilBias, int(zeros)%zeroModes)
	})
}

// poolRetains reports whether a sync.Pool hands back what was just Put. Under
// the race detector it deliberately drops a quarter of all Puts.
func poolRetains() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 64; i++ {
		p.Put(p.Get())
	}
	return news == 1
}

// TestConvIntoSteadyStateAllocs pins that the kernel allocates nothing once
// warm even when the geometry changes on every call — the adaptive scale
// does exactly that, and the band, tap list and run scratch must absorb it:
// the backbone's conv2 and the regressor's 3×3 branch, each at scale 600 and
// 128 (multi-row bands copied out, last partial bands, a whole output in one
// band), through ConvInto and ConvAbsInto in turn —
// and that this holds under a worker override: the larger convolution is
// one an inner row fan-out would split, at 8 allocations a call.
// (AllocsPerRun itself runs at GOMAXPROCS 1; the override is what a fan-out
// would read.)
func TestConvIntoSteadyStateAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector): a zero-allocation pin through it cannot hold")
	}
	parallel.SetWorkers(4)
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(5))
	type conv struct {
		x, weight, bias, dst *Tensor
		stride               int
	}
	var convs []conv
	for _, c := range []struct{ cin, h, w, outC, stride int }{
		{8, 75, 134, 12, 2}, {8, 16, 29, 12, 2}, // conv2 at 600 and 128
		{16, 19, 34, 8, 1}, {16, 4, 8, 8, 1}, // the 3×3 branch at 600 and 128
	} {
		convs = append(convs, conv{
			x:      randTensor(rng, c.cin, c.h, c.w),
			weight: randTensor(rng, c.outC, c.cin, 3, 3),
			bias:   randTensor(rng, c.outC),
			dst:    New(c.outC, ConvOutSize(c.h, 3, c.stride, 1), ConvOutSize(c.w, 3, c.stride, 1)),
			stride: c.stride,
		})
	}
	i := 0
	step := func() {
		c := convs[i%len(convs)]
		run := ConvInto
		if i/len(convs)%2 == 1 {
			run = ConvAbsInto
		}
		run(c.dst, c.x, c.weight, c.bias, c.stride, 1)
		i++
	}
	for range 2 * len(convs) {
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state ConvInto/ConvAbsInto allocates %v per call, want 0", allocs)
	}
}

// TestGatherRowMatchesDefinition holds gatherRow — the stride-1 copy and the
// strided loop, with their zero padding at both ends — to the definition,
// element by element, into a NaN-filled destination.
func TestGatherRowMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, stride := range []int{1, 2, 3} {
		for w := 1; w <= 70; w++ {
			xrow := randTensor(rng, w).Data()
			for _, off := range []int{-3, -1, 0, 1, 2} {
				n := (w+3)/stride + 2
				seg := make([]float32, n)
				for i := range seg {
					seg[i] = float32(math.NaN())
				}
				j0, j1 := padSpan(w, n, stride, off)
				gatherRow(seg, xrow, j0, j1, stride, off)
				for j, got := range seg {
					var want float32
					if ix := j*stride + off; ix >= 0 && ix < w {
						want = xrow[ix]
					}
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("w=%d stride=%d off=%d: seg[%d] = %v, want %v", w, stride, off, j, got, want)
					}
				}
			}
		}
	}
}

func TestIm2ColFastPathMatchesReference(t *testing.T) {
	cases := []struct {
		c, h, w, kernel, stride, pad int
	}{
		{1, 5, 5, 3, 1, 1},
		{3, 8, 11, 3, 2, 1},
		{2, 4, 4, 1, 1, 0},
		{2, 6, 9, 5, 1, 2},
		{1, 3, 3, 3, 1, 3}, // pad wider than the input
		{2, 7, 5, 3, 3, 1},
		{1, 1, 1, 5, 1, 2}, // kernel covers the whole padded input: kx=0 and kx=4 read only padding
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range cases {
		x := randTensorWithZeros(rng, c.c, c.h, c.w)
		ho := ConvOutSize(c.h, c.kernel, c.stride, c.pad)
		wo := ConvOutSize(c.w, c.kernel, c.stride, c.pad)

		// Reference: definitional gather, one element at a time.
		want := New(c.c*c.kernel*c.kernel, ho*wo)
		wd := want.Data()
		xd := x.Data()
		for ch := 0; ch < c.c; ch++ {
			for ky := 0; ky < c.kernel; ky++ {
				for kx := 0; kx < c.kernel; kx++ {
					p := (ch*c.kernel+ky)*c.kernel + kx
					for oy := 0; oy < ho; oy++ {
						for ox := 0; ox < wo; ox++ {
							iy := oy*c.stride - c.pad + ky
							ix := ox*c.stride - c.pad + kx
							var v float32
							if iy >= 0 && iy < c.h && ix >= 0 && ix < c.w {
								v = xd[(ch*c.h+iy)*c.w+ix]
							}
							wd[p*ho*wo+oy*wo+ox] = v
						}
					}
				}
			}
		}

		got := Im2Col(x, c.kernel, c.stride, c.pad)
		bitsEqual(t, "Im2Col", got, want)

		// Into with stale destination contents.
		dirty := New(c.c*c.kernel*c.kernel, ho*wo)
		dirty.Fill(float32(math.Inf(1)))
		Im2ColInto(dirty, x, c.kernel, c.stride, c.pad)
		bitsEqual(t, "Im2ColInto stale", dirty, want)
	}
}
