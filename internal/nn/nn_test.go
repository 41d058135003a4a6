package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"adascale/internal/tensor"
)

// projLoss is a deterministic scalar loss L = Σ r⊙y over the layer output,
// whose gradient w.r.t. y is simply r. Used to drive finite-difference
// gradient checks.
func projLoss(y, r *tensor.Tensor) float64 {
	var s float64
	yd, rd := y.Data(), r.Data()
	for i := range yd {
		s += float64(yd[i]) * float64(rd[i])
	}
	return s
}

// gradCheck verifies a layer's analytic parameter gradients — and its input
// gradient, where backward returns one — against central finite differences
// of the projected loss.
func gradCheck(t *testing.T, rng *rand.Rand, x *tensor.Tensor, params []*Param,
	forward func(*tensor.Tensor) *tensor.Tensor, backward func(dy *tensor.Tensor) *tensor.Tensor) {
	t.Helper()
	y := forward(x)
	r := tensor.New(y.Shape()...)
	r.RandNormal(rng, 0, 1)
	ZeroGrads(params)
	dx := backward(r)

	const eps = 1e-2
	const tol = 2e-2

	check := func(name string, w *tensor.Tensor, analytic *tensor.Tensor) {
		for _, idx := range sampleIndices(rng, w.Size(), 12) {
			orig := w.Data()[idx]
			w.Data()[idx] = orig + eps
			lp := projLoss(forward(x), r)
			w.Data()[idx] = orig - eps
			lm := projLoss(forward(x), r)
			w.Data()[idx] = orig
			fd := (lp - lm) / (2 * eps)
			an := float64(analytic.Data()[idx])
			if math.Abs(fd-an) > tol*(1+math.Abs(fd)) {
				t.Fatalf("%s grad[%d]: analytic %v vs finite-diff %v", name, idx, an, fd)
			}
		}
	}
	if dx != nil {
		check("input", x, dx)
	}
	for _, p := range params {
		check(p.Name, p.W, p.Grad)
	}
}

// convGradCheck checks a convolution's dW and db; it has no input gradient.
func convGradCheck(t *testing.T, rng *rand.Rand, conv *Conv2D, x *tensor.Tensor) {
	t.Helper()
	gradCheck(t, rng, x, conv.Params(), conv.Forward, func(dy *tensor.Tensor) *tensor.Tensor {
		conv.Backward(dy)
		return nil
	})
}

// convNet is the scale regressor's shape in miniature — convolution → ReLU →
// global average pool → fully-connected head — wired by hand the way
// internal/regressor wires its branches.
type convNet struct {
	conv *Conv2D
	relu *ReLU
	gap  *GlobalAvgPool
	fc   *Dense
}

func newConvNet(rng *rand.Rand, channels int) *convNet {
	return &convNet{
		conv: NewConv2D(rng, 1, channels, 3, 1, -1),
		relu: NewReLU(),
		gap:  NewGlobalAvgPool(),
		fc:   NewDense(rng, channels, 1),
	}
}

func (n *convNet) forward(x *tensor.Tensor) *tensor.Tensor {
	return n.fc.Forward(n.gap.Forward(n.relu.Forward(n.conv.Forward(x))))
}

func (n *convNet) backward(dy *tensor.Tensor) {
	n.conv.Backward(n.relu.Backward(n.gap.Backward(n.fc.Backward(dy))))
}

func (n *convNet) params() []*Param { return append(n.conv.Params(), n.fc.Params()...) }

func sampleIndices(rng *rand.Rand, n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, kernel := range []int{1, 3, 5} {
		conv := NewConv2D(rng, 3, 4, kernel, 1, -1)
		x := tensor.New(3, 7, 6)
		x.RandNormal(rng, 0, 1)
		convGradCheck(t, rng, conv, x)
	}
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	conv := NewConv2D(rng, 2, 3, 3, 2, 1)
	x := tensor.New(2, 9, 8)
	x.RandNormal(rng, 0, 1)
	convGradCheck(t, rng, conv, x)
}

// TestFusedConvBitIdentical holds Conv2D.Forward — the band-tiled kernel,
// which Infer and therefore serving run too — to the im2col lowering it
// replaced, bit for bit: MatMul(weights as a matrix, Im2Col(x)) plus bias,
// the product Backward still differentiates.
func TestFusedConvBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range []struct{ inC, h, w, outC, kernel, stride, pad int }{
		{16, 19, 34, 8, 1, 1, -1}, // regressor 1×1 branch at scale 600
		{16, 19, 34, 8, 3, 1, -1}, // regressor 3×3 branch
		{3, 7, 6, 4, 5, 1, -1},
		{8, 38, 67, 12, 3, 2, 1}, // backbone conv3
		{2, 9, 8, 3, 3, 2, 0},
	} {
		conv := NewConv2D(rng, c.inC, c.outC, c.kernel, c.stride, c.pad)
		conv.Bias.W.RandNormal(rng, 0, 1)
		x := tensor.New(c.inC, c.h, c.w)
		x.RandNormal(rng, 0, 1)
		got := conv.Forward(x)

		cols := tensor.Im2Col(x, conv.Kernel, conv.Stride, conv.Pad)
		want := tensor.MatMul(conv.Weight.W.Reshape(c.outC, c.inC*c.kernel*c.kernel), cols)
		n := cols.Dim(1)
		for co, b := range conv.Bias.W.Data() {
			row := want.Data()[co*n : (co+1)*n]
			for i := range row {
				row[i] += b
			}
		}
		if got.Size() != want.Size() {
			t.Fatalf("%+v: Forward has %d elements, oracle %d", c, got.Size(), want.Size())
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("%+v: element %d = %v, im2col oracle %v", c, i, v, want.Data()[i])
			}
		}
	}
}

// TestConvBackwardBitIdentical holds Conv2D.Backward's weight gradient to
// the product it is defined as, dW = dy·Im2Col(x)ᵀ accumulated onto what was
// there — in particular for the 1×1 branch, which reads its input in place
// of a lowered copy, and across two samples of different sizes, which is
// when the reused scratch is re-pointed.
func TestConvBackwardBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	for _, c := range []struct{ inC, outC, kernel, stride, pad int }{
		{16, 8, 1, 1, -1}, // regressor 1×1 branch: no lowering
		{16, 8, 3, 1, -1}, // regressor 3×3 branch
		{4, 3, 1, 2, 0},   // 1×1 but strided: must lower
		{4, 3, 1, 1, 1},   // 1×1 but padded: must lower
	} {
		conv := NewConv2D(rng, c.inC, c.outC, c.kernel, c.stride, c.pad)
		want := tensor.New(c.outC, c.inC*c.kernel*c.kernel)
		for _, hw := range [][2]int{{19, 34}, {4, 8}} {
			x := tensor.New(c.inC, hw[0], hw[1])
			x.RandNormal(rng, 0, 1)
			y := conv.Forward(x)
			dy := tensor.New(y.Shape()...)
			dy.RandNormal(rng, 0, 1)
			conv.Backward(dy)

			cols := tensor.Im2Col(x, conv.Kernel, conv.Stride, conv.Pad)
			want.AddInPlace(tensor.MatMulABT(dy.Reshape(c.outC, cols.Dim(1)), cols))
			for i, v := range conv.Weight.Grad.Data() {
				if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
					t.Fatalf("%+v at %v: dW[%d] = %v, lowered product %v", c, hw, i, v, want.Data()[i])
				}
			}
		}
	}
}

func TestConv2DOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	conv := NewConv2D(rng, 3, 8, 3, 1, -1)
	y := conv.Forward(tensor.New(3, 10, 14))
	if y.Dim(0) != 8 || y.Dim(1) != 10 || y.Dim(2) != 14 {
		t.Fatalf("same-pad conv output shape %v", y.Shape())
	}
}

func TestConv2DBiasApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	conv := NewConv2D(rng, 1, 2, 1, 1, 0)
	conv.Weight.W.Zero()
	conv.Bias.W.Set(1.5, 0)
	conv.Bias.W.Set(-2, 1)
	x := tensor.New(1, 2, 2)
	x.Fill(3)
	y := conv.Forward(x)
	if y.At(0, 0, 0) != 1.5 || y.At(1, 1, 1) != -2 {
		t.Fatalf("bias not applied: %v", y.Data())
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := NewDense(rng, 2, 2)
	copy(d.Weight.W.Data(), []float32{1, 2, 3, 4})
	copy(d.Bias.W.Data(), []float32{0.5, -0.5})
	y := d.Forward(tensor.FromSlice([]float32{1, 1}, 2))
	if y.At(0) != 3.5 || y.At(1) != 6.5 {
		t.Fatalf("Dense forward = %v", y.Data())
	}
}

// TestDenseBitIdenticalToMatMul: the head's products through reused scratch
// give the bits of freshly allocated ones — W·x + b, dW += dy·xᵀ, dx = Wᵀ·dy
// — with exact zeros among weights and inputs and over two accumulated
// samples, the second of which finds every header already pointed somewhere.
func TestDenseBitIdenticalToMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const in, out = 16, 3
	d := NewDense(rng, in, out)
	d.Bias.W.RandNormal(rng, 0, 1)
	wantW, wantB := tensor.New(out, in), tensor.New(out)
	same := func(name string, got, want *tensor.Tensor) {
		t.Helper()
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("%s[%d] = %v (bits %08x), matmul gives %v (bits %08x)",
					name, i, v, math.Float32bits(v), want.Data()[i], math.Float32bits(want.Data()[i]))
			}
		}
	}
	for sample := 0; sample < 2; sample++ {
		x, dy := tensor.New(in), tensor.New(out)
		x.RandNormal(rng, 0, 1)
		dy.RandNormal(rng, 0, 1)
		for i := 0; i < in; i += 3 {
			x.Data()[i] = 0
			d.Weight.W.Data()[rng.Intn(in*out)] = 0
		}
		dy.Data()[0] = -float32(math.Abs(float64(dy.Data()[0])))

		y := tensor.MatMul(d.Weight.W, x.Reshape(in, 1)).Reshape(out)
		y.AddInPlace(d.Bias.W)
		same("y", d.Forward(x), y)

		dx := d.Backward(dy)
		same("dx", dx, tensor.MatMulATB(d.Weight.W, dy.Reshape(out, 1)))
		wantW.AddInPlace(tensor.MatMulABT(dy.Reshape(out, 1), x.Reshape(in, 1)))
		wantB.AddInPlace(dy)
		same("dW", d.Weight.Grad, wantW)
		same("db", d.Bias.Grad, wantB)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := NewDense(rng, 6, 4)
	x := tensor.New(6)
	x.RandNormal(rng, 0, 1)
	gradCheck(t, rng, x, d.Params(), d.Forward, d.Backward)
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2}, 3)
	y := r.Forward(x)
	if y.At(0) != 0 || y.At(1) != 0 || y.At(2) != 2 {
		t.Fatalf("ReLU forward = %v", y.Data())
	}
	dy := tensor.FromSlice([]float32{5, 5, 5}, 3)
	dx := r.Backward(dy)
	if dx.At(0) != 0 || dx.At(1) != 0 || dx.At(2) != 5 {
		t.Fatalf("ReLU backward = %v", dx.Data())
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool()
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 2, 2, 2)
	y := g.Forward(x)
	if y.At(0) != 2.5 || y.At(1) != 10 {
		t.Fatalf("avg pool = %v", y.Data())
	}
	dx := g.Backward(tensor.FromSlice([]float32{4, 8}, 2))
	if dx.At(0, 0, 0) != 1 || dx.At(1, 1, 1) != 2 {
		t.Fatalf("avg pool backward = %v", dx.Data())
	}
}

// TestChainComposesAndBackprops: the hand-wired chain's parameter gradients —
// each layer's Backward fed by the next one's input gradient — match finite
// differences of the whole chain.
func TestChainComposesAndBackprops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := newConvNet(rng, 2)
	x := tensor.New(1, 6, 6)
	x.RandNormal(rng, 0, 1)
	y := net.forward(x)
	if y.Dims() != 1 || y.Dim(0) != 1 {
		t.Fatalf("output shape %v", y.Shape())
	}
	if got := CountParams(net.params()); got != 1*2*3*3+2+2+1 {
		t.Fatalf("CountParams = %d", got)
	}
	gradCheck(t, rng, x, net.params(), net.forward, func(dy *tensor.Tensor) *tensor.Tensor {
		net.backward(dy)
		return nil
	})
}

func TestSmoothL1(t *testing.T) {
	if got := SmoothL1Scalar(0.5); got != 0.125 {
		t.Fatalf("SmoothL1(0.5) = %v", got)
	}
	if got := SmoothL1Scalar(-2); got != 1.5 {
		t.Fatalf("SmoothL1(-2) = %v", got)
	}
	if got := SmoothL1Scalar(1); got != 0.5 {
		t.Fatalf("SmoothL1(1) = %v (continuity point)", got)
	}
}

func TestCrossEntropyClampsZero(t *testing.T) {
	v := CrossEntropy([]float64{0, 1}, 0)
	if math.IsInf(v, 0) || v <= 0 {
		t.Fatalf("CrossEntropy(0) = %v, want large finite positive", v)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimise f(w) = ½‖w - w*‖² with gradient w - w*.
	rng := rand.New(rand.NewSource(18))
	target := tensor.New(8)
	target.RandNormal(rng, 0, 1)
	p := NewParam("w", tensor.New(8))
	opt := NewSGD(0.1)
	for it := 0; it < 300; it++ {
		p.ZeroGrad()
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = p.W.Data()[i] - target.Data()[i]
		}
		opt.Step([]*Param{p})
	}
	for i := range p.W.Data() {
		if math.Abs(float64(p.W.Data()[i]-target.Data()[i])) > 1e-3 {
			t.Fatalf("SGD did not converge: %v vs %v", p.W.Data(), target.Data())
		}
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1}, 1))
	opt := NewSGD(0.1)
	opt.Momentum = 0
	opt.WeightDecay = 1
	p.ZeroGrad()
	opt.Step([]*Param{p})
	if p.W.At(0) >= 1 {
		t.Fatal("weight decay should shrink the weight with zero gradient")
	}
}

func TestStepSchedule(t *testing.T) {
	// Regressor recipe: base 1e-4, ÷10 after 1.3 of 2 epochs (fraction 0.65).
	s := StepSchedule{Base: 1e-4, Drops: []float64{0.65}}
	if got := s.LR(0); got != 1e-4 {
		t.Fatalf("LR(0) = %v", got)
	}
	if got := s.LR(0.64); got != 1e-4 {
		t.Fatalf("LR(0.64) = %v", got)
	}
	if got := s.LR(0.65); math.Abs(got-1e-5) > 1e-12 {
		t.Fatalf("LR(0.65) = %v", got)
	}
	two := StepSchedule{Base: 2.5e-4, Drops: []float64{0.325, 0.65}}
	if got := two.LR(1); math.Abs(got-2.5e-6) > 1e-15 {
		t.Fatalf("double drop LR = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	newParams := func() []*Param {
		return append(NewConv2D(rng, 2, 3, 3, 1, -1).Params(), NewDense(rng, 3, 1).Params()...)
	}
	saved, loaded := newParams(), newParams()
	var buf bytes.Buffer
	if err := SaveParams(&buf, saved); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, loaded); err != nil {
		t.Fatal(err)
	}
	for i, p := range saved {
		q := loaded[i]
		for j := range p.W.Data() {
			if p.W.Data()[j] != q.W.Data()[j] {
				t.Fatalf("param %s differs after round trip", p.Name)
			}
		}
	}
}

func TestLoadRejectsMismatchedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := NewDense(rng, 4, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b := NewDense(rng, 5, 2)
	if err := LoadParams(&buf, b.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := NewDense(rng, 2, 2)
	if err := LoadParams(bytes.NewReader([]byte("NOT-A-WEIGHT-FILE")), d.Params()); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	conv := NewConv2D(rng, 1, 1, 3, 1, -1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	conv.Backward(tensor.New(1, 3, 3))
}

// Integration: a tiny network can fit a simple function, proving the full
// forward/backward/step loop learns.
func TestEndToEndLearning(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := newConvNet(rng, 4)
	// Target: bright images → +0.8, dark images → -0.8.
	sample := func(bright bool) (*tensor.Tensor, float32) {
		x := tensor.New(1, 5, 5)
		if bright {
			x.RandUniform(rng, 0.7, 1)
			return x, 0.8
		}
		x.RandUniform(rng, 0, 0.3)
		return x, -0.8
	}
	opt := NewSGD(0.05)
	var last float64
	for epoch := 0; epoch < 200; epoch++ {
		ZeroGrads(net.params())
		var total float64
		for b := 0; b < 8; b++ {
			x, tgt := sample(b%2 == 0)
			// ½(y−t)², averaged over the batch as regressor.Fit does.
			diff := net.forward(x).At(0) - tgt
			total += 0.5 * float64(diff) * float64(diff)
			net.backward(tensor.FromSlice([]float32{diff / 8}, 1))
		}
		opt.Step(net.params())
		last = total / 8
	}
	if last > 0.02 {
		t.Fatalf("network failed to learn: final loss %v", last)
	}
}
