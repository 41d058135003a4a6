package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"adascale/internal/tensor"
)

// convGradCheck verifies a convolution's analytic weight and bias gradients
// against central finite differences of the projected loss L = Σ r⊙y, whose
// gradient w.r.t. the output y is r.
func convGradCheck(t *testing.T, rng *rand.Rand, conv *Conv2D, x *tensor.Tensor) {
	t.Helper()
	loss := func(r *tensor.Tensor) float64 {
		var s float64
		for i, v := range conv.Infer(x, nil).Data() {
			s += float64(v) * float64(r.Data()[i])
		}
		return s
	}
	r := conv.Infer(x, nil)
	r.RandNormal(rng, 0, 1)
	ZeroGrads(conv.Params())
	conv.Backward(x, r)

	const eps = 1e-2
	const tol = 2e-2
	for _, p := range conv.Params() {
		w := p.W.Data()
		for _, idx := range sampleIndices(rng, len(w), 12) {
			orig := w[idx]
			w[idx] = orig + eps
			lp := loss(r)
			w[idx] = orig - eps
			lm := loss(r)
			w[idx] = orig
			fd := (lp - lm) / (2 * eps)
			an := float64(p.Grad.Data()[idx])
			if math.Abs(fd-an) > tol*(1+math.Abs(fd)) {
				t.Fatalf("%s grad[%d]: analytic %v vs finite-diff %v", p.Name, idx, an, fd)
			}
		}
	}
}

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

// TestFusedConvBitIdentical holds Conv2D.Infer — the band-tiled kernel,
// which training and serving both run — to the im2col lowering it
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
		got := conv.Infer(x, nil)

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
			t.Fatalf("%+v: Infer has %d elements, oracle %d", c, got.Size(), want.Size())
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
// of a lowered copy, and across two samples of different sizes through the
// one reused dW buffer.
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
			dy := conv.Infer(x, nil)
			dy.RandNormal(rng, 0, 1)
			conv.Backward(x, dy)

			cols := tensor.Im2Col(x, conv.Kernel, conv.Stride, conv.Pad)
			for i, v := range tensor.MatMulABT(dy.Reshape(c.outC, cols.Dim(1)), cols).Data() {
				want.Data()[i] += v
			}
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
	y := conv.Infer(tensor.New(3, 10, 14), nil)
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
	y := conv.Infer(x, nil)
	if y.At(0, 0, 0) != 1.5 || y.At(1, 1, 1) != -2 {
		t.Fatalf("bias not applied: %v", y.Data())
	}
}

// convNet is the scale regressor's shape in miniature — convolution →
// ReLU → global average pool → fully-connected head — with the rectified
// mean and the head as plain loops around Conv2D and two Params, the way
// internal/regressor wires its branches.
type convNet struct {
	conv *Conv2D
	w, b *Param // head: 1 × conv.OutC weights, one bias

	x, out *tensor.Tensor // what forward keeps for backward
	mean   []float32
}

func newConvNet(rng *rand.Rand, channels int) *convNet {
	w := tensor.New(1, channels)
	w.XavierInit(rng, channels, 1)
	return &convNet{
		conv: NewConv2D(rng, 1, channels, 3, 1, -1),
		w:    NewParam("dense.weight", w),
		b:    NewParam("dense.bias", tensor.New(1)),
		mean: make([]float32, channels),
	}
}

func (n *convNet) forward(x *tensor.Tensor) float32 {
	n.x, n.out = x, n.conv.Infer(x, nil)
	hw := n.out.Dim(1) * n.out.Dim(2)
	y := n.b.W.Data()[0]
	for ch := range n.mean {
		var s float32
		for _, v := range n.out.Data()[ch*hw : (ch+1)*hw] {
			s += float32(math.Max(0, float64(v)))
		}
		n.mean[ch] = s / float32(hw)
		y += n.w.W.Data()[ch] * n.mean[ch]
	}
	return y
}

// backward feeds the convolution the gradient the head and the rectified
// mean hand down: dy/(H·W) where the output is positive, 0 elsewhere.
func (n *convNet) backward(dy float32) {
	hw := n.out.Dim(1) * n.out.Dim(2)
	n.b.Grad.Data()[0] += dy
	dout := tensor.New(n.out.Shape()...)
	for ch := range n.mean {
		n.w.Grad.Data()[ch] += dy * n.mean[ch]
		dmean := n.w.W.Data()[ch] * dy
		for j, v := range n.out.Data()[ch*hw : (ch+1)*hw] {
			if v > 0 {
				dout.Data()[ch*hw+j] = dmean / float32(hw)
			}
		}
	}
	n.conv.Backward(n.x, dout)
}

func (n *convNet) params() []*Param { return append(n.conv.Params(), n.w, n.b) }

// TestChainComposesAndBackprops: the hand-wired chain's parameter
// gradients — the convolution's Backward fed by the rectified mean's and
// the head's — match finite differences of the whole chain.
func TestChainComposesAndBackprops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := newConvNet(rng, 2)
	x := tensor.New(1, 6, 6)
	x.RandNormal(rng, 0, 1)
	if got := CountParams(net.params()); got != 1*2*3*3+2+2+1 {
		t.Fatalf("CountParams = %d", got)
	}
	r := float32(rng.NormFloat64()) // L = r·y, so dL/dy = r
	ZeroGrads(net.params())
	net.forward(x)
	net.backward(r)

	const eps = 1e-2
	const tol = 2e-2
	loss := func() float64 { return float64(r) * float64(net.forward(x)) }
	for _, p := range net.params() {
		w := p.W.Data()
		for _, idx := range sampleIndices(rng, len(w), 12) {
			orig := w[idx]
			w[idx] = orig + eps
			lp := loss()
			w[idx] = orig - eps
			lm := loss()
			w[idx] = orig
			fd := (lp - lm) / (2 * eps)
			an := float64(p.Grad.Data()[idx])
			if math.Abs(fd-an) > tol*(1+math.Abs(fd)) {
				t.Fatalf("%s grad[%d]: analytic %v vs finite-diff %v", p.Name, idx, an, fd)
			}
		}
	}
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
			diff := net.forward(x) - tgt
			total += 0.5 * float64(diff) * float64(diff)
			net.backward(diff / 8)
		}
		opt.Step(net.params())
		last = total / 8
	}
	if last > 0.02 {
		t.Fatalf("network failed to learn: final loss %v", last)
	}
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

// randParams is a convolution's parameters followed by a head's, the order
// the regressor saves them in.
func randParams(rng *rand.Rand, headIn int) []*Param {
	w, b := tensor.New(1, headIn), tensor.New(1)
	w.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	return append(NewConv2D(rng, 2, 3, 3, 1, -1).Params(), NewParam("dense.weight", w), NewParam("dense.bias", b))
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	saved, loaded := randParams(rng, 3), randParams(rng, 3)
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
	var buf bytes.Buffer
	if err := SaveParams(&buf, randParams(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, randParams(rng, 5)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	if err := LoadParams(bytes.NewReader([]byte("NOT-A-WEIGHT-FILE")), randParams(rng, 2)); err == nil {
		t.Fatal("expected magic error")
	}
}

// TestConv2DBackwardShapeMismatchPanics: Backward differentiates at the
// input it is given, so a dy that is not the shape of that input's output
// is refused.
func TestConv2DBackwardShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	conv := NewConv2D(rng, 1, 1, 3, 1, -1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	conv.Backward(tensor.New(1, 4, 4), tensor.New(1, 3, 3))
}
