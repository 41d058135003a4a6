package nn_test

// The rectifier, the global average pool and the fully-connected head were
// nn layers until the scale regressor, their one user, fused them into its
// forward and backward. These tests hold that fused arithmetic to what the
// layers computed, at known values where they can, reaching it through the
// regressor's nn.Params: the first branch is a 1×1 convolution set to copy
// feature plane ch to its output channel ch, so the features are the
// rectifier's input and the convolution's gradients read back what the
// rectified mean hands down.

import (
	"math"
	"math/rand"
	"testing"

	"adascale/internal/nn"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/tensor"
)

// knownRegressor returns a regressor whose parameters are all zero except
// the first (1×1) branch's identity weights, with its parameters in
// Params() order: per branch weight and bias, then the head's weight and
// bias.
func knownRegressor(kernels ...int) (*regressor.Regressor, []*nn.Param) {
	r := regressor.New(rand.New(rand.NewSource(14)), kernels)
	ps := r.Params()
	for _, p := range ps {
		p.W.Zero()
	}
	for ch := 0; ch < ps[0].W.Dim(0); ch++ {
		ps[0].W.Set(1, ch, ch, 0, 0)
	}
	return r, ps
}

// planes returns 2×2 features whose plane ch holds planes[ch] and whose
// other planes are zero.
func planes(p map[int][4]float32) *tensor.Tensor {
	x := tensor.New(rfcn.FeatureChannels, 2, 2)
	for ch, v := range p {
		copy(x.Data()[ch*4:], v[:])
	}
	return x
}

// head returns the regressor's fully-connected weights and bias.
func head(ps []*nn.Param) (w, b *nn.Param) { return ps[len(ps)-2], ps[len(ps)-1] }

func expect(t *testing.T, name string, got, want float64) {
	t.Helper()
	if got != want {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

// TestReLUForwardBackward: negative and zero outputs add nothing to the
// mean and receive no gradient; positive ones pass both through.
func TestReLUForwardBackward(t *testing.T) {
	r, ps := knownRegressor(1)
	w, b := head(ps)
	w.W.Set(1, 0, 0)
	b.W.Set(0.5, 0)
	// Output channel 0 is [-1, 0, 2, 6]: rectified mean 2. Plane 2 only
	// reads back, through dW[0][2], the gradient at each position.
	x := planes(map[int][4]float32{0: {-1, 0, 2, 6}, 2: {5, 7, 0, 0}})
	expect(t, "Predict", r.Predict(x), 2.5)
	expect(t, "Forward", r.Forward(x), 2.5)
	r.Backward(1)
	convW, convB := ps[0].Grad, ps[1].Grad
	// dy = [0, 0, 1/4, 1/4]: 1/4 = dt·w/(H·W) where the output is > 0.
	expect(t, "db[0]", float64(convB.At(0)), 0.5)
	expect(t, "dW[0][0]", float64(convW.At(0, 0, 0, 0)), 2)
	expect(t, "dW[0][2] (gradient at the -1 and 0 outputs)", float64(convW.At(0, 2, 0, 0)), 0)
	expect(t, "head dW[0]", float64(w.Grad.At(0, 0)), 2)
	expect(t, "head db", float64(b.Grad.At(0)), 1)
}

// TestGlobalAvgPool: each channel's mean over the plane feeds the head,
// and the head's gradient for that mean is spread evenly back over it.
func TestGlobalAvgPool(t *testing.T) {
	r, ps := knownRegressor(1)
	w, _ := head(ps)
	w.W.Set(4, 0, 0)
	w.W.Set(8, 0, 1)
	// Planes 2 and 3 are one-hot, so dW[ch][2] and dW[ch][3] read dy at
	// the last and the first position of channel ch.
	x := planes(map[int][4]float32{
		0: {1, 2, 3, 4}, 1: {10, 10, 10, 10}, 2: {0, 0, 0, 1}, 3: {1, 0, 0, 0},
	})
	expect(t, "Forward", r.Forward(x), 4*2.5+8*10)
	r.Backward(1)
	// The head's weight gradient at dt = 1 is its input: the pooled means.
	expect(t, "mean[0]", float64(w.Grad.At(0, 0)), 2.5)
	expect(t, "mean[1]", float64(w.Grad.At(0, 1)), 10)
	convW, convB := ps[0].Grad, ps[1].Grad
	expect(t, "db[0]", float64(convB.At(0)), 4)
	expect(t, "db[1]", float64(convB.At(1)), 8)
	expect(t, "dy[0] last position", float64(convW.At(0, 2, 0, 0)), 1)
	expect(t, "dy[0] first position", float64(convW.At(0, 3, 0, 0)), 1)
	expect(t, "dy[1] last position", float64(convW.At(1, 2, 0, 0)), 2)
	expect(t, "dy[1] first position", float64(convW.At(1, 3, 0, 0)), 2)
}

// TestDenseForwardKnown: the head is W·concat + b over both branches'
// means, the second branch's at indices 8 and up.
func TestDenseForwardKnown(t *testing.T) {
	r, ps := knownRegressor(1, 3)
	// The 3×3 branch has zero weights; bias 1 makes its channel 0 all ones.
	ps[3].W.Set(1, 0)
	w, b := head(ps)
	copy(w.W.Data(), []float32{1, 2, 3, 0, 0, 0, 0, 0, -4})
	b.W.Set(0.5, 0)
	x := planes(map[int][4]float32{0: {1, 1, 1, 1}, 1: {2, 2, 2, 2}, 2: {3, 3, 3, 3}})
	expect(t, "Predict", r.Predict(x), 1*1+2*2+3*3-4*1+0.5)
	expect(t, "Forward", r.Forward(x), 1*1+2*2+3*3-4*1+0.5)
}

// TestDenseGradients: the head's analytic gradients match central finite
// differences of Predict, in every weight and the bias.
func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := regressor.New(rng, []int{1, 3})
	x := tensor.New(rfcn.FeatureChannels, 5, 6)
	x.RandNormal(rng, 0, 1)
	ps := r.Params()
	nn.ZeroGrads(ps)
	r.Forward(x)
	r.Backward(1)

	const eps = 1e-2
	const tol = 2e-2
	w, b := head(ps)
	for _, p := range []*nn.Param{w, b} {
		d := p.W.Data()
		for idx, orig := range d {
			d[idx] = orig + eps
			lp := r.Predict(x)
			d[idx] = orig - eps
			lm := r.Predict(x)
			d[idx] = orig
			fd := (lp - lm) / (2 * eps)
			an := float64(p.Grad.Data()[idx])
			if math.Abs(fd-an) > tol*(1+math.Abs(fd)) {
				t.Fatalf("%s grad[%d]: analytic %v vs finite-diff %v", p.Name, idx, an, fd)
			}
		}
	}
}

// TestDenseBitIdenticalToMatMul: the head's products give the bits of the
// matrix products they replaced — y = W·concat + b, dW += dy·concatᵀ,
// db += dy — with exact zeros among the weights and over two accumulated
// samples.
func TestDenseBitIdenticalToMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	r := regressor.New(rng, []int{1, 3})
	ps := r.Params()
	w, b := head(ps)
	b.W.RandNormal(rng, 0, 1)
	in := w.W.Size()
	wantW, wantB := tensor.New(1, in), tensor.New(1)
	same := func(name string, got, want float32) {
		t.Helper()
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s = %v (bits %08x), matmul gives %v (bits %08x)",
				name, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	for sample := 0; sample < 2; sample++ {
		x := tensor.New(rfcn.FeatureChannels, 4, 5)
		x.RandNormal(rng, 0, 1)
		for i := 0; i < in; i += 3 {
			w.W.Data()[rng.Intn(in)] = 0
		}
		// The head's input, read off a clone: at dt = 1 the weight
		// gradient is concat itself.
		c := r.Clone()
		cps := c.Params()
		nn.ZeroGrads(cps)
		c.Forward(x)
		c.Backward(1)
		concat, _ := head(cps)

		y := tensor.MatMul(w.W, concat.Grad.Reshape(in, 1)).At(0, 0) + b.W.At(0)
		same("Predict", float32(r.Predict(x)), y)
		same("Forward", float32(r.Forward(x)), y)

		dy := float32(rng.NormFloat64())
		if sample == 0 {
			dy = -float32(math.Abs(float64(dy)))
		}
		r.Backward(float64(dy))
		for i, v := range tensor.MatMulABT(tensor.FromSlice([]float32{dy}, 1, 1), concat.Grad.Reshape(in, 1)).Data() {
			wantW.Data()[i] += v
		}
		wantB.Data()[0] += dy
		for i, v := range w.Grad.Data() {
			same("dW", v, wantW.Data()[i])
		}
		same("db", b.Grad.At(0), wantB.At(0))
	}
}
