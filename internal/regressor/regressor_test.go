package regressor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adascale/internal/nn"
	"adascale/internal/rfcn"
	"adascale/internal/scaleopt"
	"adascale/internal/synth"
	"adascale/internal/tensor"
)

func TestEncodeTargetRange(t *testing.T) {
	// Extremes of Eq. 3: m=600→m_opt=128 is the strongest down-scale,
	// m=128→m_opt=600 the strongest up-scale.
	if got := EncodeTarget(MaxScale, MinScale); math.Abs(got-(-1)) > 1e-12 {
		t.Fatalf("t(600,128) = %v, want -1", got)
	}
	if got := EncodeTarget(MinScale, MaxScale); math.Abs(got-1) > 1e-12 {
		t.Fatalf("t(128,600) = %v, want +1", got)
	}
	mid := EncodeTarget(480, 480)
	if mid <= -1 || mid >= 1 {
		t.Fatalf("t(480,480) = %v out of (-1,1)", mid)
	}
}

// Property: decode(encode(m, mOpt), m) recovers mOpt for any scale pair in
// range (up to the rounding the paper also performs).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MinScale + rng.Intn(MaxScale-MinScale+1)
		mOpt := MinScale + rng.Intn(MaxScale-MinScale+1)
		return DecodeScale(EncodeTarget(m, mOpt), m) == mOpt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeScaleClips(t *testing.T) {
	if got := DecodeScale(1.5, 600); got != MaxScale {
		t.Fatalf("decode(+1.5) = %d, want clip to %d", got, MaxScale)
	}
	if got := DecodeScale(-1.5, 600); got != MinScale {
		t.Fatalf("decode(-1.5) = %d, want clip to %d", got, MinScale)
	}
	// Identity direction: t for "stay" decodes back to ≈ the base size.
	stay := EncodeTarget(360, 360)
	if got := DecodeScale(stay, 360); got != 360 {
		t.Fatalf("stay decode = %d, want 360", got)
	}
}

func TestDecodeScaleNonFinite(t *testing.T) {
	// A poisoned regressor (NaN/Inf weights) must not poison the scale
	// schedule: a non-finite prediction decodes to the clipped base size,
	// i.e. "keep the current scale".
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := DecodeScale(bad, 360); got != 360 {
			t.Fatalf("decode(%v, 360) = %d, want 360", bad, got)
		}
		// A base outside the test range still comes back clipped.
		if got := DecodeScale(bad, 10_000); got != MaxScale {
			t.Fatalf("decode(%v, 10000) = %d, want %d", bad, got, MaxScale)
		}
		if got := DecodeScale(bad, 1); got != MinScale {
			t.Fatalf("decode(%v, 1) = %d, want %d", bad, got, MinScale)
		}
	}
}

// Property: decoded scale is monotone in t for a fixed base.
func TestDecodeMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 2 || math.Abs(b) > 2 {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return DecodeScale(lo, 400) <= DecodeScale(hi, 400)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randFeatures(rng *rand.Rand, h, w int) *tensor.Tensor {
	f := tensor.New(rfcn.FeatureChannels, h, w)
	f.RandUniform(rng, 0, 1)
	return f
}

func TestForwardScaleAgnostic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := New(rng, DefaultKernels)
	// Different spatial sizes (features from different test scales) must
	// both be accepted — global pooling absorbs the difference.
	_ = r.Forward(randFeatures(rng, 18, 32))
	_ = r.Forward(randFeatures(rng, 4, 7))
}

func TestArchitectureVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kernels := range [][]int{{1}, {1, 3}, {1, 3, 5}} {
		r := New(rng, kernels)
		if len(r.Kernels) != len(kernels) {
			t.Fatalf("kernel set %v not stored", kernels)
		}
		out := r.Forward(randFeatures(rng, 10, 10))
		if math.IsNaN(out) {
			t.Fatalf("NaN output for kernels %v", kernels)
		}
	}
	// Empty kernel list falls back to the paper default.
	r := New(rng, nil)
	if len(r.Kernels) != 2 {
		t.Fatalf("default kernels = %v", r.Kernels)
	}
}

// TestPredictBitIdenticalToForward: Predict is what serving runs and Forward
// what Fit optimises, so a trained weight means the same thing in both only
// if they agree to the bit — on the detector's real feature maps at every
// S_reg scale and for every branch count.
func TestPredictBitIdenticalToForward(t *testing.T) {
	det, frame := detectorFrame(t)
	rng := rand.New(rand.NewSource(9))
	for _, kernels := range [][]int{{1}, {1, 3}, {1, 3, 5}, {1, 3, 5, 7}} {
		r := New(rng, kernels)
		for _, m := range SReg {
			feats := det.Features(frame, m)
			fw, pr := r.Forward(feats), r.Predict(feats)
			if math.Float64bits(fw) != math.Float64bits(pr) {
				t.Errorf("kernels %v, scale %d (features %v): Forward %v, Predict %v", kernels, m, feats.Shape(), fw, pr)
			}
		}
	}
}

// detectorFrame is a detector and one frame of a small VID-like corpus, the
// source of real feature maps.
func detectorFrame(t *testing.T) (*rfcn.Detector, *synth.Frame) {
	t.Helper()
	cfg := synth.VIDLike(31)
	cfg.FramesPerSnippet = 1
	ds, err := synth.Generate(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rfcn.New(&ds.Config, []int{600, 480, 360, 240}), synth.Frames(ds.Train)[0]
}

// referencePredict is the Fig. 4 module written out as its definition, one
// plain loop per step: each branch's convolution (tensor.ConvInto), max(0, ·)
// per output element, the mean of each channel, then the head's dot product
// with the concatenated means, plus the bias. Sums run from +0 in ascending
// order and the mean is the sum times 1/(H·W).
func referencePredict(r *Regressor, x *tensor.Tensor) float64 {
	var concat []float32
	for _, b := range r.branches {
		ho := tensor.ConvOutSize(x.Dim(1), b.Kernel, b.Stride, b.Pad)
		wo := tensor.ConvOutSize(x.Dim(2), b.Kernel, b.Stride, b.Pad)
		out := tensor.New(b.OutC, ho, wo)
		tensor.ConvInto(out, x, b.Weight.W, b.Bias.W, b.Stride, b.Pad)
		d := out.Data()
		for i, v := range d {
			d[i] = max(0, v)
		}
		n := ho * wo
		for ch := 0; ch < b.OutC; ch++ {
			var s float32
			for _, v := range d[ch*n : (ch+1)*n] {
				s += v
			}
			concat = append(concat, s*(1/float32(n)))
		}
	}
	var y float32
	for p, v := range concat {
		y += float32(r.weight.W.Data()[p] * v)
	}
	return float64(y + r.bias.W.Data()[0])
}

// TestPredictMatchesReference holds Predict to referencePredict, bit for
// bit, on the detector's real feature maps at every S_reg scale and for one
// to four branches.
func TestPredictMatchesReference(t *testing.T) {
	det, frame := detectorFrame(t)
	rng := rand.New(rand.NewSource(8))
	for _, kernels := range [][]int{{1}, {1, 3}, {1, 3, 5}, {1, 3, 5, 7}} {
		r := New(rng, kernels)
		r.bias.W.Data()[0] = 0.25
		for _, m := range SReg {
			feats := det.Features(frame, m)
			got, want := r.Predict(feats), referencePredict(r, feats)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("kernels %v, scale %d: Predict %v, reference %v", kernels, m, got, want)
			}
		}
	}
}

// TestRegressorGradients holds Backward's gradient of every parameter — the
// head's weights and bias, each branch's convolution weights and biases —
// to central finite differences of Predict, for one, two and three
// branches. Every element of the head and the biases is checked, and a
// sample of each convolution's weights.
func TestRegressorGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, kernels := range [][]int{{1}, {1, 3}, {1, 3, 5}} {
		r := New(rng, kernels)
		feats := tensor.New(rfcn.FeatureChannels, 5, 7)
		feats.RandNormal(rng, 0.3, 1) // some of every branch's outputs rectified away
		params := r.Params()
		nn.ZeroGrads(params)
		r.Forward(feats)
		r.Backward(1) // dL/dy = 1: the gradients are those of y itself

		const eps = 1e-3
		for _, p := range params {
			w := p.W.Data()
			idx := sampleIndices(rng, len(w), 24)
			for _, i := range idx {
				orig := w[i]
				w[i] = orig + eps
				yp := r.Predict(feats)
				w[i] = orig - eps
				ym := r.Predict(feats)
				w[i] = orig
				fd := (yp - ym) / (2 * eps)
				an := float64(p.Grad.Data()[i])
				if math.Abs(fd-an) > 5e-3+2e-2*math.Abs(fd) {
					t.Fatalf("kernels %v: %s grad[%d] = %v, finite difference %v", kernels, p.Name, i, an, fd)
				}
			}
		}
	}
}

// sampleIndices is every index below n when n <= k, else k distinct ones.
func sampleIndices(rng *rand.Rand, n, k int) []int {
	if n <= k {
		k = n
	}
	return rng.Perm(n)[:k]
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	r := New(rand.New(rand.NewSource(3)), DefaultKernels)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Backward(1)
}

func TestFitLearnsSyntheticMapping(t *testing.T) {
	// Features whose mean encodes the target: the module must be able to
	// learn a clean linear relationship.
	rng := rand.New(rand.NewSource(4))
	var labels []Label
	for i := 0; i < 60; i++ {
		target := -0.8 + 1.6*rng.Float64()
		f := tensor.New(rfcn.FeatureChannels, 6, 6)
		f.RandUniform(rng, 0, 0.2)
		for c := 0; c < 4; c++ {
			for j := 0; j < 36; j++ {
				f.Data()[c*36+j] += float32(0.5 + 0.5*target)
			}
		}
		labels = append(labels, Label{Target: target, Features: f})
	}
	r := New(rng, DefaultKernels)
	before := mse(r, labels)
	losses := r.Fit(labels, TrainConfig{Epochs: 20, BaseLR: 0.05, LRDrops: []float64{0.8}, BatchSize: 2, Seed: 9})
	after := mse(r, labels)
	if after >= before {
		t.Fatalf("training did not reduce loss: %v → %v", before, after)
	}
	if after > 0.01 {
		t.Fatalf("final MSE %v too high for a linear mapping", after)
	}
	if len(losses) != 20 {
		t.Fatalf("expected 20 epoch losses, got %d", len(losses))
	}
}

func TestFitEmptyAndBatchClamp(t *testing.T) {
	r := New(rand.New(rand.NewSource(5)), DefaultKernels)
	if got := r.Fit(nil, DefaultTrainConfig()); got != nil {
		t.Fatal("fitting no labels must be a no-op")
	}
	rng := rand.New(rand.NewSource(6))
	labels := []Label{{Target: 0, Features: randFeatures(rng, 3, 3)}}
	cfg := DefaultTrainConfig()
	cfg.BatchSize = 0 // must clamp to 1 rather than divide by zero
	r.Fit(labels, cfg)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(rng, DefaultKernels)
	feats := randFeatures(rng, 8, 8)
	want := a.Forward(feats)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(rand.New(rand.NewSource(99)), DefaultKernels)
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := b.Forward(feats); got != want {
		t.Fatalf("loaded regressor predicts %v, want %v", got, want)
	}
	// Architecture mismatch must fail.
	var buf2 bytes.Buffer
	if err := a.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	c := New(rng, []int{1, 3, 5})
	if err := c.Load(&buf2); err == nil {
		t.Fatal("loading mismatched architecture must error")
	}
}

// TestLoadIsAllOrNothing: a load that fails changes no weight. A {1,3}
// file read into a {1,5} regressor fails at the second branch's name, after
// the first branch's weights were read, and every truncated prefix of a
// valid file fails somewhere inside it; either way Predict gives the same
// bits after the failed load as before.
func TestLoadIsAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	feats := randFeatures(rng, 8, 8)
	var file bytes.Buffer
	if err := New(rng, []int{1, 3}).Save(&file); err != nil {
		t.Fatal(err)
	}
	check := func(name string, r *Regressor, data []byte) {
		t.Helper()
		want := math.Float64bits(r.Predict(feats))
		if err := r.Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: load succeeded", name)
		}
		if got := math.Float64bits(r.Predict(feats)); got != want {
			t.Fatalf("%s: failed load moved Predict from %x to %x", name, want, got)
		}
	}
	check("{1,3} file into {1,5}", New(rng, []int{1, 5}), file.Bytes())
	r := New(rng, []int{1, 3})
	for n := 0; n < file.Len(); n++ {
		check(fmt.Sprintf("prefix of %d/%d bytes", n, file.Len()), r, file.Bytes()[:n])
	}
}

func TestGenerateLabels(t *testing.T) {
	cfg := synth.VIDLike(31)
	cfg.FramesPerSnippet = 3
	ds, _ := synth.Generate(cfg, 4, 0)
	det := rfcn.New(&ds.Config, []int{600, 480, 360, 240})
	frames := synth.Frames(ds.Train)
	labels := GenerateLabelsAllScales(det, frames, SReg)
	if want := 4 * 3 * len(SReg); len(labels) != want {
		t.Fatalf("labels = %d, want %d", len(labels), want)
	}
	// Label j is frame j/|S_reg| at input scale S_reg[j mod |S_reg|], with
	// Eq. 3's target towards the m_opt the Sec. 3.1 metric picks for it.
	var mOpt int
	for j, lb := range labels {
		f, m := frames[j/len(SReg)], SReg[j%len(SReg)]
		if j%len(SReg) == 0 {
			results := make([]*rfcn.Result, len(SReg))
			for k, s := range SReg {
				results[k] = det.Detect(f, s)
			}
			_, mOpt = scaleopt.Compare(results, f.GroundTruth(), scaleopt.DefaultLambda)
		}
		if lb.Frame != f {
			t.Fatalf("label %d is not frame %d's", j, j/len(SReg))
		}
		if lb.Target < -1-1e-9 || lb.Target > 1+1e-9 {
			t.Fatalf("target %v outside [-1,1]", lb.Target)
		}
		if lb.Features == nil || lb.Features.Dim(0) != rfcn.FeatureChannels {
			t.Fatal("labels must carry cached features")
		}
		if got := EncodeTarget(m, mOpt); got != lb.Target {
			t.Fatalf("label %d: target %v, want Eq. 3's t(%d, %d) = %v", j, lb.Target, m, mOpt, got)
		}
	}
}

// Integration: trained on real generated labels, the regressor must beat
// the best constant predictor on held-out data — i.e. it extracts signal
// from the deep features.
func TestTrainedRegressorBeatsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test")
	}
	cfg := synth.VIDLike(33)
	cfg.FramesPerSnippet = 4
	ds, err := synth.Generate(cfg, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	det := rfcn.New(&ds.Config, []int{600, 480, 360, 240})
	rng := rand.New(rand.NewSource(10))
	train := GenerateLabelsAllScales(det, synth.Frames(ds.Train), SReg)
	val := GenerateLabelsAllScales(det, synth.Frames(ds.Val), SReg)

	r := New(rng, DefaultKernels)
	r.Fit(train, DefaultTrainConfig())
	got := mse(r, val)

	// Best constant predictor (mean of validation targets) as baseline.
	var mean float64
	for _, lb := range val {
		mean += lb.Target
	}
	mean /= float64(len(val))
	var constMSE float64
	for _, lb := range val {
		d := mean - lb.Target
		constMSE += 0.5 * d * d
	}
	constMSE /= float64(len(val))

	if got >= constMSE {
		t.Fatalf("trained regressor MSE %v not better than constant baseline %v", got, constMSE)
	}
}

// BenchmarkFit trains a fresh regressor on the repository benchmark's
// corpus — VIDLike(1), 16 training snippets, dense labels: 960 cached
// feature maps, two epochs — which is the serial part of an adascale.Build
// and so of the benchmark's setup_s. The labels are generated once, outside
// the timer.
func BenchmarkFit(b *testing.B) {
	ds, err := synth.Generate(synth.VIDLike(1), 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	det := rfcn.New(&ds.Config, []int{600, 480, 360, 240})
	labels := GenerateLabelsAllScales(det, synth.Frames(ds.Train), SReg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(rand.New(rand.NewSource(1)), DefaultKernels).Fit(labels, DefaultTrainConfig())
	}
	b.ReportMetric(float64(len(labels)), "labels")
}

// mse is the Eq. 4 loss of r on labels, evaluated without updating weights.
func mse(r *Regressor, labels []Label) float64 {
	var sum float64
	for _, lb := range labels {
		d := r.Forward(lb.Features) - lb.Target
		sum += 0.5 * d * d
	}
	return sum / float64(len(labels))
}
