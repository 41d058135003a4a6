package regressor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adascale/internal/rfcn"
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
// S_reg scale and for every branch count, including a four-branch set that
// takes Predict's fallback.
func TestPredictBitIdenticalToForward(t *testing.T) {
	cfg := synth.VIDLike(31)
	cfg.FramesPerSnippet = 1
	ds, err := synth.Generate(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	det := rfcn.New(&ds.Config, []int{600, 480, 360, 240})
	frame := synth.Frames(ds.Train)[0]
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

func TestGenerateLabels(t *testing.T) {
	cfg := synth.VIDLike(31)
	cfg.FramesPerSnippet = 3
	ds, _ := synth.Generate(cfg, 4, 0)
	det := rfcn.New(&ds.Config, []int{600, 480, 360, 240})
	labels := GenerateLabelsAllScales(det, synth.Frames(ds.Train), SReg)
	if want := 4 * 3 * len(SReg); len(labels) != want {
		t.Fatalf("labels = %d, want %d", len(labels), want)
	}
	for _, lb := range labels {
		if lb.Target < -1-1e-9 || lb.Target > 1+1e-9 {
			t.Fatalf("target %v outside [-1,1]", lb.Target)
		}
		if !containsInt(SReg, lb.InputScale) {
			t.Fatalf("input scale %d not in SReg", lb.InputScale)
		}
		if !containsInt(SReg, lb.OptScale) {
			t.Fatalf("optimal scale %d not in SReg", lb.OptScale)
		}
		if lb.Features == nil || lb.Features.Dim(0) != rfcn.FeatureChannels {
			t.Fatal("labels must carry cached features")
		}
		if got := EncodeTarget(lb.InputScale, lb.OptScale); got != lb.Target {
			t.Fatalf("target %v inconsistent with Eq.3 (%v)", lb.Target, got)
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

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
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
