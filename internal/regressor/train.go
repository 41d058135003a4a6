package regressor

import (
	"math"
	"math/rand"

	"adascale/internal/nn"
	"adascale/internal/parallel"
	"adascale/internal/rfcn"
	"adascale/internal/scaleopt"
	"adascale/internal/synth"
	"adascale/internal/tensor"
)

// Label is one regressor training example: the detector's deep features for
// a frame rasterised at one S_reg scale, with the Eq. 3 target towards the
// frame's optimal scale.
type Label struct {
	Frame    *synth.Frame
	Target   float64
	Features *tensor.Tensor
}

// GenerateLabelsAllScales implements the label-generation stage of Fig. 2:
// for every frame, the optimal scale m_opt is computed with the Sec. 3.1
// metric over sReg, and the frame contributes one label per scale m in sReg
// with Eq. 3's target t(m, m_opt). The paper draws a single random input
// scale per image per pass ("to best train the regressor, we should scale
// the image to every possible scale for the regressor to learn the
// dynamics"); with a synthetic corpus far smaller than ImageNet VID,
// enumerating the scales provides the same coverage of the dynamics
// between 600 and 128 with less variance. The detector runs once per
// (frame, scale): DetectWithFeatures gives both the detections the metric
// compares (scaleopt.Compare, as scaleopt.OptimalScale would) and the deep
// features, which move onto the label before the result is released.
// Frames are processed in parallel with per-worker detector clones and the
// per-frame label groups concatenated in frame order, matching the
// historical serial loop exactly.
func GenerateLabelsAllScales(det *rfcn.Detector, frames []*synth.Frame, sReg []int) []Label {
	perFrame := parallel.MapWorkers(len(frames), det.Clone, func(d *rfcn.Detector, i int) []Label {
		f := frames[i]
		results := make([]*rfcn.Result, len(sReg))
		for j, m := range sReg {
			results[j] = d.DetectWithFeatures(f, m)
		}
		_, mOpt := scaleopt.Compare(results, f.GroundTruth(), scaleopt.DefaultLambda)
		group := make([]Label, len(sReg))
		for j, r := range results {
			group[j] = Label{
				Frame:    f,
				Target:   EncodeTarget(r.Scale, mOpt),
				Features: r.Features, // kept by the label: Release does not recycle it
			}
			r.Release()
		}
		return group
	})
	labels := make([]Label, 0, len(frames)*len(sReg))
	for _, group := range perFrame {
		labels = append(labels, group...)
	}
	return labels
}

// TrainConfig holds the regressor training recipe.
type TrainConfig struct {
	Epochs    int
	BaseLR    float64
	LRDrops   []float64 // progress fractions where LR divides by 10
	BatchSize int
	Seed      int64
}

// PaperTrainConfig returns the paper's recipe: two epochs, initial learning
// rate 1e-4 divided by 10 after 1.3 epochs, batch size 2 (one image per
// GPU on two GPUs).
func PaperTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 2, BaseLR: 1e-4, LRDrops: []float64{1.3 / 2.0}, BatchSize: 2, Seed: 1}
}

// DefaultTrainConfig keeps the paper's schedule shape (two epochs, one ÷10
// drop at 65% progress, batch 2) but raises the base learning rate: the
// absolute value 1e-4 is tied to the paper's MXNet feature magnitudes; our
// frozen backbone produces differently-scaled activations, and a sweep
// shows 1e-2 converges to the label-noise floor where 1e-4 underfits in two
// epochs.
func DefaultTrainConfig() TrainConfig {
	c := PaperTrainConfig()
	c.BaseLR = 1e-2
	return c
}

// Fit trains the regressor on cached-feature labels with SGD + momentum and
// the Eq. 4 mean-squared-error objective, returning the mean training loss
// of each epoch.
func (r *Regressor) Fit(labels []Label, cfg TrainConfig) []float64 {
	if len(labels) == 0 {
		return nil
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sched := nn.StepSchedule{Base: cfg.BaseLR, Drops: cfg.LRDrops}
	opt := nn.NewSGD(cfg.BaseLR)
	params := r.Params()

	order := make([]int, len(labels))
	for i := range order {
		order[i] = i
	}

	epochLoss := make([]float64, 0, cfg.Epochs)
	steps := 0
	totalSteps := cfg.Epochs * ((len(labels) + cfg.BatchSize - 1) / cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			opt.LR = sched.LR(float64(steps) / float64(totalSteps))
			nn.ZeroGrads(params)
			for _, idx := range order[start:end] {
				lb := labels[idx]
				pred := r.Forward(lb.Features)
				diff := pred - lb.Target
				sum += float64(0.5 * diff * diff) // rounded: no fused multiply-add
				// d(½(pred-t)²)/dpred, averaged over the batch.
				r.Backward(diff / float64(end-start))
			}
			clipGradients(params, 5)
			opt.Step(params)
			steps++
		}
		epochLoss = append(epochLoss, sum/float64(len(labels)))
	}
	return epochLoss
}

// clipGradients rescales all gradients so their global L2 norm does not
// exceed maxNorm — cheap insurance against the occasional exploding step
// that can kill a ReLU branch for good.
func clipGradients(params []*nn.Param, maxNorm float64) {
	var sq float64
	for _, p := range params {
		n := p.Grad.L2Norm()
		sq += float64(n * n) // rounded: no fused multiply-add
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm {
		return
	}
	scale := float32(maxNorm / norm)
	for _, p := range params {
		p.Grad.ScaleInPlace(scale)
	}
}
