// Package regressor implements the AdaScale scale-regressor module
// (Sec. 3.2, Fig. 4 of the paper) — the paper's core contribution — and
// trains it for real with SGD on labels produced by the optimal-scale
// metric.
//
// Architecture (Fig. 4): parallel convolution branches over the detector's
// deep features — a 1×1 branch capturing per-position size information and
// a 3×3 branch capturing local patch complexity (the kernel set is
// configurable for the Table 3 ablation) — each followed by a ReLU and
// global average pooling ("a voting process"), concatenated and fed to a
// fully-connected layer that regresses a single scalar.
//
// The module is one piece of arithmetic: Predict (serving) and Forward
// (training) run the same forward — each branch's nn.Conv2D.Infer, then a
// fused rectified channel mean, then the head's dot product — and Backward
// is its chain rule, ending in each convolution's nn.Conv2D.Backward.
//
// The regressed value is not the optimal scale itself but the normalised
// relative scale t of Eq. 3, in [-1, 1]: "what matters is the content
// instead of the image size itself", so the module learns to react —
// up-sample, down-sample or stay — to the current content.
package regressor

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"adascale/internal/nn"
	"adascale/internal/rfcn"
	"adascale/internal/tensor"
)

// Scale-set constants from the paper.
var (
	// SReg is the label-generation scale set; 128 is included because it
	// is the smallest RPN anchor, "to push the image to an as small as
	// possible scale for the largest potential speed improvement".
	SReg = []int{600, 480, 360, 240, 128}

	// DefaultKernels is the paper's chosen branch kernel set (Table 3's
	// speed/accuracy sweet spot).
	DefaultKernels = []int{1, 3}
)

// Scale bounds of Eq. 3.
const (
	MinScale = 128
	MaxScale = 600
)

// branchChannels is the output depth of each convolution branch.
const branchChannels = 8

// EncodeTarget computes Eq. 3: the normalised relative scale target
// t(m, m_opt) in [-1, 1] for an image currently at scale m whose optimal
// scale is mOpt.
func EncodeTarget(m, mOpt int) float64 {
	rMin := float64(MinScale) / float64(MaxScale)
	rMax := float64(MaxScale) / float64(MinScale)
	return 2*(float64(mOpt)/float64(m)-rMin)/(rMax-rMin) - 1
}

// DecodeScale inverts Eq. 3 (Algorithm 1's decode step): given the
// regressed t and the current image's base size (shortest side), it
// recovers the target scale in floating point, rounds it to an integer and
// clips it to [MinScale, MaxScale]. A non-finite t (NaN/Inf from a
// corrupted regressor or garbage features) would otherwise round into an
// arbitrary int; it instead falls back to the clipped base size — "keep
// the scale that was already in use".
func DecodeScale(t float64, baseSize int) int {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return clipScale(baseSize)
	}
	rMin := float64(MinScale) / float64(MaxScale)
	rMax := float64(MaxScale) / float64(MinScale)
	ratio := float64((t+1)/2*(rMax-rMin)) + rMin // rounded: no fused multiply-add
	return clipScale(int(math.Round(ratio * float64(baseSize))))
}

// clipScale clips a scale to the paper's [MinScale, MaxScale] test range.
func clipScale(s int) int {
	if s < MinScale {
		return MinScale
	}
	if s > MaxScale {
		return MaxScale
	}
	return s
}

// Regressor is the trainable scale-regression module. Its arithmetic is
// one forward (forward), which Predict runs for serving and Forward for
// training, and Backward, the chain rule through that same forward.
type Regressor struct {
	Kernels []int

	branches []*nn.Conv2D
	weight   *nn.Param // the head's 1 × (branchChannels·len(Kernels)) weights
	bias     *nn.Param // the head's bias, 1

	// What Forward keeps for Backward: the features, each branch's output
	// (from scratch) and the rectified channel means side by side, the
	// head's input.
	x      *tensor.Tensor
	outs   []*tensor.Tensor
	concat []float32

	// scratch recycles branch outputs across Predict and training calls.
	// Per-regressor (clones get their own), so workers never contend.
	scratch *tensor.Pool
}

// New creates a regressor over rfcn.FeatureChannels-deep features with one
// convolution branch per kernel size.
func New(rng *rand.Rand, kernels []int) *Regressor {
	if len(kernels) == 0 {
		kernels = DefaultKernels
	}
	r := &Regressor{Kernels: append([]int(nil), kernels...), scratch: tensor.NewPool()}
	for _, k := range kernels {
		conv := nn.NewConv2D(rng, rfcn.FeatureChannels, branchChannels, k, 1, -1)
		// Slightly positive biases keep the ReLU branches alive through the
		// first noisy SGD steps (global average pooling makes a fully-dead
		// branch unrecoverable).
		conv.Bias.W.Fill(0.1)
		r.branches = append(r.branches, conv)
	}
	in := branchChannels * len(kernels)
	w := tensor.New(1, in)
	w.XavierInit(rng, in, 1)
	r.weight = nn.NewParam("dense.weight", w)
	r.bias = nn.NewParam("dense.bias", tensor.New(1))
	return r
}

// Clone returns an independent regressor with identical weights. All
// parameters are deep-copied and none of the original's training state
// follows it into serving, so a clone can run Predict (or even train)
// concurrently with the original without sharing any mutable state.
func (r *Regressor) Clone() *Regressor {
	c := &Regressor{
		Kernels: append([]int(nil), r.Kernels...),
		weight:  r.weight.Clone(),
		bias:    r.bias.Clone(),
		scratch: tensor.NewPool(),
	}
	for _, b := range r.branches {
		c.branches = append(c.branches, b.Clone())
	}
	return c
}

// Predict regresses t from a deep feature map (C×H×W, any spatial size —
// global pooling absorbs the scale-dependent resolution). It allocates
// nothing in steady state, keeps nothing (so it cannot be followed by
// Backward) and is safe for concurrent use on clones.
func (r *Regressor) Predict(features *tensor.Tensor) float64 {
	return r.forward(features, false)
}

// Forward is Predict for training: the same arithmetic and result, but it
// keeps the features, the branch outputs and the head's input for the
// Backward that follows. A later Forward drops what an earlier one kept.
func (r *Regressor) Forward(features *tensor.Tensor) float64 {
	r.release()
	if r.concat == nil {
		r.concat = make([]float32, branchChannels*len(r.branches))
		r.outs = make([]*tensor.Tensor, len(r.branches))
	}
	r.x = features
	return r.forward(features, true)
}

// forward is the module (Fig. 4): per branch the convolution, then the
// rectified mean of each output channel — max(0, ·) summed in ascending
// position order, times 1/(H·W) — and per mean its head term, summed in
// ascending index order from +0; then the bias. keep stores each branch's
// output and means for Backward.
func (r *Regressor) forward(features *tensor.Tensor, keep bool) float64 {
	var means [branchChannels]float32
	wd := r.weight.W.Data()
	var y float32
	for i, branch := range r.branches {
		v := branch.Infer(features, r.scratch)
		mean := means[:]
		if keep {
			r.outs[i] = v
			mean = r.concat[i*branchChannels : (i+1)*branchChannels]
		}
		d := v.Data()
		n := v.Dim(1) * v.Dim(2)
		inv := 1 / float32(n)
		for ch := range mean {
			var s float32
			for _, x := range d[ch*n : (ch+1)*n] {
				if x > 0 {
					s += x
				}
			}
			mean[ch] = s * inv
			y += float32(wd[i*branchChannels+ch] * mean[ch]) // rounded: no fused multiply-add
		}
		if !keep {
			r.scratch.PutTensor(v)
		}
	}
	return float64(y + r.bias.W.Data()[0])
}

// Backward propagates the scalar loss gradient dt through the module,
// accumulating parameter gradients. It must follow Forward, and consumes
// what that Forward kept. Per branch, the gradient of its output is
// dconcat/(H·W) where the output is positive and 0 elsewhere; it is written
// over the output itself, which the convolution's Backward then reads as dy.
func (r *Regressor) Backward(dt float64) {
	if r.x == nil {
		panic("regressor: Backward called before Forward")
	}
	g := float32(dt)
	wd, wg := r.weight.W.Data(), r.weight.Grad.Data()
	r.bias.Grad.Data()[0] += g
	for i, branch := range r.branches {
		v := r.outs[i]
		d := v.Data()
		n := v.Dim(1) * v.Dim(2)
		inv := 1 / float32(n)
		for ch := 0; ch < branchChannels; ch++ {
			p := i*branchChannels + ch
			// Head: dW = dt·concatᵀ and dconcat = Wᵀ·dt, each an
			// accumulator from +0, a zero weight contributing nothing to
			// dconcat, every product rounded before its sum.
			var dw, dc float32
			dw += float32(g * r.concat[p])
			wg[p] += dw
			if wd[p] != 0 {
				dc += float32(wd[p] * g)
			}
			dy := dc * inv
			plane := d[ch*n : (ch+1)*n]
			for j, x := range plane {
				if x > 0 {
					plane[j] = dy
				} else {
					plane[j] = 0
				}
			}
		}
		branch.Backward(r.x, v)
	}
	r.release()
}

// release returns the branch outputs a Forward kept to the pool.
func (r *Regressor) release() {
	for i, v := range r.outs {
		if v != nil {
			r.scratch.PutTensor(v)
			r.outs[i] = nil
		}
	}
	r.x = nil
}

// Params returns all trainable parameters.
func (r *Regressor) Params() []*nn.Param {
	var ps []*nn.Param
	for _, b := range r.branches {
		ps = append(ps, b.Params()...)
	}
	return append(ps, r.weight, r.bias)
}

// Save serialises the regressor weights.
func (r *Regressor) Save(w io.Writer) error { return nn.SaveParams(w, r.Params()) }

// Load restores weights saved by Save into a regressor of identical
// architecture.
func (r *Regressor) Load(rd io.Reader) error { return nn.LoadParams(rd, r.Params()) }

// String describes the architecture.
func (r *Regressor) String() string {
	return fmt.Sprintf("Regressor(kernels=%v, params=%d)", r.Kernels, nn.CountParams(r.Params()))
}
