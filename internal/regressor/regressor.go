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
	ratio := (t+1)/2*(rMax-rMin) + rMin
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

// Regressor is the trainable scale-regression module.
type Regressor struct {
	Kernels []int

	branches []*nn.Conv2D
	relus    []*nn.ReLU
	pools    []*nn.GlobalAvgPool
	fc       *nn.Dense

	// Training scratch, reused across samples: the pooled branch outputs
	// side by side (the head's input), the loss gradient as a tensor, and
	// one branch's slice of the head's input gradient.
	concat, dt, dv *tensor.Tensor

	// scratch recycles branch activation buffers across Predict calls.
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
		r.relus = append(r.relus, nn.NewReLU())
		r.pools = append(r.pools, nn.NewGlobalAvgPool())
	}
	r.fc = nn.NewDense(rng, branchChannels*len(kernels), 1)
	return r
}

// Clone returns an independent regressor with identical weights. All
// parameters are deep-copied and activation caches start empty — none of
// the original's training scratch follows it into serving — so a clone can
// run Forward (or even train) concurrently with the original without
// sharing any mutable state.
func (r *Regressor) Clone() *Regressor {
	c := &Regressor{
		Kernels: append([]int(nil), r.Kernels...),
		fc:      r.fc.Clone(),
		scratch: tensor.NewPool(),
	}
	for i := range r.branches {
		c.branches = append(c.branches, r.branches[i].Clone())
		c.relus = append(c.relus, r.relus[i].Clone())
		c.pools = append(c.pools, r.pools[i].Clone())
	}
	return c
}

// Forward regresses t from a deep feature map (C×H×W, any spatial size —
// global pooling absorbs the scale-dependent resolution).
func (r *Regressor) Forward(features *tensor.Tensor) float64 {
	if r.concat == nil {
		r.concat = tensor.New(branchChannels * len(r.branches))
		r.dt, r.dv = tensor.New(1), tensor.New(branchChannels)
	}
	for i := range r.branches {
		v := r.pools[i].Forward(r.relus[i].Forward(r.branches[i].Forward(features)))
		copy(r.concat.Data()[i*branchChannels:], v.Data())
	}
	return float64(r.fc.Forward(r.concat).Data()[0])
}

// Predict regresses t through the inference-only fast path: fused pooled
// convolutions, in-place rectification and an inlined fully-connected
// head. It is bit-identical to Forward, allocates nothing in steady
// state, touches no activation caches (so it cannot be followed by
// Backward) and is safe for concurrent use on clones.
func (r *Regressor) Predict(features *tensor.Tensor) float64 {
	var concat [3 * branchChannels]float32 // supports up to 3 branches
	if len(r.branches) > len(concat)/branchChannels {
		return r.Forward(features)
	}
	for i, branch := range r.branches {
		v := branch.Infer(features, r.scratch)
		d := v.Data()
		// ReLU in place, then the global average — the same ascending
		// summation order as GlobalAvgPool.Forward.
		n := v.Dim(1) * v.Dim(2)
		inv := 1 / float32(n)
		for ch := 0; ch < branchChannels; ch++ {
			var s float32
			for _, x := range d[ch*n : (ch+1)*n] {
				if x > 0 {
					s += x
				}
			}
			concat[i*branchChannels+ch] = s * inv
		}
		r.scratch.PutTensor(v)
	}
	// Inlined Dense head: y = W·concat + b, ascending-index accumulation
	// exactly as the serial matmul kernel computes it.
	wd := r.fc.Weight.W.Data()
	var s float32
	for p := 0; p < branchChannels*len(r.branches); p++ {
		s += wd[p] * concat[p]
	}
	return float64(s + r.fc.Bias.W.Data()[0])
}

// Backward propagates the scalar loss gradient dt through the module,
// accumulating parameter gradients. Must follow Forward.
func (r *Regressor) Backward(dt float64) {
	if r.concat == nil {
		panic("regressor: Backward called before Forward")
	}
	r.dt.Data()[0] = float32(dt)
	dconcat := r.fc.Backward(r.dt)
	for i := range r.branches {
		copy(r.dv.Data(), dconcat.Data()[i*branchChannels:(i+1)*branchChannels])
		r.branches[i].Backward(r.relus[i].Backward(r.pools[i].Backward(r.dv)))
	}
}

// Params returns all trainable parameters.
func (r *Regressor) Params() []*nn.Param {
	var ps []*nn.Param
	for _, b := range r.branches {
		ps = append(ps, b.Params()...)
	}
	return append(ps, r.fc.Params()...)
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
