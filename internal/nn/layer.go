// Package nn is the training machinery the AdaScale scale regressor (the
// paper's core contribution, Fig. 4) is built from: a convolution layer with
// its forward (Infer) and weight-gradient (Backward) passes, trainable
// parameters, SGD with momentum and a step learning-rate schedule, the scalar
// losses of the optimal-scale metric, and binary weight (de)serialisation.
// It trains the regressor for real, on CPU, with no dependencies beyond the
// standard library. The regressor's rectification, global average pooling
// and fully-connected head are a few fused loops in internal/regressor, not
// layers here; the detector backbone runs the same Conv2D.
//
// A convolution's Backward takes the input it differentiates at and returns
// no input gradient (the layer reads the detector's fixed features, which
// nothing trains). Training operates on single samples (the paper trains with
// batch size 2; the training loop accumulates gradients across a mini-batch
// before stepping) and allocates nothing once warm: Backward's weight-gradient
// product lives in the layer's own scratch, so Backward is not safe for
// concurrent use on one layer; clone it per goroutine instead. A Clone starts
// with none of that storage.
package nn

import (
	"fmt"

	"adascale/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// NewParam allocates a parameter and a matching zeroed gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Clone returns a deep copy of the parameter: weights and accumulated
// gradients share no storage with the original, so per-worker network
// clones can train or run independently.
func (p *Param) Clone() *Param {
	return &Param{Name: p.Name, W: p.W.Clone(), Grad: p.Grad.Clone()}
}

// ZeroGrads clears the gradients of every parameter in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// CountParams returns the total number of scalar parameters in ps.
func CountParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.W.Size()
	}
	return n
}

func mustDims(x *tensor.Tensor, dims int, layer string) {
	if x.Dims() != dims {
		panic(fmt.Sprintf("nn: %s expects a %d-D input, got shape %v", layer, dims, x.Shape()))
	}
}
