// Package nn is the handful of layers the AdaScale scale-regressor (the
// paper's core contribution, Fig. 4) is built from — convolution, ReLU,
// global average pooling, a fully-connected head — with forward/backward
// passes, SGD with momentum and a step learning-rate schedule, the scalar
// losses of the optimal-scale metric, and binary weight (de)serialisation.
// It trains the regressor for real, on CPU, with no dependencies beyond the
// standard library. The regressor wires the layers by hand; there is no
// generic container, and a layer's Backward returns an input gradient only
// where something consumes it (the convolution reads the detector's fixed
// features, so it returns none).
//
// Layers operate on single samples (the paper trains with batch size 2; the
// training loops accumulate gradients across a mini-batch before stepping).
// Layers cache their last input between Forward and Backward and are
// therefore not safe for concurrent use; clone a network per goroutine
// instead.
//
// A training step allocates nothing once warm: what a layer's Forward or
// Backward returns is the layer's own storage, valid until the next call of
// that method on that layer (ReLU works in place on what it is handed), so a
// caller that keeps a result across samples copies it. A Clone starts with
// none of that storage.
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

// scratch is a tensor a layer owns and hands out again on every sample:
// storage and header are reused, growing to the largest shape seen (training
// presents the same few feature-map sizes over and over).
type scratch struct {
	t   *tensor.Tensor
	buf []float32
}

// get returns the scratch with the given shape; its contents are stale.
func (s *scratch) get(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if cap(s.buf) < n {
		s.buf = make([]float32, n)
	}
	return s.view(s.buf[:n], shape...)
}

// view points the scratch's header at storage the layer does not own.
func (s *scratch) view(data []float32, shape ...int) *tensor.Tensor {
	s.t = tensor.FromSliceInto(s.t, data, shape...)
	return s.t
}

func mustDims(x *tensor.Tensor, dims int, layer string) {
	if x.Dims() != dims {
		panic(fmt.Sprintf("nn: %s expects a %d-D input, got shape %v", layer, dims, x.Shape()))
	}
}
