package nn

import (
	"fmt"
	"math/rand"

	"adascale/internal/tensor"
)

// Dense is a fully-connected layer mapping a length-In vector to a
// length-Out vector: y = W·x + b.
type Dense struct {
	In, Out int
	Weight  *Param // Out × In
	Bias    *Param // Out

	lastX *tensor.Tensor

	// Training scratch: x and dy seen as columns, and the three products.
	xcol, dycol, y, dw, dx scratch
}

// NewDense creates a Dense layer with Xavier-initialised weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	w := tensor.New(out, in)
	w.XavierInit(rng, in, out)
	return &Dense{
		In: in, Out: out,
		Weight: NewParam("dense.weight", w),
		Bias:   NewParam("dense.bias", tensor.New(out)),
	}
}

// Forward computes W·x + b for a 1-D input of length In.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	mustDims(x, 1, "Dense")
	if x.Dim(0) != d.In {
		panic(fmt.Sprintf("nn: Dense expects input length %d, got %d", d.In, x.Dim(0)))
	}
	d.lastX = x
	y := d.y.get(d.Out, 1)
	tensor.MatMulInto(y, d.Weight.W, d.xcol.view(x.Data(), d.In, 1))
	y = d.y.view(y.Data(), d.Out)
	y.AddInPlace(d.Bias.W)
	return y
}

// Backward accumulates dW = dy·xᵀ and db = dy, and returns dx = Wᵀ·dy.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: Dense.Backward called before Forward")
	}
	d.Bias.Grad.AddInPlace(d.dycol.view(dy.Data(), d.Out))
	dyCol := d.dycol.view(dy.Data(), d.Out, 1)
	dw := d.dw.get(d.Out, d.In)
	tensor.MatMulABTInto(dw, dyCol, d.xcol.view(d.lastX.Data(), d.In, 1))
	d.Weight.Grad.AddInPlace(dw)
	dx := d.dx.get(d.In, 1)
	tensor.MatMulATBInto(dx, d.Weight.W, dyCol)
	return d.dx.view(dx.Data(), d.In)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Clone returns an independent deep copy with an empty forward cache.
func (d *Dense) Clone() *Dense {
	return &Dense{In: d.In, Out: d.Out, Weight: d.Weight.Clone(), Bias: d.Bias.Clone()}
}
