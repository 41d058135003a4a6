package nn

import (
	"fmt"
	"math/rand"

	"adascale/internal/tensor"
)

// Conv2D is a 2-D convolution over C×H×W inputs with square kernels,
// symmetric zero padding and stride. Infer is its one forward,
// tensor.ConvInto; Backward takes the weight gradient from
// tensor.ConvWeightGradInto, which lowers the input through im2col only on
// its portable path (the AVX2 kernel reads the input where it lies).
type Conv2D struct {
	InC, OutC           int
	Kernel, Stride, Pad int

	Weight *Param // OutC × InC × K × K
	Bias   *Param // OutC

	dw *tensor.Tensor // training scratch: dW before it is added to the gradient
}

// NewConv2D creates a convolution with He-initialised weights and zero
// biases. Pad defaults to "same" for stride 1 when pad < 0.
func NewConv2D(rng *rand.Rand, inC, outC, kernel, stride, pad int) *Conv2D {
	if pad < 0 {
		pad = kernel / 2
	}
	w := tensor.New(outC, inC, kernel, kernel)
	w.HeInit(rng, inC*kernel*kernel)
	return &Conv2D{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		Weight: NewParam(fmt.Sprintf("conv%dx%d.weight", kernel, kernel), w),
		Bias:   NewParam(fmt.Sprintf("conv%dx%d.bias", kernel, kernel), tensor.New(outC)),
	}
}

// Infer computes the convolution through the band-tiled kernel into pooled
// storage, which the caller owns (release via pool.PutTensor; a nil pool
// allocates). It keeps nothing, so concurrent Infer calls on a shared layer
// are safe.
func (c *Conv2D) Infer(x *tensor.Tensor, pool *tensor.Pool) *tensor.Tensor {
	mustDims(x, 3, "Conv2D")
	if x.Dim(0) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects %d input channels, got %d", c.InC, x.Dim(0)))
	}
	ho := tensor.ConvOutSize(x.Dim(1), c.Kernel, c.Stride, c.Pad)
	wo := tensor.ConvOutSize(x.Dim(2), c.Kernel, c.Stride, c.Pad)
	out := pool.GetTensor(c.OutC, ho, wo)
	tensor.ConvInto(out, x, c.Weight.W, c.Bias.W, c.Stride, c.Pad)
	return out
}

// Backward accumulates the weight and bias gradients for dy, the loss
// gradient w.r.t. the output Infer computes from x. It returns no input
// gradient: the layer's input is the fixed detector's features, which
// nothing trains. Not safe for concurrent use on one layer.
func (c *Conv2D) Backward(x, dy *tensor.Tensor) {
	if c.dw == nil {
		c.dw = tensor.New(c.OutC, c.InC*c.Kernel*c.Kernel)
	}
	tensor.ConvWeightGradInto(c.dw, dy, x, c.Kernel, c.Stride, c.Pad) // panics on a shape mismatch
	wg := c.Weight.Grad.Data()
	for i, v := range c.dw.Data() {
		wg[i] += v
	}

	// db = row sums of dy
	n := dy.Dim(1) * dy.Dim(2)
	bd := c.Bias.Grad.Data()
	dyd := dy.Data()
	for co := 0; co < c.OutC; co++ {
		var s float32
		for _, v := range dyd[co*n : (co+1)*n] {
			s += v
		}
		bd[co] += s
	}
}

// Params returns the weight and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Clone returns an independent deep copy with no training scratch: Backward
// is not safe for concurrent use, so each training goroutine gets its own
// clone.
func (c *Conv2D) Clone() *Conv2D {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad,
		Weight: c.Weight.Clone(),
		Bias:   c.Bias.Clone(),
	}
}
