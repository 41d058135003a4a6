package nn

import (
	"fmt"
	"math/rand"

	"adascale/internal/tensor"
)

// Conv2D is a 2-D convolution over C×H×W inputs with square kernels,
// symmetric zero padding and stride. Forward and Infer run the one forward
// lowering, tensor.ConvInto; im2col appears only in Backward, where the
// weight gradient is a product with the lowered input.
type Conv2D struct {
	InC, OutC           int
	Kernel, Stride, Pad int

	Weight *Param // OutC × InC × K × K
	Bias   *Param // OutC

	lastX *tensor.Tensor // the last Forward input, for Backward

	// Training scratch: Forward's output, Backward's lowered input, dy seen
	// as a matrix, and dW before it is added to the gradient.
	out, cols, dym, dw scratch
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

// Forward computes the convolution of a C×H×W input into the layer's output
// scratch and remembers the input for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	mustDims(x, 3, "Conv2D")
	out := c.out.get(c.OutC,
		tensor.ConvOutSize(x.Dim(1), c.Kernel, c.Stride, c.Pad),
		tensor.ConvOutSize(x.Dim(2), c.Kernel, c.Stride, c.Pad))
	tensor.ConvInto(out, x, c.Weight.W, c.Bias.W, c.Stride, c.Pad) // panics on a channel mismatch
	c.lastX = x
	return out
}

// Infer computes the convolution through the band-tiled kernel into pooled
// storage, which the caller owns (release via pool.PutTensor; a nil pool
// allocates). Unlike Forward it touches no activation caches, so concurrent
// Infer calls on a shared layer are safe; it cannot be followed by Backward.
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
// gradient w.r.t. the last Forward's output. It returns no input gradient:
// the layer's input is the fixed detector's features, which nothing trains.
func (c *Conv2D) Backward(dy *tensor.Tensor) {
	x := c.lastX
	if x == nil {
		panic("nn: Conv2D.Backward called before Forward")
	}
	n := dy.Dim(1) * dy.Dim(2)
	dym := c.dym.view(dy.Data(), c.OutC, n)

	// dW = dy · colsᵀ, cols the im2col lowering of the saved input — which
	// for a 1×1, stride-1, unpadded kernel is the input itself, row for row.
	rows := c.InC * c.Kernel * c.Kernel
	var cols *tensor.Tensor
	if c.Kernel == 1 && c.Stride == 1 && c.Pad == 0 {
		cols = c.cols.view(x.Data(), rows, n)
	} else {
		cols = c.cols.get(rows, n)
		tensor.Im2ColInto(cols, x, c.Kernel, c.Stride, c.Pad)
	}
	dw := c.dw.get(c.OutC, rows)
	tensor.MatMulABTInto(dw, dym, cols)
	wg := c.Weight.Grad.Data()
	for i, v := range dw.Data() {
		wg[i] += v
	}

	// db = row sums of dy
	bd := c.Bias.Grad.Data()
	dyd := dym.Data()
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

// Clone returns an independent deep copy with empty forward caches and no
// training scratch. Layers cache activations between Forward and Backward
// and are not safe for concurrent use; the parallel pipeline gives each
// worker its own clone.
func (c *Conv2D) Clone() *Conv2D {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad,
		Weight: c.Weight.Clone(),
		Bias:   c.Bias.Clone(),
	}
}
