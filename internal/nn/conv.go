package nn

import (
	"fmt"
	"math/rand"

	"adascale/internal/tensor"
)

// Conv2D is a 2-D convolution over C×H×W inputs with square kernels,
// symmetric zero padding and stride. Implemented as im2col + matmul so the
// same tested kernels serve forward and backward passes.
type Conv2D struct {
	InC, OutC           int
	Kernel, Stride, Pad int

	Weight *Param // OutC × InC × K × K
	Bias   *Param // OutC

	// cached from the last Forward call
	lastCols       *tensor.Tensor
	lastH, lastW   int
	lastHo, lastWo int

	// wm is the OutC × (InC·K·K) view of Weight.W, built once — the
	// reshape shares storage, so weight updates flow through.
	wm *tensor.Tensor
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

// Forward computes the convolution of a C×H×W input.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	mustDims(x, 3, "Conv2D")
	if x.Dim(0) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects %d input channels, got %d", c.InC, x.Dim(0)))
	}
	h, w := x.Dim(1), x.Dim(2)
	ho := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	wo := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)
	// Reuse the im2col scratch across calls when the spatial size repeats
	// (the training loop presents same-sized feature maps every step).
	cols := c.lastCols
	if cols == nil || cols.Dim(0) != c.InC*c.Kernel*c.Kernel || cols.Dim(1) != ho*wo {
		cols = tensor.New(c.InC*c.Kernel*c.Kernel, ho*wo)
	}
	tensor.Im2ColInto(cols, x, c.Kernel, c.Stride, c.Pad)
	out := tensor.MatMul(c.weightMatrix(), cols) // OutC × (Ho·Wo)
	od := out.Data()
	bd := c.Bias.W.Data()
	n := ho * wo
	for co := 0; co < c.OutC; co++ {
		b := bd[co]
		row := od[co*n : (co+1)*n]
		for i := range row {
			row[i] += b
		}
	}
	c.lastCols, c.lastH, c.lastW, c.lastHo, c.lastWo = cols, h, w, ho, wo
	return out.Reshape(c.OutC, ho, wo)
}

// Infer computes the convolution through the fused im2col-free kernel
// into pooled storage, which the caller owns (release via pool.Put).
// Results are bit-identical to Forward. Unlike Forward it touches no
// activation caches, so concurrent Infer calls on a shared layer are safe;
// it cannot be followed by Backward.
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

// weightMatrix returns the cached 2-D view of the weights.
func (c *Conv2D) weightMatrix() *tensor.Tensor {
	if c.wm == nil {
		c.wm = c.Weight.W.Reshape(c.OutC, c.InC*c.Kernel*c.Kernel)
	}
	return c.wm
}

// Backward accumulates weight/bias gradients and returns dL/dx.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.lastCols == nil {
		panic("nn: Conv2D.Backward called before Forward")
	}
	n := c.lastHo * c.lastWo
	dym := dy.Reshape(c.OutC, n)

	// dW = dy · colsᵀ
	dw := tensor.MatMulABT(dym, c.lastCols)
	c.Weight.Grad.AddInPlace(dw.Reshape(c.Weight.W.Shape()...))

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

	// dx = Col2Im(Wᵀ · dy)
	dcols := tensor.MatMulATB(c.weightMatrix(), dym)
	return tensor.Col2Im(dcols, c.InC, c.lastH, c.lastW, c.Kernel, c.Stride, c.Pad)
}

// Params returns the weight and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Clone returns an independent deep copy with empty forward caches. Layers
// cache activations between Forward and Backward and are not safe for
// concurrent use; the parallel pipeline gives each worker its own clone.
func (c *Conv2D) Clone() *Conv2D {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad,
		Weight: c.Weight.Clone(),
		Bias:   c.Bias.Clone(),
	}
}
