// Package tensor provides dense float32 tensors and the numeric kernels
// (elementwise ops, the band-tiled convolution and its weight gradient,
// serial matrix products, im2col) used by the detector backbone and the
// scale regressor's convolutions in internal/nn. Tensors are row-major with
// an explicit shape; all operations are deterministic and allocation
// behaviour is documented per function so hot paths can reuse buffers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 array with an explicit shape.
// The zero value is an empty tensor; use New or FromSlice to construct
// useful instances.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// FromSliceInto is FromSlice reusing a caller-owned header: it re-points t
// at data (not copied) with the given shape, recycling t's shape storage,
// and returns t. A nil t allocates a fresh tensor — so a struct-field
// header wired through FromSliceInto makes repeated wrapping allocation-free.
func FromSliceInto(t *Tensor, data []float32, shape ...int) *Tensor {
	if t == nil {
		t = new(Tensor)
	}
	// The shape is copied before it is checked so that the panic formats the
	// copy: a shape that reached fmt would escape, and every caller's
	// variadic literal would be a heap allocation.
	t.shape = append(t.shape[:0], shape...)
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), t.shape, n))
	}
	t.data = data
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape covering the same data.
// The element counts must match. The view shares storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// offset computes the flat index for the given multi-dimensional index.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong arity for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx...)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx...)] = v }

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// MaxAbs returns the largest absolute element value; 0 for empty tensors.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(float64(v) * float64(v)) // rounded: no fused multiply-add
	}
	return math.Sqrt(s)
}

// RandNormal fills t with samples from N(mean, std²) drawn from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.data {
		t.data[i] = float32(float64(rng.NormFloat64()*std) + mean)
	}
}

// RandUniform fills t with samples uniform in [lo, hi).
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.data {
		t.data[i] = float32(lo + float64(rng.Float64()*(hi-lo)))
	}
}

// HeInit fills t with He-normal initialisation for a layer with the given
// fan-in, the standard choice before ReLU nonlinearities.
func (t *Tensor) HeInit(rng *rand.Rand, fanIn int) {
	if fanIn < 1 {
		fanIn = 1
	}
	t.RandNormal(rng, 0, math.Sqrt(2.0/float64(fanIn)))
}

// XavierInit fills t with Xavier-uniform initialisation.
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	if fanIn < 1 {
		fanIn = 1
	}
	if fanOut < 1 {
		fanOut = 1
	}
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	t.RandUniform(rng, -limit, limit)
}

// String renders a compact description, useful in test failures.
func (t *Tensor) String() string {
	if t.Size() <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.shape, t.Size())
}
