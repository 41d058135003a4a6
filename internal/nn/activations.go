package nn

import "adascale/internal/tensor"

// ReLU applies max(0, x) elementwise. Shape-preserving.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies the rectifier and records the active mask for Backward.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	d := out.Data()
	if cap(r.mask) < len(d) {
		r.mask = make([]bool, len(d))
	}
	r.mask = r.mask[:len(d)]
	for i, v := range d {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			d[i] = 0
		}
	}
	return out
}

// Backward zeroes gradient entries where the input was non-positive.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	out := dy.Clone()
	d := out.Data()
	if len(r.mask) != len(d) {
		panic("nn: ReLU.Backward shape does not match last Forward")
	}
	for i := range d {
		if !r.mask[i] {
			d[i] = 0
		}
	}
	return out
}

// Clone returns a fresh ReLU (the active-mask cache is per instance).
func (r *ReLU) Clone() *ReLU { return NewReLU() }
