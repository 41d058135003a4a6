package nn

import "adascale/internal/tensor"

// ReLU applies max(0, x) elementwise, in place. Shape-preserving.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward rectifies x in place, records the active mask for Backward and
// returns x.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	d := x.Data()
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
	return x
}

// Backward zeroes, in place, the entries of dy where the input was
// non-positive, and returns dy.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	d := dy.Data()
	if len(r.mask) != len(d) {
		panic("nn: ReLU.Backward shape does not match last Forward")
	}
	for i := range d {
		if !r.mask[i] {
			d[i] = 0
		}
	}
	return dy
}

// Clone returns a fresh ReLU (the active-mask cache is per instance).
func (r *ReLU) Clone() *ReLU { return NewReLU() }
