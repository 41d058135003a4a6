package nn

import "adascale/internal/tensor"

// GlobalAvgPool reduces a C×H×W tensor to a length-C vector by averaging
// each channel plane. The paper's Fig. 4 regressor uses global pooling as a
// "voting" stage over spatial positions, which also makes the module
// input-size agnostic — required because AdaScale feeds it feature maps
// from images at arbitrary scales.
type GlobalAvgPool struct {
	lastH, lastW int

	out, dx scratch // Forward's and Backward's results
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages each channel plane.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	mustDims(x, 3, "GlobalAvgPool")
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	g.lastH, g.lastW = h, w
	out := g.out.get(c)
	xd, od := x.Data(), out.Data()
	n := h * w
	inv := 1 / float32(n)
	for ch := 0; ch < c; ch++ {
		var s float32
		for _, v := range xd[ch*n : (ch+1)*n] {
			s += v
		}
		od[ch] = s * inv
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	c := dy.Dim(0)
	n := g.lastH * g.lastW
	out := g.dx.get(c, g.lastH, g.lastW)
	od, dyd := out.Data(), dy.Data()
	inv := 1 / float32(n)
	for ch := 0; ch < c; ch++ {
		v := dyd[ch] * inv
		row := od[ch*n : (ch+1)*n]
		for i := range row {
			row[i] = v
		}
	}
	return out
}

// Clone returns a fresh pool (the spatial-size cache is per instance).
func (g *GlobalAvgPool) Clone() *GlobalAvgPool { return NewGlobalAvgPool() }
