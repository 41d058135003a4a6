package main

import (
	"math/rand"

	"adascale/internal/tensor"
)

// backboneConvs are the backbone's three layers as (in, out) channels; each
// is 3×3, stride 2, pad 1 (rfcn.NewBackbone).
var backboneConvs = [3][2]int{{1, 8}, {8, 12}, {12, 12}}

// probeTensor times the fused convolution at the backbone's shapes on
// inputs the size each probe pair renders to. Weights are dense He-initialised
// values, so conv1 — whose real filters are mostly zero taps the kernel
// skips — reads as an upper bound. The operation count is computed from the
// tensor sizes: 2·K²·Cin multiply-adds per output element.
func probeTensor(p *prober) error {
	rng := rand.New(rand.NewSource(mix(p.e.seed, 20)))
	names := [3]string{"tensor.conv1_ms", "tensor.conv2_ms", "tensor.conv3_ms"}
	type conv struct{ dst, x, w, b *tensor.Tensor }
	var flops, totalMS float64
	for l, ch := range backboneConvs {
		w := tensor.New(ch[1], ch[0], 3, 3)
		w.HeInit(rng, ch[0]*9)
		calls := make([]conv, len(p.pairs))
		for i, in := range p.pairs {
			h, wd := p.e.sys.Detector.RenderSize(in.f, in.scale)
			for k := 0; k < l; k++ {
				h, wd = tensor.ConvOutSize(h, 3, 2, 1), tensor.ConvOutSize(wd, 3, 2, 1)
			}
			x := tensor.New(ch[0], h, wd)
			x.RandUniform(rng, 0, 1)
			ho, wo := tensor.ConvOutSize(h, 3, 2, 1), tensor.ConvOutSize(wd, 3, 2, 1)
			calls[i] = conv{dst: tensor.New(ch[1], ho, wo), x: x, w: w, b: tensor.New(ch[1])}
			flops += 2 * 9 * float64(ch[0]) * float64(ch[1]*ho*wo)
		}
		each := p.timedEach(names[l], func(i int, _ probeInput) {
			c := calls[i]
			tensor.ConvInto(c.dst, c.x, c.w, c.b, 2, 1)
		})
		p.out[names[l]] = median(each)
		for _, d := range each {
			totalMS += d
		}
	}
	p.out["tensor.conv_gflops"] = flops / (totalMS / 1000) / 1e9

	// The arena's hit share over a steady loop of same-shape requests, as
	// the backbone issues them.
	pool := tensor.NewPool()
	for i := 0; i < 4*len(p.pairs); i++ {
		in := p.pairs[i%len(p.pairs)]
		h, wd := p.e.sys.Detector.RenderSize(in.f, in.scale)
		pool.PutTensor(pool.GetTensor(8, h/2, wd/2))
	}
	gets, hits, _ := pool.Stats()
	p.out["tensor.pool_hit_share"] = float64(hits) / float64(gets)
	return nil
}
