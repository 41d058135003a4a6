package main

import (
	"math/rand"

	"adascale/internal/nn"
	"adascale/internal/tensor"
)

// probeNN times Conv2D.Infer at the backbone's middle layer and subtracts,
// input by input, the kernel it wraps (tensor.ConvInto on the same input):
// what is left is the layer's own cost — shape checks and the pooled output
// buffer. It is near zero, so run-to-run noise can push it below.
func probeNN(p *prober) error {
	rng := rand.New(rand.NewSource(mix(p.e.seed, 21)))
	layer := nn.NewConv2D(rng, 8, 12, 3, 2, 1)
	pool := tensor.NewPool()
	xs := make([]*tensor.Tensor, len(p.pairs))
	dsts := make([]*tensor.Tensor, len(p.pairs))
	for i, in := range p.pairs {
		h, w := p.e.sys.Detector.RenderSize(in.f, in.scale)
		h, w = tensor.ConvOutSize(h, 3, 2, 1), tensor.ConvOutSize(w, 3, 2, 1)
		xs[i] = tensor.New(8, h, w)
		xs[i].RandUniform(rng, 0, 1)
		dsts[i] = tensor.New(12, tensor.ConvOutSize(h, 3, 2, 1), tensor.ConvOutSize(w, 3, 2, 1))
	}
	infer := p.timedEach("nn.conv_infer", func(i int, _ probeInput) {
		pool.PutTensor(layer.Infer(xs[i], pool))
	})
	kernel := p.timedEach("nn.conv_infer.kernel", func(i int, _ probeInput) {
		tensor.ConvInto(dsts[i], xs[i], layer.Weight.W, layer.Bias.W, 2, 1)
	})
	p.out["nn.conv_infer_self_ms"] = median(minus(infer, kernel))
	return nil
}
