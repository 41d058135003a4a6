package main

import (
	"adascale/internal/raster"
	"adascale/internal/rfcn"
)

// probeRFCN times the detector's public steps and the whole
// DetectWithFeatures they make up. DetectWithFeatures is render + Extract +
// Detect + feature assembly; the first three are public and timed on the
// same inputs, so what remains of each call — features_self — is
// assembleFeatures, the stage no other record can see.
func probeRFCN(p *prober) error {
	det := p.e.sys.Detector.Clone()
	div := p.e.cfg.RenderDiv
	backbone := rfcn.NewBackbone()
	images := make([]*raster.Image, len(p.pairs))
	for i, in := range p.pairs {
		images[i] = in.f.Render(renderShort(in.scale, div), rfcn.MaxLongSide*div, div)
	}
	// One untimed pass fills the buffer pools.
	for i, in := range p.pairs {
		backbone.Recycle(backbone.Extract(images[i]))
		r := det.DetectWithFeatures(in.f, in.scale)
		det.Recycle(r.Features)
		r.Features = nil
		r.Release()
	}

	extract := p.timedEach("rfcn.extract", func(i int, _ probeInput) {
		backbone.Recycle(backbone.Extract(images[i]))
	})
	detect := p.timedEach("rfcn.detect", func(_ int, in probeInput) {
		det.Detect(in.f, in.scale).Release()
	})
	dwf := func(in probeInput) {
		r := det.DetectWithFeatures(in.f, in.scale)
		det.Recycle(r.Features)
		r.Features = nil
		r.Release()
	}
	whole := p.timedEach("rfcn.detect_with_features", func(_ int, in probeInput) { dwf(in) })

	p.out["rfcn.extract_ms"] = median(extract)
	p.out["rfcn.detect_ms"] = median(detect)
	p.out["rfcn.detect_with_features_ms"] = median(whole)
	p.out["rfcn.features_self_ms"] = median(minus(whole, extract, detect, p.renders))
	p.out["rfcn.detect_with_features_allocs"] = p.allocsPerCall(dwf)
	return nil
}
