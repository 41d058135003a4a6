package main

import "adascale/internal/tensor"

// probeRegressor times the scale regressor's inference path on the deep
// features of each probe pair.
func probeRegressor(p *prober) error {
	det, reg := p.e.sys.Detector.Clone(), p.e.sys.Regressor.Clone()
	feats := make([]*tensor.Tensor, len(p.pairs))
	for i, in := range p.pairs {
		feats[i] = det.Features(in.f, in.scale)
	}
	reg.Predict(feats[0]) // fills the scratch pool
	p.out["regressor.predict_ms"] = p.timed("regressor.predict", func(i int, _ probeInput) {
		reg.Predict(feats[i])
	})
	return nil
}
