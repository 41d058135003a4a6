package main

import (
	"math"

	"adascale/internal/regressor"
)

// probeSimclock fits the paper's runtime model c0 + c1·m² — a fixed cost
// plus a cost per pixel at the test resolution — to this machine's measured
// DetectWithFeatures time over the S_reg scales, by least squares. The
// virtual clock assumes that shape; the fit error says how far
// conclusions drawn on virtual time (SLO sweeps, capacity tables) transfer
// to this implementation.
func probeSimclock(p *prober) error {
	det := p.e.sys.Detector.Clone()
	div := float64(p.e.cfg.RenderDiv)
	var xs, ys []float64 // megapixels at the test scale, measured ms
	for _, scale := range regressor.SReg {
		var mpx float64
		for _, in := range p.pairs {
			h, w := det.RenderSize(in.f, scale)
			mpx += float64(h) * float64(w) * div * div / 1e6
		}
		xs = append(xs, mpx/float64(len(p.pairs)))
		ys = append(ys, p.timed("simclock.detect_at_scale", func(_ int, in probeInput) {
			r := det.DetectWithFeatures(in.f, scale)
			det.Recycle(r.Features)
			r.Features = nil
			r.Release()
		}))
	}
	c0, c1 := leastSquares(xs, ys)
	var errSum float64
	for i := range xs {
		errSum += math.Abs(c0+c1*xs[i]-ys[i]) / ys[i]
	}
	p.out["simclock.c0_ms"] = c0
	p.out["simclock.c1_ms_per_mpx"] = c1
	p.out["simclock.fit_err_pct"] = 100 * errSum / float64(len(xs))
	return nil
}

// leastSquares fits y = a + b·x.
func leastSquares(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	b = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	return (sy - b*sx) / n, b
}
