package main

import (
	"math/rand"

	"adascale/internal/detect"
	"adascale/internal/rfcn"
)

// probeDetect times class-wise NMS over 300 seeded boxes at the paper's
// threshold — the detector's post-processing at its output cap.
func probeDetect(p *prober) error {
	rng := rand.New(rand.NewSource(mix(p.e.seed, 22)))
	dets := make([]detect.Detection, 300)
	for i := range dets {
		x, y := rng.Float64()*1000, rng.Float64()*600
		w, h := 20+rng.Float64()*200, 20+rng.Float64()*200
		dets[i] = detect.Detection{
			Box:   detect.Box{X1: x, Y1: y, X2: x + w, Y2: y + h},
			Class: rng.Intn(len(p.e.cfg.Classes)),
			Score: rng.Float64(),
		}
	}
	p.out["detect.nms300_us"] = 1000 * p.timed("detect.nms300", func(int, probeInput) {
		detect.NMS(dets, rfcn.NMSThreshold, rfcn.TopK)
	})
	return nil
}
