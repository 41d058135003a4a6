package main

import "adascale"

// probeAdaScale times one session step (Algorithm 1 behind the degradation
// ladder) and takes it apart. Two sessions walk the same frames in lock
// step, so they test the same scales: one through ResilientSession.Step,
// timed whole, the other through the public pieces Step is made of — Plan,
// DetectWithFeatures, Predict, Finish — as child spans of a composed step.
// step_residual_pct is what the whole costs beyond the sum of its parts,
// frame by frame: the unattributed share the layer ladder must keep small,
// reported, not hidden (negative when the parts ran slower than the whole).
func probeAdaScale(p *prober) error {
	det, reg := p.e.sys.Detector.Clone(), p.e.sys.Regressor.Clone()
	whole := adascale.NewResilientSession(reg.Kernels, adascale.DefaultResilientConfig())
	parts := adascale.NewResilientSession(reg.Kernels, adascale.DefaultResilientConfig())
	for _, in := range p.pairs { // untimed: fills pools, settles the scale
		whole.Step(det, reg, in.f)
		parts.Step(det, reg, in.f)
	}

	n := len(p.pairs)
	step, planFinish, residual := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, in := range p.pairs {
		id := p.rec.begin("adascale.step", 0, i)
		whole.Step(det, reg, in.f)
		step[i] = ms(p.rec.end(id))

		root := p.rec.begin("adascale.step.composed", 0, i)
		id = p.rec.begin("adascale.plan", root, i)
		plan := parts.Plan(in.f)
		planMS := ms(p.rec.end(id))
		id = p.rec.begin("rfcn.detect_with_features", root, i)
		r := det.DetectWithFeatures(in.f, plan.Scale)
		detectMS := ms(p.rec.end(id))
		id = p.rec.begin("regressor.predict", root, i)
		t := reg.Predict(r.Features)
		det.Recycle(r.Features)
		r.Features = nil
		predictMS := ms(p.rec.end(id))
		id = p.rec.begin("adascale.finish", root, i)
		parts.Finish(in.f, plan, r, t, r.RuntimeMS+parts.Overhead())
		finishMS := ms(p.rec.end(id))
		p.rec.end(root)

		planFinish[i] = planMS + finishMS
		residual[i] = 100 * (step[i] - planMS - detectMS - predictMS - finishMS) / step[i]
	}
	p.out["adascale.step_ms"] = median(step)
	p.out["adascale.plan_finish_us"] = 1000 * median(planFinish)
	p.out["adascale.step_residual_pct"] = median(residual)
	p.out["adascale.step_allocs"] = p.allocsPerCall(func(in probeInput) { whole.Step(det, reg, in.f) })
	return nil
}
