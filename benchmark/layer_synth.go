package main

import "adascale/internal/rfcn"

// renderShort mirrors how the detector maps a test scale to the rendered
// shortest side (1/RenderDiv of the test resolution, floored at 16).
func renderShort(scale, renderDiv int) int {
	return max(scale/renderDiv, 16)
}

// probeSynth times rasterising a frame at its test scale — the "decode and
// rescale" stage of a frame. The per-pair times stay on the prober for the
// rfcn probe, which subtracts them from the detector pass they are part of.
func probeSynth(p *prober) error {
	div := p.e.cfg.RenderDiv
	render := func(_ int, in probeInput) {
		in.f.Render(renderShort(in.scale, div), rfcn.MaxLongSide*div, div)
	}
	for i, in := range p.pairs { // untimed: the ladder compares warm calls
		render(i, in)
	}
	p.renders = p.timedEach("synth.render", render)
	p.out["synth.render_ms"] = median(p.renders)
	return nil
}
