package main

import (
	"adascale"
	"adascale/internal/serve"
)

// probeServe times the virtual-time scheduler with the detector taken out
// (ModelOnly): what is left is queueing, dispatch and metrics bookkeeping
// per frame, at des_serve's 16 streams and at a node-sized 10k streams,
// where the per-dispatch scans over sessions dominate. The two modelled
// figures come from the 16-stream run's registry: they are virtual
// milliseconds on the simulated GPU, not measurements of this machine.
func probeServe(p *prober) error {
	sched := func(name string, streams, frames int, fps float64) (float64, *serve.Report, error) {
		load, err := serve.GenLoad(p.e.val, serve.LoadConfig{Streams: streams, FPS: fps, FramesPerStream: frames, Seed: mix(p.e.seed, 23)})
		if err != nil {
			return 0, nil, err
		}
		srv, err := serve.New(p.e.sys.Detector, p.e.sys.Regressor, serve.Config{
			Workers: 4, QueueDepth: 8, SLOMS: 200,
			Resilient: adascale.DefaultResilientConfig(),
			ModelOnly: true, CompactMetrics: true,
		})
		if err != nil {
			return 0, nil, err
		}
		var rep *serve.Report
		ms := p.timedN(name, 1, func() { rep = srv.Run(load) })
		return 1000 * ms / float64(streams*frames), rep, nil
	}

	small, rep, err := sched("serve.sched_16", p.e.sz.desStreams, 4*p.e.sz.desFrames, p.e.sz.desFPS)
	if err != nil {
		return err
	}
	large, _, err := sched("serve.sched_10k", p.e.sz.probeSched, 1, 10)
	if err != nil {
		return err
	}
	p.out["serve.sched_us_per_frame_16"] = small
	p.out["serve.sched_us_per_frame_10k"] = large
	p.out["serve.queue_wait_ms_p95_modelled"] = rep.Metrics.Quantile("queue/wait_ms", 0.95)
	p.out["serve.latency_ms_p99_modelled"] = rep.Metrics.Quantile("latency/ms", 0.99)

	cfg := serve.LoadConfig{Streams: p.e.sz.desStreams, FPS: p.e.sz.desFPS, FramesPerStream: 200, Seed: mix(p.e.seed, 24)}
	var genErr error
	p.out["serve.genload_ms"] = p.timedN("serve.genload", 5, func() {
		if _, err := serve.GenLoad(p.e.val, cfg); err != nil {
			genErr = err
		}
	})
	return genErr
}
