package main

import (
	"fmt"
	"math"

	"adascale"
)

// des_serve is the virtual-time scheduler with real pool compute — the path
// every serving table in EXPERIMENTS.md uses. It is deterministic, so the
// modelled outputs are gated exactly (metrics snapshot, served outputs and
// mAP identical in every segment) while the wall cost of producing them is
// measured. Workers is a virtual capacity of 4, not nproc. One segment is
// one Run of the seeded load.
//
// The streams play the corpus in the order it was generated, and arrive at
// 4 frames/s each: 64 frames/s keeps the four virtual workers about 80 %
// busy, just under the rate at which the SLO ladder starts lowering scales.
// Past that onset the served scales — and with them the work of a Run —
// depend on the seed's arrival pattern (mean pixels per frame varied by 6 %
// at 4.5 frames/s and 9 % at 5, against 0.1 % at 4), and a workload whose
// work varies by seed cannot hold a bound.

// pinnedDESMAP is des_serve's quality at the default seed (the load seed
// moves arrival times, and where the SLO ladder steps in, a served scale).
const pinnedDESMAP = 0.6812815039746565

type desServe struct {
	e    *env
	load []adascale.ServeStream
}

func prepareDESServe(e *env) (instance, error) {
	load, err := adascale.GenLoad(e.corpus, adascale.LoadConfig{
		Streams:         e.sz.desStreams,
		FPS:             e.sz.desFPS,
		FramesPerStream: e.sz.desFrames,
		Seed:            mix(e.seed, 3),
	})
	if err != nil {
		return nil, err
	}
	return &desServe{e: e, load: load}, nil
}

func (d *desServe) measure(seconds float64, rec *recorder) (*window, error) {
	var digests []uint64
	var maps []float64
	scales := map[int]int{}
	attempted, failed, lost := 0, 0, 0
	badScale, scalesOK := 0, true

	w, err := runSegments(d.e, seconds, 0, false, func(i int) (int, []float64, error) {
		id := rec.begin("serve.run", 0, i)
		srv, err := adascale.NewServer(d.e.sys.Detector, d.e.sys.Regressor, adascale.ServeConfig{
			Workers:    4,
			QueueDepth: 8,
			SLOMS:      200,
			Resilient:  adascale.DefaultResilientConfig(),
		})
		if err != nil {
			return 0, nil, err
		}
		rep := srv.Run(d.load)
		rec.end(id)
		served := rep.Served()
		if i >= 0 {
			dg := newDigest()
			dg.int(int(digestOutputs(served)))
			dg.string(rep.Metrics.Snapshot())
			digests = append(digests, dg.sum())
			maps = append(maps, adascale.Evaluate(adascale.ToEval(served), len(d.e.cfg.Classes)).MAP)
			if bad, ok := countScales(scales, served); !ok && scalesOK {
				badScale, scalesOK = bad, false
			}
			for _, st := range rep.Streams {
				attempted += st.Offered
			}
			failed += rep.TotalDropped() + rep.Lost()
			lost += rep.Lost()
		}
		return len(served), nil, nil
	})
	if err != nil {
		return nil, err
	}
	w.scales = scales
	w.attempted, w.failed = attempted, failed
	w.quality = maps[0]
	w.verify("des_serve.conservation", lost == 0, fmt.Sprintf("%d frames neither served nor dropped", lost))
	w.sameDigests("des_serve.digest_equal_across_segments", digests)
	w.verify("des_serve.scales_within_s_reg", scalesOK, fmt.Sprintf("scale %d outside [%d, %d]", badScale, minScale, maxScale))
	if d.e.sz.pinned && d.e.seed == defaultSeed {
		w.verify("des_serve.quality_map_pinned", math.Abs(maps[0]-pinnedDESMAP) < 1e-12,
			fmt.Sprintf("mAP %.16f, pinned %.16f", maps[0], pinnedDESMAP))
	}
	return w, nil
}

func (d *desServe) finish(*window) {}
