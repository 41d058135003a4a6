package main

import (
	"fmt"

	"adascale"
)

// cluster_model runs no detector at all: a 16-node model-only fleet under a
// join/leave/blackout/migrate plan (fixed, see planSeed; the seed drives the
// 12 000 arrival processes) is pure scheduler, placement and
// registry-merge bookkeeping, where the per-dispatch O(sessions) scans
// live. It predicts no change from kernel work and a large one from an
// indexed ready structure. One segment is one cluster Run; "frames" are
// settled frames — served or dropped by the modelled queues. The fleet is
// far over capacity by design (the drops are the simulation's result, not a
// failure of it), so only a frame the simulator loses counts as failed.

type clusterModel struct {
	e    *env
	load []adascale.ServeStream
	plan *adascale.ClusterPlan
}

const clusterEpochMS = 500

func prepareClusterModel(e *env) (instance, error) {
	load, err := adascale.GenLoad(e.corpus, adascale.LoadConfig{
		Streams:         e.sz.clStreams,
		FPS:             e.sz.clFPS,
		FramesPerStream: e.sz.clFrames,
		Seed:            mix(e.seed, 4),
	})
	if err != nil {
		return nil, err
	}
	horizon := 0.0
	for _, st := range load {
		if n := len(st.Frames); n > 0 && st.Frames[n-1].ArrivalMS > horizon {
			horizon = st.Frames[n-1].ArrivalMS
		}
	}
	plan, err := adascale.GenClusterPlan(adascale.ClusterPlanConfig{
		Seed:      planSeed,
		HorizonMS: horizon + clusterEpochMS,
		Rate:      4,
		Nodes:     e.sz.clNodes,
		Streams:   e.sz.clStreams,
	})
	if err != nil {
		return nil, err
	}
	return &clusterModel{e: e, load: load, plan: plan}, nil
}

func (c *clusterModel) measure(seconds float64, rec *recorder) (*window, error) {
	var digests []uint64
	scales := map[int]int{}
	attempted, failed, lost := 0, 0, 0

	w, err := runSegments(c.e, seconds, 0, false, func(i int) (int, []float64, error) {
		id := rec.begin("cluster.run", 0, i)
		cl, err := adascale.NewCluster(c.e.sys.Detector, c.e.sys.Regressor, adascale.ClusterConfig{
			Nodes:   c.e.sz.clNodes,
			EpochMS: clusterEpochMS,
			Plan:    c.plan,
			Node: adascale.ServeConfig{
				Workers:        4,
				QueueDepth:     8,
				SLOMS:          80,
				Resilient:      adascale.DefaultResilientConfig(),
				ModelOnly:      true,
				CompactMetrics: true,
			},
		})
		if err != nil {
			return 0, nil, err
		}
		rep := cl.Run(c.load)
		rec.end(id)
		if i >= 0 {
			dg := newDigest()
			dg.string(rep.String())
			dg.string(rep.Metrics.Snapshot())
			digests = append(digests, dg.sum())
			attempted += rep.Offered
			failed += rep.Lost()
			lost += rep.Lost()
			for s := minScale; s <= maxScale; s++ {
				if n := rep.Metrics.Counter(fmt.Sprintf("scale/%d", s)); n > 0 {
					scales[s] += int(n)
				}
			}
		}
		return rep.Served + rep.Dropped, nil, nil
	})
	if err != nil {
		return nil, err
	}
	w.scales = scales
	w.attempted, w.failed = attempted, failed
	w.verify("cluster_model.conservation", lost == 0, fmt.Sprintf("%d frames neither served nor dropped", lost))
	w.sameDigests("cluster_model.digest_equal_across_segments", digests)
	return w, nil
}

func (c *clusterModel) finish(*window) {}
