package main

import (
	"adascale"
	"adascale/internal/cluster"
	"adascale/internal/serve"
)

// probeCluster times the two pieces of cluster bookkeeping that scale with
// the stream count: assigning every stream on the bounded-load ring, and
// one placement epoch of a model-only fleet (events, placement, the node
// runs and the registry merges).
func probeCluster(p *prober) error {
	keys := make([]int, p.e.sz.probeRing)
	for i := range keys {
		keys[i] = i
	}
	ring := cluster.NewRing(cluster.RingConfig{Seed: mix(p.e.seed, 25)})
	for n := 0; n < p.e.sz.clNodes; n++ {
		ring.Add(n)
	}
	p.out["cluster.ring_assign_ms_30k"] = p.timedN("cluster.ring_assign", 3, func() { ring.Assign(keys) })

	load, err := serve.GenLoad(p.e.val, serve.LoadConfig{
		Streams: p.e.sz.clStreams / 4, FPS: p.e.sz.clFPS, FramesPerStream: p.e.sz.clFrames, Seed: mix(p.e.seed, 26),
	})
	if err != nil {
		return err
	}
	cl, err := cluster.New(p.e.sys.Detector, p.e.sys.Regressor, cluster.Config{
		Nodes:   p.e.sz.clNodes,
		EpochMS: clusterEpochMS,
		Node: serve.Config{
			Workers: 4, QueueDepth: 8, SLOMS: 80,
			Resilient: adascale.DefaultResilientConfig(),
			ModelOnly: true, CompactMetrics: true,
		},
	})
	if err != nil {
		return err
	}
	var rep *cluster.Report
	ms := p.timedN("cluster.sim", 1, func() { rep = cl.Run(load) })
	p.out["cluster.sim_ms_per_epoch"] = ms / float64(rep.Epochs)
	return nil
}
