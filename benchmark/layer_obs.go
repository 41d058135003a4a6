package main

import (
	"fmt"

	"adascale/internal/obs"
)

// probeObs times the metrics registry the serving paths record into: one
// counter increment and one histogram sample (paid several times per
// frame), and the two whole-registry operations whose cost grows with every
// sample ever observed — the Prometheus render behind /metrics and the
// merge the cluster simulator does per node per epoch.
func probeObs(p *prober) error {
	m := obs.NewMetrics()
	const ops = 100000
	p.out["obs.inc_ns"] = 1e6 * p.timedN("obs.inc", ops, func() { m.Inc("frames/served", 1) })
	p.out["obs.observe_ns"] = 1e6 * p.timedN("obs.observe", ops, func() { m.Observe("latency/ms", 12.5) })

	big := obs.NewMetrics()
	for i := 0; i < p.e.sz.probeObs; i++ {
		big.Observe("latency/ms", float64(i%997))
		if i%8 == 0 {
			big.Inc(fmt.Sprintf("stream/%d/served", i%4096), 1)
		}
	}
	p.out["obs.prometheus_ms_100k"] = p.timedN("obs.prometheus", 3, func() { big.Prometheus("adascale") })
	p.out["obs.merge_ms"] = p.timedN("obs.merge", 3, func() { obs.NewMetrics().Merge(big) })
	return nil
}
