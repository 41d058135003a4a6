package regress

// Observability conformance: tracing is strictly opt-in (every committed
// golden above must stay byte-identical whether or not a tracer is
// attached), and the tracer's own outputs — per-frame stage spans, the
// aggregated breakdown, the serving layer's stage histograms — are
// themselves deterministic goldens, replayed at workers 1 and 4 like
// every other trace.

import (
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/obs"
	"adascale/internal/serve"
)

// TestGoldenStageBreakdown pins the per-frame stage spans and the
// aggregated per-stage breakdown of Algorithm 1 over the conformance
// split — the decode/rescale/backbone/regress decomposition every
// profiling consumer reads.
func TestGoldenStageBreakdown(t *testing.T) {
	b := conformanceBundle(t)
	sys := b.DefaultSystem()
	trace := AtWorkers(t, func() string {
		tr := obs.NewTracer()
		factory := adascale.TracedRunner(adascale.AdaScaleRunner(sys.Detector, sys.Regressor), tr)
		adascale.RunDataset(b.DS.Val, factory)
		return tr.Format() + "\n" + tr.FormatBreakdown()
	})
	Golden(t, "stage_breakdown", trace)
}

// TestGoldenServeStageSnapshot pins the serving snapshot with the
// per-stage, per-stream and per-SLO histograms the scheduler records when
// a tracer is attached.
func TestGoldenServeStageSnapshot(t *testing.T) {
	b := conformanceBundle(t)
	sys := b.DefaultSystem()
	trace := AtWorkers(t, func() string {
		load, err := serve.GenLoad(b.DS.Val, serve.LoadConfig{
			Streams: 3, FPS: 10, FramesPerStream: 8, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		srv, err := serve.New(sys.Detector, sys.Regressor, serve.Config{
			Workers: 2, QueueDepth: 4, SLOMS: 30,
			Resilient: adascale.DefaultResilientConfig(),
			Tracer:    tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := srv.Run(load)
		return rep.Metrics.Snapshot() + "\n" + tr.FormatBreakdown()
	})
	Golden(t, "serve_stage_snapshot", trace)
}
