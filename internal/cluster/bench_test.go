package cluster

import (
	"runtime"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/serve"
)

// BenchmarkClusterRun is the repository benchmark's cluster_model at a
// quarter of its streams: a 16-node model-only fleet serving 3 000 streams ×
// 30 frames at 30 frames/s under a seeded join/leave/blackout/migrate plan.
// ns/frame, allocs/frame and B/frame are per offered frame of one Run, gc/Run
// the garbage collections per Run; the epoch's node runs fan out over
// parallel.Workers() goroutines.
func BenchmarkClusterRun(b *testing.B) {
	ds, sys := system(b)
	ld := load(b, ds, 3000, 30, 30, 4)
	horizon := 0.0
	for _, st := range ld {
		horizon = max(horizon, st.Frames[len(st.Frames)-1].ArrivalMS)
	}
	plan, err := GenPlan(PlanConfig{Seed: 7, HorizonMS: horizon + 500, Rate: 4, Nodes: 16, Streams: len(ld)})
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(sys.Detector, sys.Regressor, Config{
		Nodes: 16, EpochMS: 500, Plan: plan,
		Node: serve.Config{
			Workers: 4, QueueDepth: 8, SLOMS: 80, Resilient: adascale.DefaultResilientConfig(),
			ModelOnly: true,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	frames := 0
	for n := 0; n < b.N; n++ {
		rep := c.Run(ld)
		if rep.Lost() != 0 {
			b.Fatalf("lost %d frames", rep.Lost())
		}
		frames += rep.Offered
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(frames)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/frame")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/frame")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/Run")
}

// BenchmarkRingAssign is placement at cluster_model's shape: 12 000 keys on
// a ring of 16 nodes that then took 3 joins, assigned into a recycled
// output as every epoch's place does. ns/key is per key of one assignment.
func BenchmarkRingAssign(b *testing.B) {
	r := ringWith(1, 16)
	for n := 16; n < 19; n++ {
		r.Add(n)
	}
	keys := seqKeys(12000)
	out := make([]int, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r.assign(out, keys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}
