package serve

import (
	"fmt"
	"runtime"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/faults"
)

// BenchmarkSchedulerModelOnly measures the scheduler alone: a ModelOnly Run
// (no detector) at des_serve's 16 streams, at a cluster node's ~1000 and at
// 10 000, plain and under a chaos plan. ns/frame and allocs/frame are per served-or-dropped frame of one
// Run; with the dispatch index the curve across stream counts is flat up to
// the log factor, where the per-dispatch scans made it linear.
func BenchmarkSchedulerModelOnly(b *testing.B) {
	ds, sys := system(b)
	for _, streams := range []int{16, 1000, 10000} {
		for _, chaos := range []bool{false, true} {
			name := fmt.Sprintf("streams=%d", streams)
			if chaos {
				name += "/chaos"
			}
			b.Run(name, func(b *testing.B) {
				// The same offered work at every size: ≈ 40 000 frames at
				// 1.25× the four workers' capacity, so sessions queue.
				frames := 40000 / streams
				ld := load(b, ds, streams, 64/float64(streams), frames, 23)
				cfg := Config{
					Workers: 4, QueueDepth: 8, SLOMS: 200,
					Resilient: adascale.DefaultResilientConfig(),
					ModelOnly: true,
				}
				if chaos {
					horizon := ld[0].Frames[frames-1].ArrivalMS
					plan, err := faults.GenSystemPlan(faults.SystemConfig{
						Seed: 23, HorizonMS: horizon, Workers: cfg.Workers,
						KillsPerSec: 0.8, StallsPerSec: 0.5, Blackouts: 2, Saturations: 2,
					})
					if err != nil {
						b.Fatal(err)
					}
					cfg.Chaos = plan
				}
				benchRun(b, newServer(b, sys, cfg), ld)
			})
		}
	}
}

// BenchmarkServeRun is des_serve's shape with real compute: 16 streams × 40
// frames at 4 frames/s each, four workers, queue 8, SLO 200 ms. Its
// allocs/frame is the library's share of the workload's allocs_per_frame
// (the benchmark adds its output digest and the evaluation).
func BenchmarkServeRun(b *testing.B) {
	ds, sys := system(b)
	benchRun(b, newServer(b, sys, Config{
		Workers: 4, QueueDepth: 8, SLOMS: 200, Resilient: adascale.DefaultResilientConfig(),
	}), load(b, ds, 16, 4, 40, 3))
}

// benchRun times b.N Runs of ld and reports ns and allocations per offered
// frame.
func benchRun(b *testing.B, srv *Server, ld []Stream) {
	frames := 0
	for _, st := range ld {
		frames += len(st.Frames)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if rep := srv.Run(ld); rep.Lost() != 0 {
			b.Fatalf("lost %d frames", rep.Lost())
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(frames)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/frame")
}
