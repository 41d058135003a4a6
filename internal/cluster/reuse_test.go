package cluster

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"adascale/internal/parallel"
	"adascale/internal/serve"
)

// TestClusterRunReuseMatchesCold: one run state serves a sequence of
// differently shaped runs — 16 nodes then 3 and back, under a plan with
// every event kind and without one, streams fresh and resumed from
// checkpoints — and each report, snapshot and histogram mean (to the bit)
// must equal what a new state gives. After every run the recycled state must
// hold no pointer into it: not the caller's frames or checkpoints, not a
// served checkpoint.
func TestClusterRunReuseMatchesCold(t *testing.T) {
	ds, sys := system(t)
	node := nodeConfig()
	node.ModelOnly = true
	plan := &Plan{Events: []Event{
		{AtMS: 100, Kind: EvJoin},
		{AtMS: 150, Kind: EvBlackout, Node: 1, DurationMS: 700},
		{AtMS: 500, Kind: EvMigrate, Stream: 3},
		{AtMS: 900, Kind: EvLeave, Node: 0},
	}}
	large, small := load(t, ds, 40, 15, 16, 11), load(t, ds, 9, 20, 8, 5)
	// small, resumed from the checkpoints a serve run leaves.
	srv, err := serve.New(sys.Detector, sys.Regressor, node)
	if err != nil {
		t.Fatal(err)
	}
	resumed := slices.Clone(small)
	for i, sr := range srv.Run(small).Streams {
		resumed[i].Checkpoint = &sr.Checkpoint
	}

	st := new(runState)
	step := func(name string, nodes int, plan *Plan, streams []serve.Stream) *Report {
		t.Helper()
		c := newCluster(t, sys, Config{Nodes: nodes, EpochMS: 400, Plan: plan, Node: node})
		render := func(rep *Report) string {
			checkConserved(t, rep)
			got := rep.String() + rep.Metrics.Snapshot()
			for _, h := range []string{"latency/ms", "queue/wait_ms", "service/ms"} {
				got += fmt.Sprintf("%s mean %b\n", h, rep.Metrics.Mean(h))
			}
			return got
		}
		cold := c.runOn(new(runState), streams)
		if want, got := render(cold), render(c.runOn(st, streams)); got != want {
			t.Fatalf("%s: a recycled run state diverged from a new one:\n--- new ---\n%s\n--- recycled ---\n%s", name, want, got)
		}
		checkReleased(t, name, st)
		return cold
	}

	first := step("16 nodes, plan", 16, plan, large)
	if first.Joins != 1 || first.Blackouts != 1 || first.Failovers == 0 || first.Migrations <= first.Failovers {
		t.Fatalf("the plan did not exercise every event kind:\n%s", first)
	}
	step("3 nodes, resumed", 3, nil, resumed)
	step("3 nodes, plan", 3, plan, large)
	step("16 nodes, resumed", 16, nil, resumed)
	step("3 nodes, fresh", 3, nil, small)
	step("no frames", 2, plan, nil)
	step("16 nodes, plan, again", 16, plan, large)
}

// checkReleased asserts that a finished run's state holds no pointer into
// the run, up to the capacity of every slice it recycles.
func checkReleased(t *testing.T, name string, st *runState) {
	t.Helper()
	for _, s := range st.ordered[:cap(st.ordered)] {
		if s.Frames != nil || s.Checkpoint != nil {
			t.Fatalf("%s: the recycled state still holds stream %d's frames or checkpoint", name, s.ID)
		}
	}
	for i, cp := range st.checkpoint[:cap(st.checkpoint)] {
		if cp.LastDets != nil {
			t.Fatalf("%s: the recycled state still holds checkpoint %d's detections", name, i)
		}
	}
	for _, w := range st.work[:cap(st.work)] {
		for _, s := range w.streams[:cap(w.streams)] {
			if s.Frames != nil || s.Checkpoint != nil {
				t.Fatalf("%s: node %d's work list still holds stream %d's window", name, w.node, s.ID)
			}
		}
	}
	if st.rep != nil {
		t.Fatalf("%s: the recycled state still holds the run's report", name)
	}
}

// TestClusterRunSteadyStateAllocs: once the pooled run state has grown, a
// same-shaped Run allocates a constant — the report, its registry and
// per-node rows, the merged registry's names, each epoch's fan-out and node
// servers, about 100 allocations and 50 KB — not the sorted streams, the
// per-stream slabs or the ring it used to rebuild: without the pool a Run
// cost 335 allocations and 138 KB at 40 streams, 433 and 2.1 MB (529 B a
// stream) at 4000. The collector is off while the Runs are counted, so it
// cannot empty the pools between them, and the least of five Runs is
// pinned: a Run whose goroutine came back from the epoch's fan-out on
// another processor than the last Run's misses the pool (sync.Pool keeps
// one object per processor, and steals none of them).
func TestClusterRunSteadyStateAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector): an allocation pin through it cannot hold")
	}
	ds, sys := system(t)
	node := nodeConfig()
	node.ModelOnly = true
	c := newCluster(t, sys, Config{Nodes: 4, EpochMS: 400, Node: node})
	parallel.SetWorkers(2) // the fan-out's own allocations depend on its width
	t.Cleanup(func() { parallel.SetWorkers(0) })
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const maxAllocs, maxBytesPerStream = 160, 32
	for _, streams := range []int{40, 4000} {
		ld := load(t, ds, streams, 15, 16, 11)
		c.Run(ld)
		allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.Run(ld)
			runtime.ReadMemStats(&after)
			allocs, bytes = min(allocs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d streams: %d allocations, %d B a Run", streams, allocs, bytes)
		if allocs > maxAllocs {
			t.Errorf("%d streams: a same-shaped Run allocates %d times, want at most %d", streams, allocs, maxAllocs)
		}
		if streams >= 1000 && bytes > maxBytesPerStream*uint64(streams) {
			t.Errorf("%d streams: a same-shaped Run allocates %d B, want at most %d a stream", streams, bytes, maxBytesPerStream)
		}
	}
}
