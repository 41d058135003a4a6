package serve

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/faults"
)

// TestScratchReuseMatchesCold: one working set serves a sequence of runs —
// large, then small, then large again; resumed from checkpoints; under a
// chaos plan with a kill, a stall, a blackout and a saturation window,
// model-only (so breakers are left open at the end) and with compute (so
// they close); Run and Tally interleaved, every Tally into one recycled
// Report — and each report and registry must equal the one a new working
// set gives: every stream report, the rejections, the duration, the summary,
// the snapshot and the histogram means to the last bit.
func TestScratchReuseMatchesCold(t *testing.T) {
	ds, sys := system(t)
	base := Config{Workers: 2, QueueDepth: 4, SLOMS: 80, Resilient: adascale.DefaultResilientConfig()}
	chaos := base
	chaos.Workers, chaos.MaxStreams = 3, 12
	chaos.Chaos = &faults.SystemPlan{Seed: 5, Events: []faults.SystemEvent{
		{AtMS: 60, Kind: faults.SysWorkerKill, Worker: 1},
		{AtMS: 90, Kind: faults.SysWorkerStall, Worker: 0, DurationMS: 700},
		{AtMS: 140, Kind: faults.SysNodeBlackout, Worker: -1, DurationMS: 80},
		{AtMS: 260, Kind: faults.SysNodeBlackout, Worker: -1, DurationMS: 80},
		{AtMS: 400, Kind: faults.SysQueueSaturate, Worker: -1, DurationMS: 150},
	}}
	modelOnly := func(c Config) Config { c.ModelOnly = true; return c }
	large, small, storm := load(t, ds, 24, 40, 20, 3), load(t, ds, 3, 20, 6, 4), load(t, ds, 16, 30, 30, 5)
	resumed := func(streams []Stream, from *Report) []Stream {
		out := slices.Clone(streams)
		for i := range out[:min(len(out), len(from.Streams))] {
			out[i].Checkpoint = &from.Streams[i].Checkpoint
		}
		return out
	}

	sc, tally := new(scratch), &Report{}
	step := func(name string, cfg Config, streams []Stream, keep bool) *Report {
		t.Helper()
		srv := newServer(t, sys, cfg)
		cold := &Report{}
		srv.runOn(new(scratch), streams, cold, keep, collect(cold), nil)
		warm := tally
		if keep {
			warm = &Report{}
		}
		srv.runOn(sc, streams, warm, keep, collect(warm), nil)
		sameReport(t, name, cold, warm)
		return cold
	}

	first := step("large run", base, large, true)
	storm1 := step("model-only chaos tally", modelOnly(chaos), storm, false)
	if storm1.Metrics.Counter("breaker/open") == 0 || len(storm1.Rejected) == 0 || storm1.Metrics.Counter("stall/delayed") == 0 {
		t.Fatalf("the model-only chaos run opened no breaker, rejected no stream or stalled no dispatch:\n%s", storm1.Metrics.Snapshot())
	}
	step("small resumed run", base, resumed(small, first), true)
	step("large resumed tally", modelOnly(base), resumed(large, storm1), false)
	storm2 := step("chaos run", chaos, storm, true)
	if storm2.Metrics.Counter("breaker/close") == 0 {
		t.Fatalf("the chaos run with compute closed no breaker:\n%s", storm2.Metrics.Snapshot())
	}
	step("small tally", modelOnly(base), small, false)
	step("large run again", base, large, true)
	for _, k := range chaosKeys {
		if storm1.Metrics.Counter(k) == 0 {
			t.Fatalf("the chaos plan applied no %s", k)
		}
	}
	if first.TotalDropped() == 0 || storm1.Metrics.Counter("migrations") == 0 {
		t.Fatal("the sequence dropped no frame or migrated no stream")
	}
}

// sameReport fails unless warm is cold in every field a caller reads.
func sameReport(t *testing.T, name string, cold, warm *Report) {
	t.Helper()
	if cold.Lost() != 0 {
		t.Fatalf("%s: lost %d frames", name, cold.Lost())
	}
	if len(warm.Streams) != len(cold.Streams) {
		t.Fatalf("%s: %d stream reports, a new working set gives %d", name, len(warm.Streams), len(cold.Streams))
	}
	for i := range cold.Streams {
		if !reflect.DeepEqual(warm.Streams[i], cold.Streams[i]) {
			t.Fatalf("%s: stream %d reports\n%+v\na new working set gives\n%+v", name, cold.Streams[i].ID, warm.Streams[i], cold.Streams[i])
		}
	}
	if !slices.Equal(warm.Rejected, cold.Rejected) || warm.DurationMS != cold.DurationMS || warm.Summary != cold.Summary {
		t.Fatalf("%s: rejected %v, duration %v, summary %+v; a new working set gives %v, %v, %+v",
			name, warm.Rejected, warm.DurationMS, warm.Summary, cold.Rejected, cold.DurationMS, cold.Summary)
	}
	if a, b := cold.Metrics.Snapshot(), warm.Metrics.Snapshot(); a != b {
		t.Fatalf("%s: snapshots differ:\n--- new working set ---\n%s--- recycled ---\n%s", name, a, b)
	}
	for _, h := range []string{"latency/ms", "service/ms", "queue/wait_ms", "queue/depth", "recovery/ms", "retry/backoff_ms"} {
		if a, b := cold.Metrics.Mean(h), warm.Metrics.Mean(h); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s mean %v recycled, %v new", name, h, b, a)
		}
	}
}
