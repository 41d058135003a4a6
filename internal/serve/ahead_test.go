package serve

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/regressor"
	"adascale/internal/synth"
)

// aheadRun is one Run and what its event loop did with compute ahead.
type aheadRun struct {
	rep         *Report
	hits, waste int

	// computed counts each frame's dispatches on the pool: the frames a
	// scheduler that computes at dispatch would have submitted.
	computed map[*synth.Frame]int
}

// runAhead runs streams under cfg on a compute pool of pool workers at
// GOMAXPROCS procs. It also fails the test if a session's scale cap moves
// while the session has no frame open: the cap steps in Plan only, never in
// computeAhead's Peek.
func runAhead(t *testing.T, sys *adascale.System, cfg Config, streams []Stream, pool, procs int) aheadRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	srv := newServer(t, sys, cfg)
	srv.poolWorkers = pool
	r := aheadRun{computed: map[*synth.Frame]int{}}
	seen, caps := map[int]bool{}, map[int]int{}
	r.rep = audited(srv, streams, func(l *eventLoop, _ bool) {
		r.hits, r.waste = l.aheadHits, l.aheadWaste
		for _, w := range l.sup.workers {
			if w.dispID == 0 || seen[w.dispID] {
				continue
			}
			seen[w.dispID] = true
			if inf := l.sessions[w.stream].inflight; !inf.plan.Skip {
				r.computed[inf.frame]++
			}
		}
		for i, s := range l.sessions {
			c, ok := caps[i]
			if now := s.Sess.Checkpoint().ScaleCap; s.inflight != nil || !ok {
				caps[i] = now
			} else if now != c {
				t.Fatalf("t=%v: session %d's scale cap moved from %d to %d with no frame open", l.clockMS, i, c, now)
			}
		}
	}, true)
	return r
}

// checkAgainstSerial fails unless every output the detector served equals a
// serial adascale.Compute of its frame at its served scale: an oracle that
// does not depend on when or where the compute ran. It returns how many
// outputs it checked.
func checkAgainstSerial(t *testing.T, name string, sys *adascale.System, rep *Report) int {
	t.Helper()
	det, reg := sys.Detector.Clone(), sys.Regressor.Clone()
	n := 0
	for _, sr := range rep.Streams {
		for k, out := range sr.Outputs {
			if out.Health.Propagated || out.Health.Fallback == adascale.FallbackEmpty {
				continue // no detector result reached this output
			}
			c := adascale.Compute(det, reg, out.Frame, out.Scale)
			want := c.R.PlainDetections()
			if (len(want) > 0 || len(out.Detections) > 0) && !reflect.DeepEqual(out.Detections, want) || out.DetectorMS != c.R.RuntimeMS {
				t.Fatalf("%s: stream %d output %d at scale %d: %d detections (%v ms), serial compute gives %d (%v ms)",
					name, sr.ID, k, out.Scale, len(out.Detections), out.DetectorMS, len(want), c.R.RuntimeMS)
			}
			c.R.Release()
			n++
		}
	}
	return n
}

// poison replaces every period-th frame of each stream that senses an object
// with a copy whose first object's class is outside the detector's
// vocabulary, so its compute panics; it returns the poisoned frames.
func poison(streams []Stream, period int) map[*synth.Frame]bool {
	bad := map[*synth.Frame]bool{}
	for i := range streams {
		frames := slices.Clone(streams[i].Frames)
		for j := range frames {
			if f := frames[j].Frame; j%period == period-1 && len(f.Objects) > 0 {
				g := *f
				g.Objects = slices.Clone(f.Objects)
				g.Objects[0].Class = 1 << 20
				frames[j].Frame = &g
				bad[&g] = true
			}
		}
		streams[i].Frames = frames
	}
	return bad
}

// TestComputeAheadByteIdentical: a stream's next frame is computed on the
// pool as soon as its plan is fixed, and nothing a Run reports depends on it.
// On des_serve's shape, and under a chaos plan with every system fault kind,
// sensor-skipped frames, open breakers (shed), poisoned frames and queues of
// depth 1 and 2 (so drop-oldest evictions change the frame a queue's head
// is), every served output equals a serial Compute at its served scale, and
// report and snapshot are equal at pool widths 1, 2 and 4 and at GOMAXPROCS
// 1 and 2 (the reference runs a pool of Workers at GOMAXPROCS 2). On
// des_serve's shape at least 95 % of the computed frames start ahead and
// none is wasted; under chaos some are wasted, so the abandon path runs.
// pool/panic_rebuild counts each dispatch of a poisoned frame on the pool
// once, as a scheduler that computed at dispatch would: a poisoned frame
// whose ahead job is abandoned unclaimed counts nothing. A model-only run
// computes nothing ahead. A last run moves some ladders between a settle and
// the next dispatch, so the claim's scale check is what keeps them right.
func TestComputeAheadByteIdentical(t *testing.T) {
	ds, sys := system(t)
	snippets, err := faults.Inject(ds.Val, faults.Mixed(0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	storm, err := GenLoad(snippets, LoadConfig{Streams: 6, FPS: 25, FramesPerStream: 24, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := poison(storm, 5)
	plan := &faults.SystemPlan{Seed: 3, Events: []faults.SystemEvent{
		{AtMS: 70, Kind: faults.SysWorkerKill, Worker: 1},
		{AtMS: 100, Kind: faults.SysNodeBlackout, Worker: -1, DurationMS: 50},
		{AtMS: 200, Kind: faults.SysNodeBlackout, Worker: -1, DurationMS: 50},
		{AtMS: 320, Kind: faults.SysWorkerStall, Worker: 0, DurationMS: 600},
		{AtMS: 450, Kind: faults.SysQueueSaturate, Worker: -1, DurationMS: 200},
		{AtMS: 700, Kind: faults.SysWorkerKill, Worker: 2},
	}}
	chaos := func(depth int) Config {
		return Config{Workers: 3, QueueDepth: depth, SLOMS: 80, Resilient: adascale.DefaultResilientConfig(), Chaos: plan}
	}
	cases := []struct {
		name    string
		cfg     Config
		streams []Stream
		chaos   bool
	}{
		{"des_serve", Config{Workers: 4, QueueDepth: 8, SLOMS: 200, Resilient: adascale.DefaultResilientConfig()}, load(t, ds, 16, 4, 40, 3), false},
		{"chaos depth 1", chaos(1), storm, true},
		{"chaos depth 2", chaos(2), storm, true},
	}
	for _, c := range cases {
		ref := runAhead(t, sys, c.cfg, c.streams, 0, 2)
		m := ref.rep.Metrics
		if ref.rep.Lost() != 0 {
			t.Fatalf("%s: lost %d frames", c.name, ref.rep.Lost())
		}
		if n := checkAgainstSerial(t, c.name, sys, ref.rep); n == 0 {
			t.Fatalf("%s: no output came from the detector", c.name)
		}
		for _, v := range [][2]int{{1, 1}, {2, 2}, {4, 1}} { // pool workers, GOMAXPROCS
			name := fmt.Sprintf("%s at pool %d, GOMAXPROCS %d", c.name, v[0], v[1])
			got := runAhead(t, sys, c.cfg, c.streams, v[0], v[1])
			sameReport(t, name, ref.rep, got.rep)
			if got.hits != ref.hits || got.waste != ref.waste {
				t.Fatalf("%s: %d hits and %d wasted, against %d and %d", name, got.hits, got.waste, ref.hits, ref.waste)
			}
		}

		computed := 0
		for _, n := range ref.computed {
			computed += n
		}
		t.Logf("%s: %d of %d computed frames started ahead, %d ahead jobs wasted; pool/panic_rebuild %d",
			c.name, ref.hits, computed, ref.waste, m.Counter("pool/panic_rebuild"))
		if !c.chaos {
			if ref.waste != 0 || 100*ref.hits < 95*computed {
				t.Fatalf("%s: %d of %d computed frames started ahead and %d were wasted; want ≥ 95 %% and none",
					c.name, ref.hits, computed, ref.waste)
			}
			continue
		}
		if ref.waste == 0 || ref.hits == 0 {
			t.Fatalf("%s: %d hits, %d wasted: the run must claim and abandon ahead jobs", c.name, ref.hits, ref.waste)
		}
		for _, k := range []string{"breaker/shed", "frames/skipped", "frames/dropped", "frames/panic", "retry/failures", "stall/delayed"} {
			if m.Counter(k) == 0 {
				t.Fatalf("%s: %s is 0; the case does not reach that path:\n%s", c.name, k, m.Snapshot())
			}
		}
		want := 0
		for f := range poisoned {
			want += ref.computed[f]
		}
		if got := m.Counter("pool/panic_rebuild"); got != int64(want) {
			t.Fatalf("%s: pool/panic_rebuild = %d, but poisoned frames were dispatched on the pool %d times", c.name, got, want)
		}
	}

	cfg := chaos(1)
	cfg.ModelOnly = true
	if r := runAhead(t, sys, cfg, storm, 0, 2); r.hits != 0 || r.waste != 0 {
		t.Fatalf("model-only run: %d hits and %d wasted, want none", r.hits, r.waste)
	}

	// Nothing in a Run moves a ladder between a frame's settle and the next
	// dispatch, so the claim's scale check never fires above. The hook moves
	// some: their frames computed ahead are at a stale scale, and a dispatch
	// that claimed one would serve it at the new scale.
	moved, waste := map[*synth.Frame]bool{}, 0
	rep := audited(newServer(t, sys, cases[0].cfg), cases[0].streams, func(l *eventLoop, _ bool) {
		waste = l.aheadWaste
		for _, s := range l.sessions {
			if f := s.ahead.frame; s.inflight == nil && s.ahead.res != nil && !moved[f] && len(moved) < 8 {
				cp := s.Sess.Checkpoint()
				cp.TargetScale = regressor.MinScale
				s.Sess.Restore(cp)
				moved[f] = true
			}
		}
	}, true)
	checkAgainstSerial(t, "ladder moved", sys, rep)
	if waste == 0 {
		t.Fatalf("ladder moved: no ahead job was abandoned")
	}
}
