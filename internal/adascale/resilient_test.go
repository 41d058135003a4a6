package adascale

import (
	"math"
	"testing"

	"adascale/internal/eval"
	"adascale/internal/faults"
	"adascale/internal/obs"
	"adascale/internal/parallel"
	"adascale/internal/regressor"
	"adascale/internal/synth"
)

// faulted injects the standard mixed fault soup into the validation split.
func faulted(t *testing.T, ds *synth.Dataset, rate float64, seed int64) []synth.Snippet {
	t.Helper()
	out, err := faults.Inject(ds.Val, faults.Mixed(rate, seed))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResilientMatchesAdaScaleOnCleanStream pins the "resilience is free"
// contract: with no faults, a finite regressor and no deadline,
// RunResilient follows exactly RunAdaScale's scale schedule and costs, and
// emits identical detections on every frame where the detector produced
// any — the only permitted divergence is bridging a detector flicker
// (naive emits empty, resilient propagates with explicit accounting).
func TestResilientMatchesAdaScaleOnCleanStream(t *testing.T) {
	ds, sys := system(t)
	for i := range ds.Val {
		want := RunAdaScale(sys.Detector, sys.Regressor, &ds.Val[i])
		got := RunResilient(sys.Detector, sys.Regressor, &ds.Val[i], DefaultResilientConfig())
		if len(want) != len(got) {
			t.Fatalf("snippet %d: %d outputs, want %d", i, len(got), len(want))
		}
		for j := range want {
			w, g := want[j], got[j]
			if w.Frame != g.Frame || w.Scale != g.Scale || w.DetectorMS != g.DetectorMS || w.OverheadMS != g.OverheadMS {
				t.Fatalf("snippet %d frame %d: (scale %d, det %v, over %v), want (%d, %v, %v)",
					i, j, g.Scale, g.DetectorMS, g.OverheadMS, w.Scale, w.DetectorMS, w.OverheadMS)
			}
			if len(w.Detections) == 0 {
				if len(g.Detections) != 0 && !g.Health.Propagated {
					t.Fatalf("snippet %d frame %d: unaccounted extra detections on a flickered frame", i, j)
				}
				continue
			}
			if len(w.Detections) != len(g.Detections) {
				t.Fatalf("snippet %d frame %d: %d detections, want %d", i, j, len(g.Detections), len(w.Detections))
			}
			for k := range w.Detections {
				if w.Detections[k] != g.Detections[k] {
					t.Fatalf("snippet %d frame %d det %d: %+v, want %+v", i, j, k, g.Detections[k], w.Detections[k])
				}
			}
			if g.Health.Degraded() {
				t.Fatalf("snippet %d frame %d: degradation accounting %+v on a clean detected frame", i, j, g.Health)
			}
		}
	}
}

// TestResilientSurvivesPoisonedRegressor poisons every regressor weight
// with NaN: the ladder must keep the scale schedule in range (falling back
// to the last good scale, then the 600 default) and keep detecting.
func TestResilientSurvivesPoisonedRegressor(t *testing.T) {
	ds, sys := system(t)
	bad := sys.Regressor.Clone()
	for _, p := range bad.Params() {
		p.W.Fill(float32(math.NaN()))
	}
	outs := RunResilient(sys.Detector, bad, &ds.Val[0], DefaultResilientConfig())
	clamped := 0
	for i, o := range outs {
		if o.Scale < regressor.MinScale || o.Scale > regressor.MaxScale {
			t.Fatalf("frame %d: scale %d escaped [%d, %d]", i, o.Scale, regressor.MinScale, regressor.MaxScale)
		}
		if o.Scale != InitialScale {
			t.Fatalf("frame %d: scale %d; a fully poisoned regressor must hold the default", i, o.Scale)
		}
		if o.Health.PredictionClamped {
			clamped++
			switch o.Health.Fallback {
			case FallbackLastScale, FallbackDefaultScale:
			default:
				t.Fatalf("frame %d: clamped prediction with fallback %v", i, o.Health.Fallback)
			}
		}
	}
	if clamped != len(outs) {
		t.Fatalf("%d/%d frames flagged PredictionClamped; NaN output should flag all", clamped, len(outs))
	}
	s := Summarize(outs)
	if s.FallbackCounts[FallbackDefaultScale] == 0 || s.FallbackCounts[FallbackLastScale] == 0 {
		t.Fatalf("expected both scale fallbacks to fire: %v", s)
	}
}

// TestResilientAccountsEveryFrame is the acceptance invariant: under mixed
// faults, no frame is emitted without detections or explicit degradation
// accounting, and sensor-observable faults never reach the detector.
func TestResilientAccountsEveryFrame(t *testing.T) {
	ds, sys := system(t)
	val := faulted(t, ds, 0.10, 99)
	outs := RunDatasetSerial(val, ResilientRunner(sys.Detector, sys.Regressor, DefaultResilientConfig())())
	s := Summarize(outs)
	if s.Unaccounted != 0 {
		t.Fatalf("%d unaccounted frames (no detections, no degradation record): %v", s.Unaccounted, s)
	}
	if s.Frames != len(outs) || s.Frames == 0 {
		t.Fatalf("summary frames %d, outputs %d", s.Frames, len(outs))
	}
	for i, o := range outs {
		f := o.Frame.Fault
		if f.SensorObservable() {
			if o.Health.Fallback != FallbackPropagate && o.Health.Fallback != FallbackEmpty {
				t.Fatalf("frame %d: sensor fault %v handled by %v", i, f.Kind, o.Health.Fallback)
			}
			if o.DetectorMS > 10 {
				t.Fatalf("frame %d: sensor-faulted frame charged %v ms — the detector ran on garbage", i, o.DetectorMS)
			}
		}
		if o.Health.Fault != kindOf(f) {
			t.Fatalf("frame %d: health fault %v, frame fault %v", i, o.Health.Fault, kindOf(f))
		}
	}
	if s.Recoveries == 0 || s.MeanRecoveryFrames() <= 0 {
		t.Fatalf("expected recovery accounting under 10%% faults: %v", s)
	}
}

func kindOf(f *synth.Fault) synth.FaultKind {
	if f == nil {
		return synth.FaultNone
	}
	return f.Kind
}

// TestResilientDeterministicAcrossWorkers: same seed + config ⇒ identical
// output stream and identical HealthSummary at any worker count.
func TestResilientDeterministicAcrossWorkers(t *testing.T) {
	ds, sys := system(t)
	val := faulted(t, ds, 0.12, 7)
	cfg := DefaultResilientConfig()
	cfg.DeadlineMS = 60
	factory := ResilientRunner(sys.Detector, sys.Regressor, cfg)
	serial := RunDatasetSerial(val, factory())
	ref := Summarize(serial)
	t.Cleanup(func() { parallel.SetWorkers(0) }) // guard the t.Fatal paths below
	for _, workers := range []int{1, 2, 5} {
		parallel.SetWorkers(workers)
		got := RunDataset(val, factory)
		parallel.SetWorkers(0)
		assertSameOutputs(t, serial, got)
		if s := Summarize(got); s != ref {
			t.Fatalf("workers=%d: summary diverged:\n  %v\nvs %v", workers, s, ref)
		}
	}
}

// TestTracedResilientSpans traces the resilient runner post hoc over a
// faulted stream, the way adascale-train's fault smoke does: each frame's
// spans sum to its output's TotalMS, a fault-inject span marks exactly the
// frames that carry a fault, frames are numbered 0…n−1 under their snippet's
// ID, and the trace text is the same at workers 1 and 4.
func TestTracedResilientSpans(t *testing.T) {
	ds, sys := system(t)
	val := faulted(t, ds, 0.3, 11)
	type key struct{ stream, frame int }
	var ref string
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		tr := obs.NewTracer()
		outs := RunDataset(val, TracedRunner(ResilientRunner(sys.Detector, sys.Regressor, DefaultResilientConfig()), tr))
		sum, injected := map[key]float64{}, map[key]bool{}
		for _, sp := range tr.Spans() {
			sum[key{sp.Stream, sp.Frame}] += sp.DurMS
			if sp.Stage == obs.StageFaultInject {
				injected[key{sp.Stream, sp.Frame}] = true
			}
		}
		i, nFaulted := 0, 0
		for _, sn := range val {
			for f := range sn.Frames {
				o, k := outs[i], key{sn.ID, f}
				i++
				if math.Abs(sum[k]-o.TotalMS()) > 1e-9 {
					t.Fatalf("workers=%d s%03d/%02d: spans sum to %v ms, output costs %v", workers, k.stream, k.frame, sum[k], o.TotalMS())
				}
				if hasFault := o.Health.Fault != synth.FaultNone; injected[k] != hasFault {
					t.Fatalf("workers=%d s%03d/%02d: fault-inject span %v, Health.Fault %v", workers, k.stream, k.frame, injected[k], o.Health.Fault)
				}
				if injected[k] {
					nFaulted++
				}
			}
		}
		if len(sum) != len(outs) || nFaulted == 0 {
			t.Fatalf("workers=%d: spans on %d (stream, frame) pairs for %d frames, %d faulted", workers, len(sum), len(outs), nFaulted)
		}
		if workers == 1 {
			ref = tr.Format()
		} else if tr.Format() != ref {
			t.Fatalf("trace at workers=%d differs from workers=1", workers)
		}
	}
}

// TestResilientBeatsNaiveUnderFaults is the headline robustness claim:
// under 10% mixed faults the resilient runner retains strictly more mAP
// than naive AdaScale run blind over the same corrupted stream.
func TestResilientBeatsNaiveUnderFaults(t *testing.T) {
	ds, sys := system(t)
	val := faulted(t, ds, 0.10, 42)
	nC := len(ds.Config.Classes)

	naive := RunDataset(val, AdaScaleRunner(sys.Detector, sys.Regressor))
	res := RunDataset(val, ResilientRunner(sys.Detector, sys.Regressor, DefaultResilientConfig()))

	naiveMAP := eval.Evaluate(toEval(naive), nC).MAP
	resMAP := eval.Evaluate(toEval(res), nC).MAP
	if resMAP <= naiveMAP {
		t.Fatalf("resilient mAP %.4f must beat naive %.4f under 10%% faults", resMAP, naiveMAP)
	}
}

// TestResilientDeadlineForcesScaleDown: a deadline below the scale-600
// cost must force the ladder down and land the rolling mean at or under
// the deadline once the window fills.
func TestResilientDeadlineForcesScaleDown(t *testing.T) {
	ds, sys := system(t)
	cfg := DefaultResilientConfig()
	cfg.DeadlineMS = 40
	cfg.BudgetWindow = 4
	outs := RunResilient(sys.Detector, sys.Regressor, &ds.Val[0], cfg)
	free := RunResilient(sys.Detector, sys.Regressor, &ds.Val[0], DefaultResilientConfig())

	s := Summarize(outs)
	if s.DeadlineForced == 0 {
		t.Fatalf("a 40 ms deadline must force scales down: %v", s)
	}
	if got, ref := MeanRuntimeMS(outs), MeanRuntimeMS(free); got >= ref {
		t.Fatalf("deadline-capped mean runtime %v not below unconstrained %v", got, ref)
	}
	// The tail of the snippet (ladder settled) must respect the deadline.
	tail := outs[len(outs)/2:]
	if got := MeanRuntimeMS(tail); got > cfg.DeadlineMS*1.1 {
		t.Fatalf("settled mean runtime %v ms over the %v ms deadline", got, cfg.DeadlineMS)
	}
	for _, o := range outs {
		if o.Health.DeadlineForced && o.Scale >= InitialScale {
			t.Fatalf("deadline-forced frame still at scale %d", o.Scale)
		}
	}
}

// TestResilientSessionResetNoLeak is the cross-stream isolation
// regression test: a session reused for a second stream (ResilientRunner
// reuses one session per worker, the serving layer reuses sessions across
// stream restarts) must behave exactly like a fresh session — no last-good
// detections, scale schedule, deadline cap or budget state may leak from
// the previous stream.
func TestResilientSessionResetNoLeak(t *testing.T) {
	ds, sys := system(t)
	// A faulted first stream with a tight deadline maximises leakable
	// state: propagated detections, a lowered scale cap, a full budget.
	val := faulted(t, ds, 0.25, 31)
	cfg := DefaultResilientConfig()
	cfg.DeadlineMS = 40

	sess := NewResilientSession(sys.Regressor.Kernels, cfg)
	_ = runSession(sess, sys.Detector, sys.Regressor, &val[0])

	// Reused with Reset: byte-identical to a fresh session on stream 2.
	sess.Reset()
	got := runSession(sess, sys.Detector, sys.Regressor, &val[1])
	want := RunResilient(sys.Detector, sys.Regressor, &val[1], cfg)
	assertSameOutputs(t, want, got)
	if s, w := Summarize(got), Summarize(want); s != w {
		t.Fatalf("reused session summary diverged:\n  %v\nvs %v", s, w)
	}

	// Reused WITHOUT Reset the leak is observable (this is the bug the
	// Reset fixes): the first frame must start at InitialScale on a fresh
	// stream, while the dirty session carries the previous stream's
	// schedule and deadline cap.
	dirty := runSession(sess, sys.Detector, sys.Regressor, &val[1])
	if dirty[0].Scale == InitialScale && !dirty[0].Health.DeadlineForced {
		t.Fatalf("dirty session started stream 2 at the clean initial state — leak test lost its teeth")
	}

	// The factory contract: every snippet a reused worker runner processes
	// matches a fresh RunResilient (sequential reuse across sessions).
	run := ResilientRunner(sys.Detector, sys.Regressor, cfg)()
	for i := range val[:3] {
		assertSameOutputs(t, RunResilient(sys.Detector, sys.Regressor, &val[i], cfg), run(&val[i]))
	}
}

// TestRunDatasetPartialRecoversPanickingSnippet: one poisoned snippet is
// recovered into a SnippetError with explicit FallbackPanic placeholder
// frames; every other snippet is identical to the clean run.
func TestRunDatasetPartialRecoversPanickingSnippet(t *testing.T) {
	ds, sys := system(t)
	poison := ds.Val[2].ID
	factory := func() SnippetRunner {
		run := AdaScaleRunner(sys.Detector, sys.Regressor)()
		return func(sn *synth.Snippet) []FrameOutput {
			if sn.ID == poison {
				panic("simulated runner bug")
			}
			return run(sn)
		}
	}
	t.Cleanup(func() { parallel.SetWorkers(0) }) // guard the t.Fatal paths below
	for _, workers := range []int{1, 3} {
		parallel.SetWorkers(workers)
		outs, errs := RunDatasetPartial(ds.Val, factory)
		parallel.SetWorkers(0)
		if len(errs) != 1 || errs[0].Index != 2 || errs[0].ID != poison {
			t.Fatalf("workers=%d: errs = %v, want exactly snippet index 2", workers, errs)
		}
		if len(outs) != totalFrames(ds.Val) {
			t.Fatalf("workers=%d: %d outputs, want every frame accounted (%d)", workers, len(outs), totalFrames(ds.Val))
		}
		s := Summarize(outs)
		if got := s.FallbackCounts[FallbackPanic]; got != len(ds.Val[2].Frames) {
			t.Fatalf("workers=%d: %d panic placeholders, want %d", workers, got, len(ds.Val[2].Frames))
		}
	}
	// Clean factories take the same path as RunDataset.
	outs, errs := RunDatasetPartial(ds.Val, AdaScaleRunner(sys.Detector, sys.Regressor))
	if len(errs) != 0 {
		t.Fatalf("clean run produced errors: %v", errs)
	}
	assertSameOutputs(t, RunDataset(ds.Val, AdaScaleRunner(sys.Detector, sys.Regressor)), outs)
}

// TestHealthSummaryString keeps the report renderer stable on the parts
// the experiment logs depend on.
func TestHealthSummaryString(t *testing.T) {
	var s HealthSummary
	s.Frames = 3
	s.FaultCounts[synth.FaultDrop] = 1
	s.FallbackCounts[FallbackPropagate] = 1
	got := s.String()
	for _, want := range []string{"frames=3", "drop=1", "fb/propagate=1"} {
		if !contains(got, want) {
			t.Fatalf("summary %q missing %q", got, want)
		}
	}
	if s.MeanRecoveryFrames() != 0 {
		t.Fatal("no recoveries ⇒ mean 0")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSessionCheckpointRoundTrip is the stream-migration contract: a
// checkpoint taken after frame k, restored into a fresh session, must
// serve frames k+1..n exactly as the uninterrupted original — scales,
// detections, health accounting and deadline-cap decisions all equal —
// on a faulted stream under a tight deadline (so every ladder rung and
// the budget window are live state at the cut point).
func TestSessionCheckpointRoundTrip(t *testing.T) {
	ds, sys := system(t)
	snips := faulted(t, ds, 0.3, 17)
	cfg := DefaultResilientConfig()
	cfg.DeadlineMS = 60

	for _, cut := range []int{1, 4, 9} {
		orig := NewResilientSession(sys.Regressor.Kernels, cfg)
		frames := snips[0].Frames
		if cut >= len(frames)-1 {
			t.Fatalf("cut %d leaves no frames to compare (snippet has %d)", cut, len(frames))
		}
		for i := 0; i <= cut; i++ {
			orig.Step(sys.Detector, sys.Regressor, &frames[i])
		}
		cp := orig.Checkpoint()
		migrated := NewResilientSession(sys.Regressor.Kernels, cfg)
		migrated.Restore(cp)

		for i := cut + 1; i < len(frames); i++ {
			w := orig.Step(sys.Detector, sys.Regressor, &frames[i])
			g := migrated.Step(sys.Detector, sys.Regressor, &frames[i])
			if w.Scale != g.Scale || w.Health != g.Health || w.DetectorMS != g.DetectorMS {
				t.Fatalf("cut %d frame %d: migrated (scale %d, health %+v), original (scale %d, health %+v)",
					cut, i, g.Scale, g.Health, w.Scale, w.Health)
			}
			if len(w.Detections) != len(g.Detections) {
				t.Fatalf("cut %d frame %d: %d detections, original %d", cut, i, len(g.Detections), len(w.Detections))
			}
			for k := range w.Detections {
				if w.Detections[k] != g.Detections[k] {
					t.Fatalf("cut %d frame %d det %d diverges after restore", cut, i, k)
				}
			}
		}
	}
}

// TestSessionCheckpointIndependence: the checkpoint deep-copies its state
// — mutating the session after Checkpoint (or restoring the same
// checkpoint twice) must not alias detections or budget state.
func TestSessionCheckpointIndependence(t *testing.T) {
	ds, sys := system(t)
	cfg := DefaultResilientConfig()
	s := NewResilientSession(sys.Regressor.Kernels, cfg)
	frames := ds.Val[0].Frames
	for i := 0; i < 4; i++ {
		s.Step(sys.Detector, sys.Regressor, &frames[i])
	}
	cp := s.Checkpoint()
	if len(cp.LastDets) == 0 {
		t.Fatal("checkpoint captured no last-good detections; the aliasing check needs some")
	}
	want := cp.LastDets[0]

	// Drive the original on; the checkpoint must not move.
	for i := 4; i < len(frames); i++ {
		s.Step(sys.Detector, sys.Regressor, &frames[i])
	}
	if cp.LastDets[0] != want {
		t.Fatal("checkpoint detections aliased the live session")
	}

	// Two sessions restored from one checkpoint evolve independently.
	a := NewResilientSession(sys.Regressor.Kernels, cfg)
	b := NewResilientSession(sys.Regressor.Kernels, cfg)
	a.Restore(cp)
	b.Restore(cp)
	a.Step(sys.Detector, sys.Regressor, &frames[4])
	if got := b.Checkpoint().LastDets[0]; got != want {
		t.Fatal("stepping one restored session mutated the other's state")
	}
}
