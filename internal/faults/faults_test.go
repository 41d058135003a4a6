package faults

import (
	"math"
	"reflect"
	"testing"

	"adascale/internal/parallel"
	"adascale/internal/synth"
)

func testSnippets(t *testing.T) []synth.Snippet {
	t.Helper()
	cfg := synth.VIDLike(11)
	cfg.FramesPerSnippet = 24
	ds, err := synth.Generate(cfg, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Val
}

// TestInjectDeterministic pins the determinism contract: same seed and
// config produce a bit-identical perturbed stream at any worker count.
func TestInjectDeterministic(t *testing.T) {
	snippets := testSnippets(t)
	cfg := Mixed(0.3, 7)
	ref, err := Inject(snippets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parallel.SetWorkers(0) }) // guard the t.Fatal paths below
	for _, workers := range []int{1, 2, 5} {
		parallel.SetWorkers(workers)
		got, err := Inject(snippets, cfg)
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("perturbed stream differs at %d workers", workers)
		}
	}
	if got, _ := Inject(snippets, Mixed(0.3, 8)); reflect.DeepEqual(ref, got) {
		t.Fatal("different seed produced an identical stream")
	}
}

// TestInjectDoesNotMutateInput ensures the original snippets stay pristine.
func TestInjectDoesNotMutateInput(t *testing.T) {
	snippets := testSnippets(t)
	before := make([]synth.Snippet, len(snippets))
	for i := range snippets {
		before[i] = synth.Snippet{ID: snippets[i].ID, Frames: append([]synth.Frame(nil), snippets[i].Frames...)}
	}
	if _, err := Inject(snippets, Mixed(0.5, 3)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, snippets) {
		t.Fatal("Inject mutated its input")
	}
}

// TestInjectTagsAndRates checks every perturbation is tagged, frame 0
// stays clean, stale frames reference an earlier delivered frame, dropped
// frames keep their ground truth, and the realised rate tracks the config.
func TestInjectTagsAndRates(t *testing.T) {
	snippets := testSnippets(t)
	const rate = 0.4
	out, err := Inject(snippets, Mixed(rate, 21))
	if err != nil {
		t.Fatal(err)
	}
	var counts [synth.NumFaultKinds]int
	frames := synth.Frames(out)
	for _, f := range frames {
		kind := synth.FaultNone
		if f.Fault != nil {
			kind = f.Fault.Kind
		}
		counts[kind]++
	}
	faulted := len(frames) - counts[synth.FaultNone]
	if faulted == 0 {
		t.Fatal("no faults injected at rate 0.4")
	}
	// Bursts push the realised rate above the nominal draw rate; allow a
	// generous band around it.
	realised := float64(faulted) / float64(len(frames))
	if realised < rate*0.5 || realised > rate*1.8 {
		t.Fatalf("realised fault rate %.2f far from nominal %.2f", realised, rate)
	}
	for k := synth.FaultKind(1); int(k) < synth.NumFaultKinds; k++ {
		if counts[k] == 0 {
			t.Fatalf("fault kind %v never injected", k)
		}
	}
	for si := range out {
		if out[si].Frames[0].Fault != nil {
			t.Fatalf("snippet %d: frame 0 faulted", si)
		}
		for fi := range out[si].Frames {
			f := &out[si].Frames[fi]
			orig := &snippets[si].Frames[fi]
			if f.Fault == nil {
				if !reflect.DeepEqual(f.Objects, orig.Objects) {
					t.Fatalf("snippet %d frame %d: clean frame content changed", si, fi)
				}
				continue
			}
			switch f.Fault.Kind {
			case synth.FaultDrop, synth.FaultBlackout:
				if len(f.Objects) != 0 {
					t.Fatalf("frame %d/%d: %v frame still senses objects", si, fi, f.Fault.Kind)
				}
				if !reflect.DeepEqual(f.Truth, orig.Objects) {
					t.Fatalf("frame %d/%d: truth lost under %v", si, fi, f.Fault.Kind)
				}
			case synth.FaultStale:
				if f.Fault.SourceIndex >= fi {
					t.Fatalf("frame %d/%d: stale source %d not earlier", si, fi, f.Fault.SourceIndex)
				}
				if f.Index != orig.Index || f.SnippetID != orig.SnippetID {
					t.Fatalf("frame %d/%d: stale frame lost its identity", si, fi)
				}
				if !reflect.DeepEqual(f.Truth, orig.Objects) {
					t.Fatalf("frame %d/%d: truth lost under stale", si, fi)
				}
			case synth.FaultOverexpose, synth.FaultNoise:
				if f.Fault.Severity <= 0 || f.Fault.Severity > 1 {
					t.Fatalf("frame %d/%d: severity %v out of range", si, fi, f.Fault.Severity)
				}
			case synth.FaultJitter:
				if f.Fault.JitterMS <= 0 {
					t.Fatalf("frame %d/%d: jitter without latency", si, fi)
				}
			}
			// Ground truth must always reflect the real scene.
			if len(f.GroundTruth()) != len(orig.GroundTruth()) {
				t.Fatalf("frame %d/%d: ground truth count changed under %v", si, fi, f.Fault.Kind)
			}
		}
	}
}

// TestInjectValidation covers config rejection.
func TestInjectValidation(t *testing.T) {
	bad := []Config{
		{Drop: -0.1},
		{Drop: 0.6, Noise: 0.6},
		Mixed(math.NaN(), 1),
		{Jitter: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := Inject(nil, cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Inject(nil, Mixed(0, 1)); err != nil {
		t.Fatalf("zero-rate config rejected: %v", err)
	}
}

// TestFaultResponseHelpers pins the nil-safe fault response factors the
// behavioural detector relies on.
func TestFaultResponseHelpers(t *testing.T) {
	var nilFault *synth.Fault
	if nilFault.QualityFactor() != 1 || nilFault.FPFactor() != 1 || nilFault.SensorObservable() || nilFault.ContentFault() {
		t.Fatal("nil fault must behave as clean")
	}
	drop := &synth.Fault{Kind: synth.FaultDrop}
	if drop.QualityFactor() != 0 || drop.FPFactor() != 0 || !drop.SensorObservable() {
		t.Fatal("drop must sense nothing and be observable")
	}
	over := &synth.Fault{Kind: synth.FaultOverexpose, Severity: 0.5}
	if q := over.QualityFactor(); q <= 0 || q >= 1 {
		t.Fatalf("overexposure quality factor %v not a partial penalty", q)
	}
	noise := &synth.Fault{Kind: synth.FaultNoise, Severity: 0.5}
	if fp := noise.FPFactor(); fp <= 1 {
		t.Fatalf("noise FP factor %v must exceed 1", fp)
	}
	jit := &synth.Fault{Kind: synth.FaultJitter, JitterMS: 10}
	if jit.ContentFault() || jit.SensorObservable() {
		t.Fatal("jitter leaves content intact and undetectable")
	}
	mixed := Mixed(0.3, 1)
	if math.Abs(mixed.TotalRate()-0.3) > 1e-12 {
		t.Fatal("Mixed must preserve the total rate")
	}
}

// TestGenSystemPlanDeterministicAndSorted pins the chaos-plan generator:
// the same config produces the identical schedule, a different seed moves
// it, events are sorted by (AtMS, Kind, Worker), every event stays inside
// the horizon with a valid target and sane durations.
func TestGenSystemPlanDeterministicAndSorted(t *testing.T) {
	cfg := SystemConfig{
		Seed: 9, HorizonMS: 3000, Workers: 4,
		KillsPerSec: 2, StallsPerSec: 1.5, Blackouts: 2, Saturations: 2,
	}
	a, err := GenSystemPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenSystemPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Fatal("plan is empty at a 2/sec kill rate over 3 virtual seconds")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("plans differ in size across identical configs: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverges across identical configs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}

	counts := a.Count()
	if counts[SysNodeBlackout] != 2 || counts[SysQueueSaturate] != 2 {
		t.Fatalf("window counts %v, want 2 blackouts and 2 saturations", counts)
	}
	for i, e := range a.Events {
		if e.AtMS < 0 || e.AtMS >= cfg.HorizonMS {
			t.Fatalf("event %d at %vms escapes the horizon [0, %v)", i, e.AtMS, cfg.HorizonMS)
		}
		switch e.Kind {
		case SysWorkerKill:
			if e.Worker < 0 || e.Worker >= cfg.Workers || e.DurationMS != 0 {
				t.Fatalf("kill event %d malformed: %+v", i, e)
			}
		case SysWorkerStall:
			if e.Worker < 0 || e.Worker >= cfg.Workers || e.DurationMS <= 0 {
				t.Fatalf("stall event %d malformed: %+v", i, e)
			}
		case SysNodeBlackout, SysQueueSaturate:
			if e.Worker != -1 || e.DurationMS <= 0 {
				t.Fatalf("window event %d malformed: %+v", i, e)
			}
		}
		if i > 0 {
			p := a.Events[i-1]
			if e.AtMS < p.AtMS || (e.AtMS == p.AtMS && (e.Kind < p.Kind || (e.Kind == p.Kind && e.Worker < p.Worker))) {
				t.Fatalf("events %d and %d out of (AtMS, Kind, Worker) order", i-1, i)
			}
		}
	}

	moved := cfg
	moved.Seed = 10
	c, err := GenSystemPlan(moved)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 9 and 10 produced the identical plan")
	}
}

// TestScaledSystemConfig pins the chaos-sweep knob: rate 0 produces no
// events, higher rates scale the Poisson intensities, and the generated
// plan validates against its own worker space.
func TestScaledSystemConfig(t *testing.T) {
	zero, err := GenSystemPlan(ScaledSystemConfig(0, 5, 2000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Events) != 0 {
		t.Fatalf("rate 0 generated %d events", len(zero.Events))
	}
	low, err := GenSystemPlan(ScaledSystemConfig(1, 5, 20000, 2))
	if err != nil {
		t.Fatal(err)
	}
	high, err := GenSystemPlan(ScaledSystemConfig(4, 5, 20000, 2))
	if err != nil {
		t.Fatal(err)
	}
	lc, hc := low.Count(), high.Count()
	if hc[SysWorkerKill] <= lc[SysWorkerKill] {
		t.Fatalf("rate 4 produced %d kills, rate 1 produced %d — intensity is not scaling", hc[SysWorkerKill], lc[SysWorkerKill])
	}
}

// TestGenSystemPlanValidation rejects nonsense configs. An infinite rate
// made GenSystemPlan's Poisson loop never return, so Validate is called on
// its own.
func TestGenSystemPlanValidation(t *testing.T) {
	bad := []SystemConfig{
		{HorizonMS: 0, Workers: 1},
		{HorizonMS: math.NaN(), Workers: 1},
		{HorizonMS: 1000, Workers: 0},
		{HorizonMS: 1000, Workers: 1, KillsPerSec: -1},
		{HorizonMS: 1000, Workers: 1, KillsPerSec: math.Inf(1)},
		{HorizonMS: 1000, Workers: 1, StallsPerSec: math.Inf(1)},
		{HorizonMS: 1000, Workers: 1, StallsPerSec: math.NaN()},
		{HorizonMS: 1000, Workers: 1, Blackouts: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d (%+v) accepted", i, cfg)
		}
	}
}
