package serve

import (
	"strings"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/faults"
)

// chaosConfig is the standard chaos-enabled server config the tests use.
func chaosConfig(plan *faults.SystemPlan) Config {
	return Config{
		Workers: 2, QueueDepth: 4, SLOMS: 80,
		Resilient: adascale.DefaultResilientConfig(),
		Chaos:     plan,
	}
}

// TestServeChaosDeterministicZeroLost is the tentpole's core contract: a
// seeded chaos run — worker kills, stalls, a node blackout and a
// queue-saturation window all landing mid-flight — completes with every
// offered frame accounted for on every stream, and two identical runs
// produce byte-identical metric snapshots and served outputs.
func TestServeChaosDeterministicZeroLost(t *testing.T) {
	ds, sys := system(t)
	plan, err := faults.GenSystemPlan(faults.ScaledSystemConfig(1.5, 41, 1200, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) == 0 {
		t.Fatal("chaos plan is empty; the run would not exercise recovery")
	}
	run := func() *Report {
		return newServer(t, sys, chaosConfig(plan)).Run(load(t, ds, 4, 20, 20, 31))
	}
	a, b := run(), run()

	snapA, snapB := a.Metrics.Snapshot(), b.Metrics.Snapshot()
	if snapA != snapB {
		t.Fatalf("chaos snapshots diverge across identical runs:\n--- A ---\n%s\n--- B ---\n%s", snapA, snapB)
	}
	av, bv := a.Served(), b.Served()
	if len(av) == 0 || len(av) != len(bv) {
		t.Fatalf("served %d and %d frames across identical chaos runs", len(av), len(bv))
	}
	for i := range av {
		if av[i].Scale != bv[i].Scale || len(av[i].Detections) != len(bv[i].Detections) {
			t.Fatalf("output %d diverges across identical chaos runs", i)
		}
	}

	// Zero lost streams, zero lost frames: every stream keeps producing
	// output through the faults, and offered = served + dropped exactly.
	if lost := a.Lost(); lost != 0 {
		t.Fatalf("%d frames lost (neither served nor dropped)", lost)
	}
	for _, sr := range a.Streams {
		if len(sr.Outputs) == 0 {
			t.Fatalf("stream %d served nothing: the stream was lost to the fault plan", sr.ID)
		}
		if sr.Offered != len(sr.Outputs)+len(sr.Dropped) {
			t.Fatalf("stream %d: offered %d != served %d + dropped %d",
				sr.ID, sr.Offered, len(sr.Outputs), len(sr.Dropped))
		}
	}

	// The recovery machinery must actually have engaged — otherwise the
	// plan was too gentle and the test proves nothing.
	if a.Metrics.Counter("retry/failures") == 0 {
		t.Fatal("no dispatch failures recorded under a kill+blackout plan")
	}
	blackouts := plan.Count()[faults.SysNodeBlackout]
	if want := int64(blackouts * len(a.Streams)); a.Metrics.Counter("migrations") != want {
		t.Fatalf("migrations = %d, want %d (%d blackouts x %d streams)",
			a.Metrics.Counter("migrations"), want, blackouts, len(a.Streams))
	}
	for _, counter := range []string{"chaos/worker-kill", "chaos/node-blackout", "chaos/queue-saturate"} {
		if !strings.Contains(snapA, counter) {
			t.Fatalf("snapshot missing %q:\n%s", counter, snapA)
		}
	}
}

// workerDispatch is one dispatch the probe run saw on a worker.
type workerDispatch struct {
	worker           int
	startMS, service float64
	skip             bool
}

// probeDispatches runs streams under cfg and returns, in dispatch order,
// every dispatch that held a worker, as the audit hook first saw it.
func probeDispatches(t *testing.T, sys *adascale.System, cfg Config, streams []Stream) []workerDispatch {
	t.Helper()
	var out []workerDispatch
	seen := map[int]bool{}
	audited(newServer(t, sys, cfg), streams, func(l *eventLoop, picking bool) {
		for wi, w := range l.sup.workers {
			if picking || w.dispID == 0 || seen[w.dispID] {
				continue
			}
			seen[w.dispID] = true
			inf := l.sessions[w.stream].inflight
			out = append(out, workerDispatch{wi, l.clockMS, inf.serviceMS, inf.plan.Skip})
		}
	}, false)
	return out
}

// TestServeChaosWatchdogArmsOnlyOnLongStall: a dispatch's watchdog is
// armed only by a stall that moves its completion past the watchdog
// instant (max(4 × SLO or 400, 2 × service) after dispatch), and never for
// a sensor-skipped frame, which holds a worker but has no detector pass to
// reassign. Checked at SLOs whose 4 × SLO is below, near and above a
// full-scale frame's service time.
func TestServeChaosWatchdogArmsOnlyOnLongStall(t *testing.T) {
	ds, sys := system(t)
	snippets, err := faults.Inject(ds.Val, faults.Mixed(0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	streams, err := GenLoad(snippets, LoadConfig{Streams: 3, FPS: 15, FramesPerStream: 12, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}

	for _, slo := range []float64{0, 10, 15, 40, 80} {
		cfg := chaosConfig(nil)
		cfg.SLOMS = slo
		var frame, skipped *workerDispatch
		probe := probeDispatches(t, sys, cfg, streams)
		for i := range probe {
			if d := &probe[i]; d.skip && skipped == nil {
				skipped = d
			} else if !d.skip && frame == nil {
				frame = d
			}
		}
		if frame == nil || skipped == nil {
			t.Fatalf("SLO %v: the load dispatched no detector frame or no sensor-skipped frame", slo)
		}

		// One stall in the middle of the probed dispatch, on its worker: the
		// schedule up to that instant is the probe's, so it lands in flight.
		stallRun := func(d *workerDispatch, durMS float64) *Report {
			c := cfg
			c.Chaos = &faults.SystemPlan{Seed: 1, Events: []faults.SystemEvent{
				{AtMS: d.startMS + d.service/2, Kind: faults.SysWorkerStall, Worker: d.worker, DurationMS: durMS},
			}}
			rep := newServer(t, sys, c).Run(streams)
			if lost := rep.Lost(); lost != 0 {
				t.Fatalf("SLO %v: %d frames lost", slo, lost)
			}
			if n := rep.Metrics.Counter("stall/delayed"); n != 1 {
				t.Fatalf("SLO %v: stall delayed %d dispatches, want 1", slo, n)
			}
			return rep
		}
		reassigned := func(rep *Report) int64 { return rep.Metrics.Counter("watchdog/reassigned") }

		// Shorter than the frame's service: the completion stays before
		// 2 × service, so the watchdog never arms.
		if n := reassigned(stallRun(frame, 0.9*frame.service)); n != 0 {
			t.Fatalf("SLO %v: a %.1f ms stall of a %.1f ms frame reassigned %d dispatches", slo, 0.9*frame.service, frame.service, n)
		}
		// Longer than the watchdog window: reassigned exactly once.
		long := max(watchdogMS(slo), 2*frame.service) + 1
		if rep := stallRun(frame, long); reassigned(rep) != 1 || rep.Metrics.Counter("fail/watchdog") != 1 {
			t.Fatalf("SLO %v: a %.1f ms stall reassigned %d dispatches (fail/watchdog %d), want 1",
				slo, long, reassigned(rep), rep.Metrics.Counter("fail/watchdog"))
		}
		// The same stall on a sensor-skipped frame reassigns nothing.
		if n := reassigned(stallRun(skipped, long)); n != 0 {
			t.Fatalf("SLO %v: a stalled sensor-skipped frame was reassigned %d times", slo, n)
		}
	}
}

// TestServeChaosBreakerLifecycle drives one stream through back-to-back
// blackouts so its dispatch fails twice in a row: the breaker must open,
// shed frames to propagation-only mode during the cooldown, probe
// half-open, and close again once the detector path recovers — all visible
// in the counters, with zero lost frames throughout.
func TestServeChaosBreakerLifecycle(t *testing.T) {
	ds, sys := system(t)
	// The second blackout lands while the first failure's retry is still
	// in flight (redispatch ≈150ms + ~70ms service), so the same frame
	// fails twice in a row and trips the threshold-2 breaker.
	plan := &faults.SystemPlan{Seed: 7, Events: []faults.SystemEvent{
		{AtMS: 100, Kind: faults.SysNodeBlackout, Worker: -1, DurationMS: 50},
		{AtMS: 200, Kind: faults.SysNodeBlackout, Worker: -1, DurationMS: 50},
	}}
	cfg := Config{
		Workers: 1, QueueDepth: 6, SLOMS: 0,
		Resilient: adascale.DefaultResilientConfig(),
		Chaos:     plan,
	}
	rep := newServer(t, sys, cfg).Run(load(t, ds, 1, 10, 40, 47))

	m := rep.Metrics
	if m.Counter("breaker/open") == 0 {
		t.Fatalf("breaker never opened after consecutive dispatch failures:\n%s", m.Snapshot())
	}
	if m.Counter("breaker/shed") == 0 {
		t.Fatalf("open breaker never shed a frame to propagation mode:\n%s", m.Snapshot())
	}
	if m.Counter("breaker/close") == 0 {
		t.Fatalf("breaker never closed after the faults stopped:\n%s", m.Snapshot())
	}
	if lost := rep.Lost(); lost != 0 {
		t.Fatalf("%d frames lost across the breaker lifecycle", lost)
	}
	// Shed frames serve through the degradation ladder — propagated
	// last-good detections, or an explicit empty frame when there are none
	// yet (here the breaker opens before the stream's first completion).
	// Either way the accounting is explicit, never a silent gap.
	degraded := 0
	for _, o := range rep.Streams[0].Outputs {
		if o.Health.Fallback == adascale.FallbackPropagate || o.Health.Fallback == adascale.FallbackEmpty {
			degraded++
		}
	}
	if degraded < int(m.Counter("breaker/shed")) {
		t.Fatalf("%d degraded outputs for %d shed frames: a shed frame served without ladder accounting",
			degraded, m.Counter("breaker/shed"))
	}
	// Naive-failover mode (breaker disabled) must never shed.
	naive := cfg
	naive.Supervisor.BreakerThreshold = -1
	nrep := newServer(t, sys, naive).Run(load(t, ds, 1, 10, 40, 47))
	if n := nrep.Metrics.Counter("breaker/shed"); n != 0 {
		t.Fatalf("disabled breaker shed %d frames", n)
	}
	if lost := nrep.Lost(); lost != 0 {
		t.Fatalf("%d frames lost in naive-failover mode", lost)
	}
}

// TestServeChaosSaturationCollapsesQueues: inside a queue-saturation
// window the effective depth is one, so a burst that would fit the
// configured queue sheds via drop-oldest instead.
func TestServeChaosSaturationCollapsesQueues(t *testing.T) {
	ds, sys := system(t)
	streams := load(t, ds, 2, 40, 30, 23)
	base := Config{
		Workers: 1, QueueDepth: 16,
		Resilient: adascale.DefaultResilientConfig(),
	}
	calm := newServer(t, sys, base).Run(streams)

	sat := base
	sat.Chaos = &faults.SystemPlan{Seed: 3, Events: []faults.SystemEvent{
		{AtMS: 50, Kind: faults.SysQueueSaturate, Worker: -1, DurationMS: 600},
	}}
	squeezed := newServer(t, sys, sat).Run(streams)

	if calm.TotalDropped() >= squeezed.TotalDropped() {
		t.Fatalf("saturation did not increase drops: calm %d, saturated %d",
			calm.TotalDropped(), squeezed.TotalDropped())
	}
	if lost := squeezed.Lost(); lost != 0 {
		t.Fatalf("%d frames lost under saturation", lost)
	}
}

// TestServeSaturationHoldsBacklog pins what a queue-saturation window does:
// the effective depth is one, and Push evicts at most one frame per arrival,
// so inside the window a queue never grows (an empty one admits one frame)
// and every arrival to a non-empty queue drops its oldest frame, but a
// backlog that was already queued is not cut down — a queue holding the
// configured 8 frames stays at 8 for the whole window.
func TestServeSaturationHoldsBacklog(t *testing.T) {
	ds, sys := system(t)
	srv := newServer(t, sys, Config{
		Workers: 1, QueueDepth: 8, ModelOnly: true,
		Resilient: adascale.DefaultResilientConfig(),
		Chaos: &faults.SystemPlan{Events: []faults.SystemEvent{
			{AtMS: 300, Kind: faults.SysQueueSaturate, Worker: -1, DurationMS: 400},
		}},
	})
	var prev []int
	peak, dropped, drops := 0, 0, 0 // drops: inside the window
	audited(srv, load(t, ds, 2, 40, 40, 23), func(l *eventLoop, picking bool) {
		if prev == nil {
			prev = make([]int, len(l.sessions))
		}
		was := dropped
		dropped = 0
		for i, s := range l.sessions {
			n := s.queue.Len()
			if l.clockMS < l.sup.satUntil {
				if n > max(prev[i], 1) {
					t.Fatalf("t=%v: session %d's queue grew from %d to %d inside the saturation window", l.clockMS, i, prev[i], n)
				}
				peak = max(peak, n)
			}
			prev[i] = n
			dropped += s.Lane.Dropped
		}
		if l.clockMS < l.sup.satUntil {
			drops += dropped - was
		}
	}, false)
	if drops == 0 {
		t.Fatal("no frame dropped inside the saturation window: the load does not reach it")
	}
	if peak != 8 {
		t.Fatalf("deepest queue inside the window = %d, want the configured 8 (the backlog is kept)", peak)
	}
}

// TestSupervisorBackoffDeterministic is the table-driven backoff contract:
// exponential doubling capped at retryMaxMS, deterministic jitter — the
// same (stream, attempt) always yields the same delay, and different
// streams decorrelate.
func TestSupervisorBackoffDeterministic(t *testing.T) {
	s := &supervisor{}
	for _, tc := range []struct {
		attempt int
		baseMS  float64 // the un-jittered exponential component
	}{
		{1, 20}, {2, 40}, {3, 80}, {4, 160}, {5, 160}, {9, 160},
	} {
		got := s.backoffMS(0, tc.attempt)
		if got < tc.baseMS || got >= tc.baseMS+20 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", tc.attempt, got, tc.baseMS, tc.baseMS+20)
		}
		if again := s.backoffMS(0, tc.attempt); again != got {
			t.Fatalf("attempt %d: backoff not reproducible (%v then %v)", tc.attempt, got, again)
		}
	}
	if s.backoffMS(0, 1) == s.backoffMS(1, 1) {
		t.Fatal("streams 0 and 1 share a retry timeline; thundering-herd jitter is not decorrelating")
	}
}

// TestBreakerTransitions is the table-driven state-machine contract:
// closed → open at the failure threshold, open → half-open after the
// cooldown, half-open → closed on a successful probe, half-open → open
// (with escalated cooldown) on a failed one.
func TestBreakerTransitions(t *testing.T) {
	t.Run("full lifecycle", func(t *testing.T) {
		b := newBreaker(2, 100)
		opens, closes := 0, 0
		steps := []struct {
			op    string // "fail@t", "ok", "shed@t"
			at    float64
			want  breakerState
			sheds bool
		}{
			{"fail", 0, breakerClosed, false},     // 1st failure: below threshold
			{"ok", 0, breakerClosed, false},       // success resets the count
			{"fail", 10, breakerClosed, false},    // 1st again
			{"fail", 20, breakerOpen, false},      // 2nd consecutive: opens
			{"shed", 50, breakerOpen, true},       // inside cooldown: shedding
			{"shed", 119, breakerOpen, true},      // still inside
			{"shed", 120, breakerHalfOpen, false}, // cooldown over: probe goes through
			{"ok", 120, breakerClosed, false},     // probe succeeded: closed
		}
		for i, st := range steps {
			switch st.op {
			case "fail":
				if b.onFailure(st.at) {
					opens++
				}
			case "ok":
				if b.onSuccess() {
					closes++
				}
			case "shed":
				if got := b.shouldShed(st.at); got != st.sheds {
					t.Fatalf("step %d: shouldShed(%v) = %v, want %v", i, st.at, got, st.sheds)
				}
			}
			if b.state != st.want {
				t.Fatalf("step %d (%s@%v): state %v, want %v", i, st.op, st.at, b.state, st.want)
			}
		}
		if opens != 1 || closes != 1 {
			t.Fatalf("%d transitions into open and %d into closed, want 1 and 1", opens, closes)
		}
	})

	t.Run("failed probe escalates cooldown", func(t *testing.T) {
		b := newBreaker(1, 100)
		b.onFailure(0) // opens, cooldown 100
		if !b.shouldShed(50) {
			t.Fatal("not shedding inside cooldown")
		}
		if b.shouldShed(100) {
			t.Fatal("still shedding after cooldown")
		}
		b.onFailure(100) // probe fails: re-open with doubled cooldown
		if b.state != breakerOpen {
			t.Fatalf("state %v after failed probe, want open", b.state)
		}
		if b.curCooldown != 200 {
			t.Fatalf("cooldown %v after failed probe, want 200", b.curCooldown)
		}
		if !b.shouldShed(250) || b.shouldShed(300) {
			t.Fatal("escalated cooldown window is wrong")
		}
		// Escalation caps at 8x; a success restores the base cooldown.
		for i := 0; i < 10; i++ {
			b.onFailure(float64(1000 + 200*i))
			b.state = breakerHalfOpen
		}
		if b.curCooldown != 800 {
			t.Fatalf("cooldown %v after repeated failed probes, want cap 800", b.curCooldown)
		}
		b.onSuccess()
		if b.state != breakerClosed || b.curCooldown != 100 {
			t.Fatalf("success left (state %v, cooldown %v), want (closed, 100)", b.state, b.curCooldown)
		}
	})

	t.Run("disabled breaker never opens", func(t *testing.T) {
		b := newBreaker(-1, 100)
		for i := 0; i < 20; i++ {
			if b.onFailure(float64(i)) {
				t.Fatal("disabled breaker opened")
			}
		}
		if b.shouldShed(5) {
			t.Fatal("disabled breaker shed")
		}
		if b.state != breakerClosed {
			t.Fatalf("disabled breaker left closed state: %v", b.state)
		}
	})

	t.Run("open-state failure extends without recount", func(t *testing.T) {
		b := newBreaker(1, 100)
		if !b.onFailure(0) {
			t.Fatal("threshold-1 breaker did not open on first failure")
		}
		if b.onFailure(50) {
			t.Fatal("failure while open counted as a new transition")
		}
		if b.openUntilMS != 150 {
			t.Fatalf("open window end %v, want 150 (extended from the later failure)", b.openUntilMS)
		}
	})
}
