package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/faults"
)

// The oracle: the three linear scans dispatch() ran before the dispatch
// index existed, kept verbatim so the index can be checked against them.

// scanShed is the historical shedCandidate: the lowest dispatchable session
// whose breaker sheds, expiring open breakers to half-open as it walks.
func scanShed(l *eventLoop) int {
	for i, s := range l.sessions {
		if (s.inflight == nil || !s.inflight.retryReady) && !s.ready() {
			continue
		}
		if l.sup.breakers[i].shouldShed(l.clockMS) {
			return i
		}
	}
	return -1
}

// scanRetry is the historical retryCandidate.
func scanRetry(l *eventLoop) int {
	best := -1
	for i, s := range l.sessions {
		if s.inflight == nil || !s.inflight.retryReady {
			continue
		}
		if best < 0 || s.inflight.arrivalMS < l.sessions[best].inflight.arrivalMS {
			best = i
		}
	}
	return best
}

// scanReady is the historical ready loop of dispatch().
func scanReady(l *eventLoop) int {
	best := -1
	for i, s := range l.sessions {
		if !s.ready() {
			continue
		}
		if best < 0 || s.queue.Head().ArrivalMS < l.sessions[best].queue.Head().ArrivalMS {
			best = i
		}
	}
	return best
}

// scanPick is one iteration of the historical dispatch loop.
func scanPick(l *eventLoop) (path, i int) {
	if i := scanShed(l); i >= 0 {
		return pickShed, i
	}
	if l.sup.freeWorker(l.clockMS) < 0 {
		return pickNone, -1
	}
	if i := scanRetry(l); i >= 0 {
		return pickRetry, i
	}
	if i := scanReady(l); i >= 0 {
		return pickReady, i
	}
	return pickNone, -1
}

// pickRecord is one non-empty pick the audit saw.
type pickRecord struct{ path, session int }

// oracleAudit returns the audit hook the differential tests install: after
// every event and before every pick the index must equal the predicates
// recomputed from scratch, and at every pick the index and the scans must
// choose the same (path, session) and leave the same breaker states behind.
// pick is idempotent at a fixed instant (its only side effect, expiring an
// open breaker, is done the first time), so running it here and again in
// dispatch changes nothing. Picks are appended to *picks when non-nil.
func oracleAudit(t testing.TB, picks *[]pickRecord) func(*eventLoop, bool) {
	return func(l *eventLoop, picking bool) {
		if err := l.checkIndex(); err != nil {
			t.Fatal(err)
		}
		if !picking {
			return
		}
		before := append([]breaker(nil), l.sup.breakers...)
		wantPath, wantI := scanPick(l)
		want := append([]breaker(nil), l.sup.breakers...)
		copy(l.sup.breakers, before)
		path, i, _ := l.pick()
		if path != wantPath || i != wantI {
			t.Fatalf("t=%v: index picks (path %d, session %d), scans pick (path %d, session %d)",
				l.clockMS, path, i, wantPath, wantI)
		}
		if !reflect.DeepEqual(l.sup.breakers, want) {
			t.Fatalf("t=%v: breaker states after the index pick differ from the scans'", l.clockMS)
		}
		if err := l.checkIndex(); err != nil {
			t.Fatalf("after pick: %v", err)
		}
		if picks != nil && path != pickNone {
			*picks = append(*picks, pickRecord{path, i})
		}
	}
}

// TestDispatchIndexMatchesScans is the differential test for the dispatch
// index: randomized seeded loads × chaos plans (kill/stall/blackout/
// saturate at several intensities, and none) × queue depths 1–8 × workers
// {1, 4}, model-only and real compute, every dispatch iteration checked
// against the scans.
func TestDispatchIndexMatchesScans(t *testing.T) {
	ds, sys := system(t)
	var sheds, retries, readies int
	var opens, closes int64
	for trial := 0; trial < 64; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		depth := 1 + trial%8
		workers := []int{1, 4}[(trial/8)%2]
		// A few trials run the real detector so breakers see successes
		// (half-open → closed); the rest are model-only for breadth.
		modelOnly := trial%16 != 3
		streams := 2 + rng.Intn(30)
		frames := 8 + rng.Intn(24)
		if !modelOnly {
			streams, frames = 2+rng.Intn(4), 12
		}
		// Around and past capacity (≈ 13 frames/s per worker at full scale)
		// so sessions wait, evict and tie.
		fps := (2 + 28*rng.Float64()) * float64(workers) / float64(streams) * 4
		ld := load(t, ds, streams, fps, frames, int64(trial))
		horizon := ld[0].Frames[frames-1].ArrivalMS

		cfg := Config{
			Workers: workers, QueueDepth: depth, SLOMS: []float64{0, 80}[trial%2],
			Resilient: adascale.DefaultResilientConfig(), ModelOnly: modelOnly,
		}
		if rate := float64(trial % 4); rate > 0 {
			plan, err := faults.GenSystemPlan(faults.ScaledSystemConfig(rate, int64(trial), horizon, workers))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = plan
			cfg.Supervisor = SupervisorConfig{
				BreakerThreshold:  1 + trial%3,
				BreakerCooldownMS: []float64{40, 300}[(trial/4)%2],
			}
		}
		var picks []pickRecord
		rep := audited(newServer(t, sys, cfg), ld, oracleAudit(t, &picks), true)
		if rep.Lost() != 0 {
			t.Fatalf("trial %d: %d frames lost", trial, rep.Lost())
		}
		opens += rep.Metrics.Counter("breaker/open")
		closes += rep.Metrics.Counter("breaker/close")
		for _, p := range picks {
			switch p.path {
			case pickShed:
				sheds++
			case pickRetry:
				retries++
			case pickReady:
				readies++
			}
		}
	}
	// The comparison proves nothing about a path the loads never took.
	if sheds == 0 || retries == 0 || readies == 0 || opens == 0 || closes == 0 {
		t.Fatalf("not everything exercised: shed %d, retry %d, ready %d picks; breakers opened %d, closed %d",
			sheds, retries, readies, opens, closes)
	}
	t.Logf("picks: shed %d, retry %d, ready %d; breakers opened %d, closed %d", sheds, retries, readies, opens, closes)
}

// TestCheckIndexCatchesWorkerMismatch: the audit holds the worker set and
// the frames on the pool one to one. A worker that drops its frame, holds a
// dispatch nobody has, or shares another worker's is reported.
func TestCheckIndexCatchesWorkerMismatch(t *testing.T) {
	ds, sys := system(t)
	cfg := Config{Workers: 2, QueueDepth: 4, Resilient: adascale.DefaultResilientConfig(), ModelOnly: true}
	var dropped, phantom, shared int
	audited(newServer(t, sys, cfg), load(t, ds, 3, 20, 8, 3), func(l *eventLoop, _ bool) {
		if err := l.checkIndex(); err != nil {
			t.Fatal(err)
		}
		workers := l.sup.workers
		for wi := range workers {
			w := &workers[wi]
			saved := *w
			corrupt := func(what string, count *int) {
				if l.checkIndex() == nil {
					t.Fatalf("t=%v: worker %d %s, and the audit passed", l.clockMS, wi, what)
				}
				*w = saved
				*count++
			}
			if w.dispID != 0 {
				w.dispID = 0
				corrupt("dropped its frame", &dropped)
				continue
			}
			w.dispID, w.stream = l.dispatchSeq+1, 0
			corrupt("holds a dispatch nobody has", &phantom)
			if other := workers[1-wi]; other.dispID != 0 {
				w.dispID, w.stream = other.dispID, other.stream
				corrupt("shares another worker's dispatch", &shared)
			}
		}
	}, false)
	if dropped == 0 || phantom == 0 || shared == 0 {
		t.Fatalf("not every corruption exercised: dropped %d, phantom %d, shared %d", dropped, phantom, shared)
	}
}

// TestDispatchIndexKeys pins the two orderings a heap can get wrong where
// a scan cannot: a waiting session whose head is evicted (drop-oldest) must
// move to its new head's arrival, and equal arrivals go to the lowest
// session index whatever order they entered the index in. One worker and a
// ≥ 20 ms modelled service time keep every later arrival waiting.
func TestDispatchIndexKeys(t *testing.T) {
	ds, sys := system(t)
	stream := func(id int, arrivals ...float64) Stream {
		st := Stream{ID: id}
		for j, a := range arrivals {
			st.Frames = append(st.Frames, TimedFrame{Frame: &ds.Val[id].Frames[j], ArrivalMS: a})
		}
		return st
	}
	for _, tc := range []struct {
		name    string
		depth   int
		streams []Stream
		want    []int // sessions in dispatch order
	}{
		{
			// Session 1 waits from t=1; its head is evicted at t=10, so it
			// now queues behind session 0's second frame (2) and session
			// 2's (5) instead of ahead of both.
			name: "drop-oldest re-key", depth: 1,
			streams: []Stream{stream(0, 0, 2), stream(1, 1, 10), stream(2, 5)},
			want:    []int{0, 0, 2, 1},
		},
		{
			// Sessions 1 and 2 enter the index at t=5; session 0's t=5
			// frame enters last (when its first frame settles) and still
			// goes first.
			name: "tie, lowest index enters last", depth: 2,
			streams: []Stream{stream(0, 0, 5), stream(1, 5), stream(2, 5)},
			want:    []int{0, 0, 1, 2},
		},
		{
			name: "tie, lowest index enters first", depth: 2,
			streams: []Stream{stream(0, 5), stream(1, 5), stream(2, 0, 5)},
			want:    []int{2, 0, 1, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var picks []pickRecord
			cfg := Config{Workers: 1, QueueDepth: tc.depth, Resilient: adascale.DefaultResilientConfig(), ModelOnly: true}
			audited(newServer(t, sys, cfg), tc.streams, oracleAudit(t, &picks), true)
			var got []int
			for _, p := range picks {
				if p.path != pickReady {
					t.Fatalf("unexpected path %d", p.path)
				}
				got = append(got, p.session)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("dispatch order %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSessionHeapAgainstBruteForce drives the indexed heap with random
// inserts, re-keys and removals (keys drawn from a small set, so ties are
// common) and checks min() against a linear search after every step.
func TestSessionHeapAgainstBruteForce(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(7))
	var h sessionHeap
	h.reset(n)
	member := make([]bool, n)
	key := make([]float64, n)
	for step := 0; step < 20000; step++ {
		i := rng.Intn(n)
		member[i], key[i] = rng.Intn(3) > 0, float64(rng.Intn(6))
		h.set(i, member[i], key[i])
		want := -1
		for j := range member {
			if member[j] && (want < 0 || key[j] < key[want]) {
				want = j
			}
		}
		if got := h.min(); got != want {
			t.Fatalf("step %d: min = %d, want %d", step, got, want)
		}
	}
}

// TestEventHeapOrder: the typed heap pops in (time, kind, stream, seq)
// order under interleaved pushes and pops.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h eventHeap
	var last event
	popped := false
	for step := 0; step < 5000; step++ {
		if len(h) == 0 || rng.Intn(3) > 0 {
			e := event{timeMS: float64(rng.Intn(40)), kind: rng.Intn(6), stream: rng.Intn(4) - 1, seq: rng.Intn(5)}
			if popped && e.before(last) {
				e.timeMS = last.timeMS + 1 // a simulation never schedules into its past
			}
			h.push(e)
			continue
		}
		e := h.pop()
		if popped && e.before(last) {
			t.Fatalf("step %d: popped %+v after %+v", step, e, last)
		}
		last, popped = e, true
	}
	for len(h) > 0 {
		if e := h.pop(); e.before(last) {
			t.Fatalf("drain: popped %+v after %+v", e, last)
		} else {
			last = e
		}
	}
}

// TestScaleKey: the precomputed keys are the formatted ones, inside and
// outside the regressor's range.
func TestScaleKey(t *testing.T) {
	for _, s := range []int{-1, 0, 127, 128, 129, 360, 599, 600, 601, 4096} {
		if got, want := ScaleKey(s), fmt.Sprintf("scale/%d", s); got != want {
			t.Fatalf("ScaleKey(%d) = %q, want %q", s, got, want)
		}
	}
}

// TestReportSummaryEqualsFlattenedSummarize: Run folds the summary stream
// by stream; it must equal summarizing the flattened outputs exactly.
func TestReportSummaryEqualsFlattenedSummarize(t *testing.T) {
	ds, sys := system(t)
	plan, err := faults.GenSystemPlan(faults.ScaledSystemConfig(1.5, 41, 1200, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep := newServer(t, sys, chaosConfig(plan)).Run(load(t, ds, 4, 20, 20, 31))
	want := adascale.Summarize(rep.Served())
	if want.Frames == 0 || want.Degraded == 0 {
		t.Fatalf("summary too plain to prove anything: %v", want)
	}
	if rep.Summary != want {
		t.Fatalf("Report.Summary = %v, Summarize(Served()) = %v", rep.Summary, want)
	}
}
