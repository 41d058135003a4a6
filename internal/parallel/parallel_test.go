package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	SetWorkers(0)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestSetWorkersOverride(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(-5)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative override must reset to GOMAXPROCS, got %d", got)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got := MapN(workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestZeroItems(t *testing.T) {
	if got := MapN(4, 0, func(i int) int { t.Error("task ran"); return 0 }); len(got) != 0 {
		t.Fatalf("Map over 0 items returned %d results", len(got))
	}
	if got := MapWorkersN(4, 0, func() int { t.Error("newWorker ran"); return 0 },
		func(int, int) int { return 0 }); len(got) != 0 {
		t.Fatalf("MapWorkers over 0 items returned %d results", len(got))
	}
}

func TestMoreWorkersThanItems(t *testing.T) {
	var calls atomic.Int64
	got := MapN(64, 3, func(i int) int {
		calls.Add(1)
		return i + 1
	})
	if calls.Load() != 3 {
		t.Fatalf("ran %d tasks, want 3", calls.Load())
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestPanicSurfacesAsErrorNotDeadlock(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		MapN(4, 100, func(i int) int {
			if i == 13 {
				panic("boom")
			}
			return i
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("panicking task must surface as an error")
		}
		pe, ok := err.(*PanicError)
		if !ok {
			t.Fatalf("error type %T, want *PanicError", err)
		}
		if pe.Value != "boom" {
			t.Fatalf("panic value %v, want boom", pe.Value)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pool deadlocked on a panicking task")
	}
}

func TestPanicSerialPathAlsoErrors(t *testing.T) {
	defer func() {
		if _, ok := recover().(*PanicError); !ok {
			t.Fatal("serial path must also convert panics to errors")
		}
	}()
	MapN(1, 5, func(i int) int {
		if i == 2 {
			panic("serial boom")
		}
		return i
	})
}

func TestMapRepanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Map must re-raise task panics")
		}
		if _, ok := r.(*PanicError); !ok {
			t.Fatalf("repanic type %T, want *PanicError", r)
		}
	}()
	MapN(4, 10, func(i int) int {
		if i == 5 {
			panic("map boom")
		}
		return i
	})
}

func TestMapWorkersPerWorkerState(t *testing.T) {
	var created atomic.Int64
	type state struct{ id int64 }
	got := MapWorkersN(4, 200, func() *state {
		return &state{id: created.Add(1)}
	}, func(s *state, i int) int64 {
		if s == nil {
			t.Error("nil worker state")
		}
		return s.id
	})
	n := created.Load()
	if n < 1 || n > 4 {
		t.Fatalf("created %d worker states, want 1..4", n)
	}
	// Every result must come from one of the created states.
	for i, v := range got {
		if v < 1 || v > n {
			t.Fatalf("got[%d] = %d, outside state ids 1..%d", i, v, n)
		}
	}
}

func TestForEachCompletesAllItems(t *testing.T) {
	seen := make([]atomic.Int64, 500)
	MapN(8, len(seen), func(i int) int64 { return seen[i].Add(1) })
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d ran %d times, want once", i, n)
		}
	}
}

func TestMapWorkersPartialRecoversPerItem(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		out, errs := MapWorkersPartialN(workers, 20,
			func() int { return 7 },
			func(s, i int) int {
				if i%5 == 3 {
					panic("poisoned item")
				}
				return s * i
			})
		if len(errs) != 4 {
			t.Fatalf("workers=%d: %d errors, want 4: %v", workers, len(errs), errs)
		}
		for k, e := range errs {
			if e.Index != 5*k+3 {
				t.Fatalf("workers=%d: errs[%d].Index = %d, want %d (sorted)", workers, k, e.Index, 5*k+3)
			}
			var pe *PanicError
			if !errorsAs(e.Err, &pe) {
				t.Fatalf("workers=%d: error not a *PanicError: %v", workers, e.Err)
			}
		}
		for i, v := range out {
			want := 7 * i
			if i%5 == 3 {
				want = 0 // zero-value placeholder for the failed item
			}
			if v != want {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, want)
			}
		}
	}
}

// errorsAs is a tiny local stand-in so the test file keeps its import list.
func errorsAs(err error, target **PanicError) bool {
	pe, ok := err.(*PanicError)
	if ok {
		*target = pe
	}
	return ok
}

func TestMapWorkersPartialRebuildsStateAfterPanic(t *testing.T) {
	var built atomic.Int64
	out, errs := MapWorkersPartialN(1, 5,
		func() int64 { return built.Add(1) },
		func(s int64, i int) int64 {
			if i == 1 {
				panic("corrupt the worker")
			}
			return s
		})
	if len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("errs = %v, want exactly item 1", errs)
	}
	// Items 0..1 ran on state #1; after the recovered panic the worker must
	// rebuild, so items 2..4 run on state #2.
	if built.Load() != 2 {
		t.Fatalf("newWorker called %d times, want 2 (rebuild after panic)", built.Load())
	}
	want := []int64{1, 0, 2, 2, 2}
	for i, v := range out {
		if v != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestMapWorkersPartialCleanRunMatchesMapWorkers(t *testing.T) {
	ref := MapWorkersN(3, 50, func() int { return 1 }, func(s, i int) int { return s + i })
	got, errs := MapWorkersPartialN(3, 50, func() int { return 1 }, func(s, i int) int { return s + i })
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("partial diverged from MapWorkers at %d: %d vs %d", i, got[i], ref[i])
		}
	}
}

// --- Pool: the persistent serving-shape pool ---

// TestPoolRunsJobsWithPerWorkerState: every submitted job runs, on a
// worker state built by newWorker, and Close drains everything.
func TestPoolRunsJobsWithPerWorkerState(t *testing.T) {
	var built atomic.Int64
	p := NewPool(3, func() int { return int(built.Add(1)) })
	var ran atomic.Int64
	var badState atomic.Int64
	for i := 0; i < 50; i++ {
		if !p.Submit(func(s int) {
			if s < 1 || s > 3 {
				badState.Add(1)
			}
			ran.Add(1)
		}) {
			t.Fatal("Submit refused on an open pool")
		}
	}
	p.Close()
	if ran.Load() != 50 {
		t.Fatalf("ran %d jobs, want 50", ran.Load())
	}
	if badState.Load() != 0 {
		t.Fatalf("%d jobs saw a state no newWorker built", badState.Load())
	}
	if built.Load() != 3 {
		t.Fatalf("built %d worker states, want exactly 3", built.Load())
	}
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", p.Workers())
	}
}

// TestPoolZeroJobs: a pool opened and closed without any Submit — the
// serving shape of a server with no admitted streams — must not hang or
// leak.
func TestPoolZeroJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4, func() struct{} { return struct{}{} })
	p.Close()
	assertNoGoroutineLeak(t, before)
}

// TestPoolMoreWorkersThanJobs: worker count far above the number of jobs
// (an over-provisioned server on a quiet stream set) still runs every job
// exactly once and drains cleanly.
func TestPoolMoreWorkersThanJobs(t *testing.T) {
	p := NewPool(16, func() struct{} { return struct{}{} })
	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		p.Submit(func(struct{}) { ran.Add(1) })
	}
	p.Close()
	if ran.Load() != 3 {
		t.Fatalf("ran %d jobs, want 3", ran.Load())
	}
}

// TestPoolPanicRecoveryRebuildsState: a panicking job is counted, the
// worker survives with a freshly built state, and later jobs still run.
func TestPoolPanicRecoveryRebuildsState(t *testing.T) {
	var built atomic.Int64
	p := NewPool(1, func() int { return int(built.Add(1)) })
	done := make(chan int, 2)
	p.Submit(func(int) { panic("poisoned frame") })
	p.Submit(func(s int) { done <- s })
	p.Close()
	if p.Panics() != 1 {
		t.Fatalf("Panics() = %d, want 1", p.Panics())
	}
	if got := <-done; got != 2 {
		t.Fatalf("job after panic saw state %d, want the rebuilt state 2", got)
	}
}

// TestPoolCloseIdempotentAndRefusesLateSubmits: double Close is safe and
// Submit after Close reports false without running the job.
func TestPoolCloseIdempotentAndRefusesLateSubmits(t *testing.T) {
	p := NewPool(2, func() struct{} { return struct{}{} })
	p.Close()
	p.Close()
	if p.Submit(func(struct{}) { t.Error("job ran on a closed pool") }) {
		t.Fatal("Submit on a closed pool must return false")
	}
}

// TestPoolShutdownNoGoroutineLeak is the scheduler-shutdown contract:
// cancelling mid-stream (Close with jobs still flowing from another
// goroutine's perspective) leaves no pool goroutine behind, asserted with
// a NumGoroutine delta.
func TestPoolShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		p := NewPool(8, func() struct{} { return struct{}{} })
		for i := 0; i < 100; i++ {
			p.Submit(func(struct{}) { time.Sleep(50 * time.Microsecond) })
		}
		p.Close() // mid-stream: workers still draining when Close starts
	}
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak waits (with retries: exiting goroutines need a
// beat to be reaped) until the goroutine count is back at or below the
// baseline, and fails after a bounded patience.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMapWorkersPartialZeroItemsAndExcessWorkers covers the remaining
// serving shapes on the batch API: zero items (no worker state is built)
// and worker count above item count.
func TestMapWorkersPartialZeroItemsAndExcessWorkers(t *testing.T) {
	out, errs := MapWorkersPartialN(4, 0, func() int { t.Error("newWorker ran"); return 0 },
		func(int, int) int { return 0 })
	if len(out) != 0 || len(errs) != 0 {
		t.Fatalf("zero items: out %d errs %d", len(out), len(errs))
	}
	out, errs = MapWorkersPartialN(32, 3, func() int { return 0 }, func(_, i int) int { return i * i })
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestPoolHookedPanicMidBatch is the serving layer's pool-recovery
// contract at workers 1 and 4: killing a worker mid-batch (a job that
// panics) fires the onPanic hook exactly once per kill, rebuilds the
// worker's state, and every surviving job still delivers its result —
// with per-job result channels drained in submit order, so the batch's
// observable ordering is unchanged by the panic.
func TestPoolHookedPanicMidBatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const jobs = 24
		const killAt = 11 // the mid-batch job that kills its worker

		var hookCalls atomic.Int64
		var hookValue atomic.Value
		var built atomic.Int64
		p := NewPoolHooked(workers, func() int { return int(built.Add(1)) }, func(v any) {
			hookCalls.Add(1)
			hookValue.Store(v)
		})

		results := make([]chan int, jobs)
		for i := 0; i < jobs; i++ {
			i := i
			results[i] = make(chan int, 1)
			p.Submit(func(state int) {
				if i == killAt {
					panic("killed worker mid-batch")
				}
				results[i] <- i
			})
		}
		p.Close()

		// Every surviving job delivered, and draining the per-job channels
		// in submit order yields the submit-order indices: the panic did
		// not reorder or drop any other job's result.
		for i := 0; i < jobs; i++ {
			if i == killAt {
				select {
				case v := <-results[i]:
					t.Fatalf("workers=%d: killed job delivered %d", workers, v)
				default:
				}
				continue
			}
			select {
			case v := <-results[i]:
				if v != i {
					t.Fatalf("workers=%d: slot %d holds result %d", workers, i, v)
				}
			default:
				t.Fatalf("workers=%d: job %d lost its result after the mid-batch kill", workers, i)
			}
		}
		if p.Panics() != 1 {
			t.Fatalf("workers=%d: Panics() = %d, want 1", workers, p.Panics())
		}
		if hookCalls.Load() != 1 {
			t.Fatalf("workers=%d: onPanic fired %d times, want 1", workers, hookCalls.Load())
		}
		if got, _ := hookValue.Load().(string); got != "killed worker mid-batch" {
			t.Fatalf("workers=%d: onPanic saw %v, want the panic value", workers, hookValue.Load())
		}
		// The killed worker rebuilt its state: more states were built than
		// workers exist.
		if built.Load() != int64(workers)+1 {
			t.Fatalf("workers=%d: built %d states, want %d (one rebuild)", workers, built.Load(), workers+1)
		}
	}
}

// TestPoolNilHookStillCounts: NewPoolHooked with a nil hook behaves like
// NewPool — panics counted, no crash dereferencing the hook.
func TestPoolNilHookStillCounts(t *testing.T) {
	p := NewPoolHooked(1, func() struct{} { return struct{}{} }, nil)
	p.Submit(func(struct{}) { panic("boom") })
	done := make(chan struct{}, 1)
	p.Submit(func(struct{}) { done <- struct{}{} })
	p.Close()
	if p.Panics() != 1 {
		t.Fatalf("Panics() = %d, want 1", p.Panics())
	}
	<-done
}
