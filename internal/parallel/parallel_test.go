package parallel

import (
	"fmt"
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

// mapN is Map at an explicit worker count.
func mapN[R any](workers, n int, fn func(int) R) []R {
	defer SetWorkers(0)
	SetWorkers(workers)
	return Map(n, fn)
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got := mapN(workers, 100, func(i int) int { return i * i })
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
	if got := mapN(4, 0, func(i int) int { t.Error("task ran"); return 0 }); len(got) != 0 {
		t.Fatalf("Map over 0 items returned %d results", len(got))
	}
}

func TestMoreWorkersThanItems(t *testing.T) {
	var calls atomic.Int64
	got := mapN(64, 3, func(i int) int { calls.Add(1); return i + 1 })
	if calls.Load() != 3 {
		t.Fatalf("ran %d tasks, want 3", calls.Load())
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// repanic runs Map at workers over 20 items, item poison panicking "boom",
// and returns what Map re-raised.
func repanic(workers, poison int) (r any) {
	defer func() { r = recover() }()
	mapN(workers, 20, func(i int) int {
		if i == poison {
			panic("boom")
		}
		return i
	})
	return nil
}

func TestPanicSurfacesAsErrorNotDeadlock(t *testing.T) {
	done := make(chan any, 1)
	go func() { done <- repanic(4, 13) }()
	select {
	case r := <-done:
		if pe, ok := r.(*PanicError); !ok || pe.Value != "boom" {
			t.Fatalf("re-raised %v (%T), want *PanicError{boom}", r, r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pool deadlocked on a panicking task")
	}
}

func TestPanicSerialPathAlsoErrors(t *testing.T) {
	if _, ok := repanic(1, 2).(*PanicError); !ok {
		t.Fatal("one worker must also convert panics to errors")
	}
}

func TestMapRepanics(t *testing.T) {
	if _, ok := repanic(4, 5).(*PanicError); !ok {
		t.Fatal("Map must re-raise task panics as *PanicError")
	}
}

func TestMapWorkersPerWorkerState(t *testing.T) {
	var created atomic.Int64
	type state struct{ id int64 }
	got, _ := mapWorkers(4, 200, func() *state { return &state{id: created.Add(1)} },
		func(s *state, i int) int64 {
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
	mapN(8, len(seen), func(i int) int64 { return seen[i].Add(1) })
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d ran %d times, want once", i, n)
		}
	}
}

func TestMapWorkersPartialRecoversPerItem(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		out, errs := mapWorkers(workers, 20,
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
			if _, ok := e.Err.(*PanicError); e.Index != 5*k+3 || !ok {
				t.Fatalf("workers=%d: errs[%d] = %v, want item %d's *PanicError (sorted)", workers, k, e, 5*k+3)
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

func TestMapWorkersPartialRebuildsStateAfterPanic(t *testing.T) {
	var built atomic.Int64
	out, errs := mapWorkers(1, 5,
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
	defer SetWorkers(0)
	SetWorkers(3)
	ref := MapWorkers(50, func() int { return 1 }, func(s, i int) int { return s + i })
	got, errs := mapWorkers(3, 50, func() int { return 1 }, func(s, i int) int { return s + i })
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

// TestPoolPanicRecoveryRebuildsState: after a panicking job the worker
// survives with a freshly built state, and later jobs still run.
func TestPoolPanicRecoveryRebuildsState(t *testing.T) {
	var built atomic.Int64
	p := NewPool(1, func() int { return int(built.Add(1)) })
	done := make(chan int, 2)
	p.Submit(func(int) { panic("poisoned frame") })
	p.Submit(func(s int) { done <- s })
	p.Close()
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
	out, errs := mapWorkers(4, 0, func() int { t.Error("newWorker ran"); return 0 },
		func(int, int) int { return 0 })
	if len(out) != 0 || len(errs) != 0 {
		t.Fatalf("zero items: out %d errs %d", len(out), len(errs))
	}
	out, errs = mapWorkers(32, 3, func() int { return 0 }, func(_, i int) int { return i * i })
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
// contract at workers 1 and 4: a job that panics mid-batch records its
// panic itself (recover, count, re-panic — the serving compute job's
// pattern) exactly once, its worker rebuilds its state, and every surviving
// job still delivers its result — with per-job result channels drained in
// submit order, so the batch's observable ordering is unchanged by the panic.
func TestPoolHookedPanicMidBatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const jobs = 24
		const killAt = 11 // the mid-batch job that kills its worker

		var panics, built atomic.Int64
		p := NewPool(workers, func() int { return int(built.Add(1)) })

		results := make([]chan int, jobs)
		for i := 0; i < jobs; i++ {
			results[i] = make(chan int, 1)
			p.Submit(func(state int) {
				defer func() {
					if r := recover(); r != nil {
						panics.Add(1)
						panic(r)
					}
				}()
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
			select {
			case v := <-results[i]:
				if i == killAt || v != i {
					t.Fatalf("workers=%d: slot %d holds result %d", workers, i, v)
				}
			default:
				if i != killAt {
					t.Fatalf("workers=%d: job %d lost its result after the mid-batch kill", workers, i)
				}
			}
		}
		if panics.Load() != 1 {
			t.Fatalf("workers=%d: recorded %d panics, want 1", workers, panics.Load())
		}
		// The killed worker rebuilt its state: more states were built than
		// workers exist.
		if built.Load() != int64(workers)+1 {
			t.Fatalf("workers=%d: built %d states, want %d (one rebuild)", workers, built.Load(), workers+1)
		}
	}
}

// TestMapWorkersLowestIndexPanic: items 7 and 3 both panic, and with more
// than one worker item 3 waits until item 7 has panicked. At every worker
// count and on every run, MapWorkers still runs every other item and then
// re-raises item 3's panic, and MapWorkersPartial returns both errors
// sorted with every other item computed.
func TestMapWorkersLowestIndexPanic(t *testing.T) {
	defer SetWorkers(0)
	state := func() struct{} { return struct{}{} }
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		for run := 0; run < 50; run++ {
			var ran atomic.Int64
			fn := func() func(struct{}, int) int {
				seven := make(chan struct{})
				return func(_ struct{}, i int) int {
					if i == 7 {
						close(seven)
					}
					if i == 3 && workers > 1 {
						<-seven // item 7 panics first
					}
					if i == 3 || i == 7 {
						panic(i)
					}
					ran.Add(1)
					return i + 1
				}
			}
			func() {
				defer func() {
					if pe, ok := recover().(*PanicError); !ok || pe.Value != 3 || ran.Load() != 10 {
						t.Fatalf("workers=%d run %d: MapWorkers raised %v after %d items, want item 3's *PanicError after 10", workers, run, pe, ran.Load())
					}
				}()
				MapWorkers(12, state, fn())
			}()
			out, errs := MapWorkersPartial(12, state, fn())
			if len(errs) != 2 || errs[0].Index != 3 || errs[1].Index != 7 {
				t.Fatalf("workers=%d run %d: errs = %v, want items 3 and 7", workers, run, errs)
			}
			for i, v := range out {
				if want := i + 1; i != 3 && i != 7 && v != want {
					t.Fatalf("workers=%d run %d: out[%d] = %d, want %d", workers, run, i, v, want)
				}
			}
		}
	}
}

// BenchmarkMap is the batch path's own cost, per item of a 32-item no-op batch.
func BenchmarkMap(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer SetWorkers(0)
			SetWorkers(workers)
			batch := func() { Map(32, func(i int) int { return i }) }
			for k := 0; k < b.N; k++ {
				batch()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(32*b.N), "ns/item")
			b.ReportMetric(testing.AllocsPerRun(10, batch)/32, "allocs/item")
		})
	}
}
