// Package parallel provides the bounded worker pool underlying every
// concurrent stage of the pipeline: dataset generation, label generation,
// the dataset runner and the serving pool. The unit of parallel work is a
// frame or a snippet — the numeric kernels in internal/tensor are serial
// loops and do not import this package. Work items are indexed
// [0, n) and results are collected in index order, so a parallel stage is
// observationally identical to its serial loop whenever the per-item work
// is deterministic — the invariant the determinism tests in
// internal/adascale assert end to end.
//
// The worker count honours GOMAXPROCS by default and can be overridden
// globally with SetWorkers (wired to the -workers flag of the commands) or
// per call with the *N variants. A pool is created per call and never
// outlives it; nested parallel calls are safe, they simply share the CPUs.
package parallel

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// workerOverride holds the global worker-count override; 0 means "use
// GOMAXPROCS".
var workerOverride atomic.Int64

// SetWorkers overrides the number of workers used by Map and MapWorkers.
// n <= 0 removes the override, restoring the GOMAXPROCS default.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// Workers returns the effective worker count: the SetWorkers override if
// set, otherwise GOMAXPROCS.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a panic recovered from a pool task so it can surface as
// an ordinary error instead of deadlocking or killing the process.
type PanicError struct {
	// Value is the value the task panicked with.
	Value any
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task panicked: %v", e.Value)
}

// run executes task(i) for every i in [0, n) on up to workers goroutines.
// Indices are handed out through an atomic counter, so the pool is bounded
// and work-stealing-free. The first task panic is recovered and returned as
// a *PanicError; remaining workers stop picking up new work, and the pool
// always drains (no deadlock).
func run(workers, n int, task func(int)) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return runSerial(n, task)
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		err     error
		wg      sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		// A recover here catches at most one panic per worker; the worker
		// then exits, which is fine — the other workers keep draining.
		defer func() {
			if r := recover(); r != nil {
				errOnce.Do(func() { err = &PanicError{Value: r} })
				failed.Store(true)
			}
		}()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			task(i)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	return err
}

// runSerial is the single-worker path: no goroutines, same error contract.
func runSerial(n int, task func(int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	for i := 0; i < n; i++ {
		task(i)
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) across Workers() goroutines and
// returns the results in index order. A task panic is re-raised on the
// calling goroutine (wrapped in *PanicError), matching the behaviour of the
// equivalent serial loop closely enough for drop-in use.
func Map[R any](n int, fn func(int) R) []R { return MapN(Workers(), n, fn) }

// MapN is Map with an explicit worker count.
func MapN[R any](workers, n int, fn func(int) R) []R {
	out := make([]R, n)
	if err := run(workers, n, func(i int) { out[i] = fn(i) }); err != nil {
		panic(err)
	}
	return out
}

// MapWorkers runs fn across Workers() goroutines with per-worker state:
// each worker calls newWorker once and passes the value to every task it
// executes. This is how the pipeline gives each worker its own detector /
// regressor clone (the nn layers cache activations and are not safe to
// share). Results are collected in index order; task panics re-raise on the
// calling goroutine.
func MapWorkers[S, R any](n int, newWorker func() S, fn func(S, int) R) []R {
	return MapWorkersN(Workers(), n, newWorker, fn)
}

// ItemError pairs a work-item index with the error its task produced —
// the structured form a recovered per-item panic surfaces as.
type ItemError struct {
	Index int
	Err   error
}

// Error implements the error interface.
func (e ItemError) Error() string {
	return fmt.Sprintf("parallel: item %d: %v", e.Index, e.Err)
}

// MapWorkersPartial is MapWorkers with graceful degradation: a panicking
// task is recovered into an ItemError for its index (zero value in the
// result slot) and the remaining items still execute, so one poisoned work
// item cannot take down a whole run. After a recovered panic the worker
// rebuilds its per-worker state with newWorker — the panic may have left
// the old state (e.g. a half-updated activation cache) corrupted. Errors
// are returned sorted by item index; results keep index order as always.
func MapWorkersPartial[S, R any](n int, newWorker func() S, fn func(S, int) R) ([]R, []ItemError) {
	return MapWorkersPartialN(Workers(), n, newWorker, fn)
}

// MapWorkersPartialN is MapWorkersPartial with an explicit worker count.
func MapWorkersPartialN[S, R any](workers, n int, newWorker func() S, fn func(S, int) R) ([]R, []ItemError) {
	out := make([]R, n)
	if n <= 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		errs []ItemError
		wg   sync.WaitGroup
	)
	// runOne isolates a single task so a panic loses only that item.
	runOne := func(s S, i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				errs = append(errs, ItemError{Index: i, Err: &PanicError{Value: r}})
				mu.Unlock()
			}
		}()
		out[i] = fn(s, i)
		return true
	}
	worker := func() {
		defer wg.Done()
		s := newWorker()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if !runOne(s, i) {
				s = newWorker()
			}
		}
	}
	if workers == 1 {
		wg.Add(1)
		worker()
	} else {
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go worker()
		}
		wg.Wait()
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return out, errs
}

// Pool is a persistent bounded worker pool with per-worker state — the
// serving substrate's counterpart to the per-call MapWorkers pools. Each
// worker owns one S (detector/regressor clones in the serving layer),
// built once at start; jobs submitted with Submit run on whichever worker
// picks them up. Unlike the Map* helpers a Pool outlives any single batch:
// the serving scheduler keeps it running for the lifetime of the server
// and feeds it frames as streams make them ready.
//
// A job that panics is recovered: the panic is counted (Panics) and the
// worker rebuilds its state with newWorker before picking up more work, so
// one poisoned frame cannot take a worker — let alone the pool — down.
// Jobs that must report completion should do so themselves (e.g. by
// sending on a channel in a defer), since Submit is fire-and-forget.
type Pool[S any] struct {
	jobs    chan func(S)
	wg      sync.WaitGroup
	workers int
	panics  atomic.Int64
	closed  atomic.Bool
	onPanic func(v any)
}

// NewPool starts workers goroutines, each holding its own newWorker()
// state. workers < 1 means Workers(). The queue is unbuffered: Submit
// hands the job directly to an idle worker or blocks until one frees —
// backpressure belongs to the caller's queues, not a hidden channel.
func NewPool[S any](workers int, newWorker func() S) *Pool[S] {
	return NewPoolHooked(workers, newWorker, nil)
}

// NewPoolHooked is NewPool with a recovery hook: onPanic (nil is allowed
// and ignored) is called with the recovered value once per job panic,
// after the panic is counted and before the worker rebuilds its state.
// The hook runs on the panicking worker's goroutine, so it must be safe
// for concurrent use — the serving layer points it at an obs counter,
// which is how a pool rebuild becomes visible in metric snapshots.
func NewPoolHooked[S any](workers int, newWorker func() S, onPanic func(v any)) *Pool[S] {
	if workers < 1 {
		workers = Workers()
	}
	p := &Pool[S]{jobs: make(chan func(S)), workers: workers, onPanic: onPanic}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(newWorker)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool[S]) Workers() int { return p.workers }

// Panics returns the number of recovered job panics since start.
func (p *Pool[S]) Panics() int { return int(p.panics.Load()) }

func (p *Pool[S]) worker(newWorker func() S) {
	defer p.wg.Done()
	s := newWorker()
	for job := range p.jobs {
		if !p.runJob(s, job) {
			// The panic may have left the state (e.g. a half-updated
			// activation cache) corrupted: rebuild it.
			s = newWorker()
		}
	}
}

// runJob isolates one job so a panic loses only that job.
func (p *Pool[S]) runJob(s S, job func(S)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			if p.onPanic != nil {
				p.onPanic(r)
			}
		}
	}()
	job(s)
	return true
}

// Submit enqueues one job. It blocks until a worker accepts it and returns
// true, or returns false if the pool is closed (the job is not run).
// Submitting concurrently with Close is the caller's race to avoid; the
// scheduler's single-threaded event loop does both, so it never races.
func (p *Pool[S]) Submit(job func(S)) bool {
	if p.closed.Load() {
		return false
	}
	p.jobs <- job
	return true
}

// Close stops accepting jobs, waits for in-flight and queued jobs to
// drain, and stops every worker goroutine. It is idempotent. After Close
// returns, no pool goroutine remains (pinned by the scheduler-shutdown
// leak test).
func (p *Pool[S]) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.jobs)
	}
	p.wg.Wait()
}

// MapWorkersN is MapWorkers with an explicit worker count.
func MapWorkersN[S, R any](workers, n int, newWorker func() S, fn func(S, int) R) []R {
	out := make([]R, n)
	if n <= 0 {
		return out
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := newWorker()
		if err := runSerial(n, func(i int) { out[i] = fn(s, i) }); err != nil {
			panic(err)
		}
		return out
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		err     error
		wg      sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				errOnce.Do(func() { err = &PanicError{Value: r} })
				failed.Store(true)
			}
		}()
		s := newWorker()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i] = fn(s, i)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if err != nil {
		panic(err)
	}
	return out
}
