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
// Pool is the only worker loop. A batch (Map, MapWorkers,
// MapWorkersPartial) runs its items as jobs on a Pool opened for the call
// and closed before it returns; nested batches are safe, they simply share
// the CPUs. The worker count honours GOMAXPROCS by default and can be
// overridden globally with SetWorkers (wired to the -workers flag of the
// commands).
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

// Map runs fn(i) for every i in [0, n) on Workers() pool workers and
// returns the results in index order. Every item runs even if some panic;
// the lowest-index panic is then re-raised on the calling goroutine as a
// *PanicError, so which panic surfaces never depends on scheduling.
func Map[R any](n int, fn func(int) R) []R {
	return MapWorkers(n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) R { return fn(i) })
}

// MapWorkers is Map with per-worker state: each worker calls newWorker
// once and passes the value to every task it executes. This is how the
// pipeline gives each worker its own detector / regressor clone (the nn
// layers cache activations and are not safe to share).
func MapWorkers[S, R any](n int, newWorker func() S, fn func(S, int) R) []R {
	out, errs := mapWorkers(Workers(), n, newWorker, fn)
	if len(errs) > 0 {
		panic(errs[0].Err)
	}
	return out
}

// MapWorkersPartial is MapWorkers with graceful degradation: a panicking
// task is recovered into an ItemError for its index (zero value in the
// result slot), so one poisoned work item cannot take down a whole run.
// The worker rebuilds its state with newWorker after a panic (see Pool).
// Errors are returned sorted by item index.
func MapWorkersPartial[S, R any](n int, newWorker func() S, fn func(S, int) R) ([]R, []ItemError) {
	return mapWorkers(Workers(), n, newWorker, fn)
}

// mapWorkers runs the batch as n jobs on a Pool of min(workers, n)
// workers; Close is the barrier. No pool is opened for an empty batch, so
// newWorker never runs.
func mapWorkers[S, R any](workers, n int, newWorker func() S, fn func(S, int) R) ([]R, []ItemError) {
	out := make([]R, n)
	if n <= 0 {
		return out, nil
	}
	var (
		mu   sync.Mutex
		errs []ItemError
	)
	p := NewPool(min(workers, n), newWorker)
	for i := range out {
		p.Submit(func(s S) {
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					errs = append(errs, ItemError{Index: i, Err: &PanicError{Value: r}})
					mu.Unlock()
					panic(r) // the Pool rebuilds this worker's state
				}
			}()
			out[i] = fn(s, i)
		})
	}
	p.Close()
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return out, errs
}

// Pool is a bounded worker pool with per-worker state. Each worker owns
// one S (detector/regressor clones), built once at start; jobs submitted
// with Submit run on whichever worker picks them up. A batch opens a Pool
// for one call; the serving scheduler keeps one running for the lifetime
// of the server and feeds it frames as streams make them ready.
//
// A job that panics is recovered and the worker rebuilds its state with
// newWorker before picking up more work — the panic may have left the old
// state (e.g. a half-updated activation cache) corrupted — so one poisoned
// frame cannot take a worker, let alone the pool, down. Submit is
// fire-and-forget: a job that must report completion or failure does so
// itself, before re-panicking.
type Pool[S any] struct {
	jobs   chan func(S)
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewPool starts workers goroutines, each holding its own newWorker()
// state. workers < 1 means Workers(). The queue is unbuffered: Submit
// hands the job directly to an idle worker or blocks until one frees —
// backpressure belongs to the caller's queues, not a hidden channel.
func NewPool[S any](workers int, newWorker func() S) *Pool[S] {
	if workers < 1 {
		workers = Workers()
	}
	p := &Pool[S]{jobs: make(chan func(S))}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(newWorker)
	}
	return p
}

func (p *Pool[S]) worker(newWorker func() S) {
	defer p.wg.Done()
	s := newWorker()
	for job := range p.jobs {
		if !runJob(s, job) {
			s = newWorker()
		}
	}
}

// runJob isolates one job so a panic loses only that job.
func runJob[S any](s S, job func(S)) (ok bool) {
	defer func() { recover() }()
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
