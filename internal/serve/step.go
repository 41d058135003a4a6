package serve

import (
	"errors"
	"fmt"
	"sync/atomic"

	"adascale/internal/adascale"
	"adascale/internal/obs"
	"adascale/internal/parallel"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// The frame step. Algorithm 1 is a per-frame step — detect at scale m_t,
// regress m_{t+1} from the same features, charge the frame's cost — and
// serving wraps it in a queue and a ledger: Offer the frame to its stream's
// bounded queue; Plan and cost it (adascale.ResilientSession.Plan, CostMS);
// Submit its compute to a pool worker; Settle the output through the
// degradation ladder and emit every per-frame metric. This file is the one
// copy of that step. A driver owns two things and nothing else of a frame's
// life: a time source (when the frame starts and when it completes) and an
// executor policy (which frames reach the pool, and what a failure there
// costs). The discrete-event scheduler (scheduler.go: event heap, supervised
// workers, retries, breakers, shed) and the HTTP engine (internal/server:
// clock bridge, per-stream completion horizon) are the two drivers.

// Core is what every frame of one server shares: the registry the step
// records into, the optional tracer, and the compute pool. Build it with
// NewCore, which resolves the step's metric handles; a Core without
// StartPool can Offer and Settle but not Submit (the model-only scheduler).
type Core struct {
	Metrics *obs.Metrics

	// Tracer, when non-nil, makes Settle record the frame's pipeline-stage
	// spans and stage histograms.
	Tracer *obs.Tracer

	h    stepMetrics
	pool *parallel.Pool[worker]
}

// stepMetrics are the frame step's registry handles, resolved once per
// Core, so recording a frame is a handle operation per metric: no name
// lookup and no registry lock. The driver serialises the step (the event
// loop is one goroutine; the HTTP engine holds its lock), which is the
// serialisation obs.Metrics asks of handle writers. The per-scale, per-fault
// and per-rung tables fill as a name is first recorded (Core.counter); a
// resolved handle adds no name until it is written, so the registry's key
// set is what recording by name would give.
type stepMetrics struct {
	offered, dropped, served, skipped, panicked, sloMiss *obs.Counter
	latency, service, queueDepth, queueWait              *obs.Histogram
	peakDepth                                            *obs.Gauge

	scale    [len(scaleKeys)]*obs.Counter
	fault    [len(faultKeys)]*obs.Counter
	fallback [len(fallbackKeys)]*obs.Counter
}

// NewCore returns a Core recording into m (and tracing into tracer, if
// non-nil).
func NewCore(m *obs.Metrics, tracer *obs.Tracer) Core {
	return Core{Metrics: m, Tracer: tracer, h: stepMetrics{
		offered:    m.CounterOf("frames/offered"),
		dropped:    m.CounterOf("frames/dropped"),
		served:     m.CounterOf("frames/served"),
		skipped:    m.CounterOf("frames/skipped"),
		panicked:   m.CounterOf("frames/panic"),
		sloMiss:    m.CounterOf("slo/miss"),
		latency:    m.HistogramOf("latency/ms"),
		service:    m.HistogramOf("service/ms"),
		queueDepth: m.HistogramOf("queue/depth"),
		queueWait:  m.HistogramOf("queue/wait_ms"),
		peakDepth:  m.GaugeOf("queue/peak_depth"),
	}}
}

// counter returns the handle in slot, resolving name's counter into it on
// first use.
func (c *Core) counter(slot **obs.Counter, name string) *obs.Counter {
	if *slot == nil {
		*slot = c.Metrics.CounterOf(name)
	}
	return *slot
}

// worker is one pool worker's private clones; the nn layers cache
// activations and are not safe to share, but every clone computes
// identical values, so which worker serves which frame cannot affect any
// result.
type worker struct {
	det *rfcn.Detector
	reg *regressor.Regressor
}

// StartPool starts the compute pool: workers goroutines (0 means
// parallel.Workers()), each with its own clones of det and reg.
func (c *Core) StartPool(det *rfcn.Detector, reg *regressor.Regressor, workers int) {
	c.startPool(workers, func() worker { return worker{det: det.Clone(), reg: reg.Clone()} })
}

// startPool is StartPool with the worker factory exposed. A job panic
// rebuilds the worker's state inside the pool; the job itself counts the
// rebuild (job.compute).
func (c *Core) startPool(workers int, newWorker func() worker) {
	c.pool = parallel.NewPool(workers, newWorker)
}

// Close drains and stops the compute pool StartPool started.
func (c *Core) Close() { c.pool.Close() }

// Result is what a pool worker hands back for one frame: the compute, or
// the reason there is none. The zero Result means "no compute ran" and
// settles through the propagation rungs, as does one carrying Err.
type Result struct {
	adascale.Computed
	Err error
}

// Submit ships one frame of lane ln — its detector + regressor pass — to a
// pool worker and returns the channel its Result arrives on. The job and its
// buffered channel are the lane's, reused frame after frame, so the lane's
// previous Result must have been received or abandoned (Abandon): a worker
// never blocks delivering, whatever the pool's size. Exactly one Result is
// always delivered: a panicking frame counts pool/panic_rebuild, delivers
// (Err set) and then re-panics, so the pool rebuilds the worker's state —
// the counter is in the registry before the Result is received; a pool
// already closed (drain raced a straggler) delivers Err at once, so the
// frame degrades to propagation rather than being lost.
func (c *Core) Submit(ln *Lane, f *synth.Frame, scale int) <-chan Result {
	return c.submit(ln, f, scale, false)
}

// submit is Submit for a frame dispatched now (!ahead) or computed ahead of
// its dispatch, which claims the job (eventLoop.claimAhead).
func (c *Core) submit(ln *Lane, f *synth.Frame, scale int, ahead bool) <-chan Result {
	j := ln.job
	if j == nil {
		j = &job{res: make(chan Result, 1)}
		j.run = j.compute // bound once, so a Submit builds no closure
		ln.job = j
	}
	j.f, j.scale, j.m = f, scale, c.Metrics
	j.ahead.Store(ahead)
	if !c.pool.Submit(j.run) {
		j.res <- Result{Err: errors.New("serve: compute pool closed")}
	}
	return j.res
}

// job is a lane's frame on its way to a worker. The worker reads it only
// until it delivers the Result; the lane rewrites it only after receiving.
type job struct {
	f     *synth.Frame
	scale int
	m     *obs.Metrics
	res   chan Result
	run   func(worker)
	// ahead: computed ahead and neither claimed nor panicked; a claim and a
	// panic each clear it, and the second counts pool/panic_rebuild.
	ahead atomic.Bool
}

func (j *job) compute(w worker) {
	defer func() {
		if r := recover(); r != nil {
			// By name, under the registry lock: this is the one write made
			// on a pool goroutine, outside the caller's serialisation. A
			// frame abandoned before its dispatch counts nothing.
			if !j.ahead.CompareAndSwap(true, false) {
				j.m.Inc("pool/panic_rebuild", 1)
			}
			j.res <- Result{Err: fmt.Errorf("serve: frame compute panicked: %v", r)}
			panic(r)
		}
	}()
	j.res <- Result{Computed: adascale.Compute(w.det, w.reg, j.f, j.scale)}
}

// Lane is one stream's share of the step: its resilient scale-state
// session and its ledger (Offered == Served + Dropped once the stream has
// drained). The ledger is the stream's only per-stream record: the registry
// holds aggregates, so its key set never grows with the stream count. Not
// safe for concurrent use; each driver serialises a lane's Offer and Settle
// calls.
type Lane struct {
	ID   int
	Sess *adascale.ResilientSession

	Offered, Served, Dropped, SLOMisses int

	job *job // Submit's; nil until the first Submit and after Abandon
}

// Abandon gives up on the lane's frame in compute: its worker keeps the job
// and delivers into a channel nobody reads, and the next Submit makes a
// fresh job, so a stale send can never be read as a later frame's result.
func (ln *Lane) Abandon() { ln.job = nil }

// Offer enqueues an arrival on the lane's queue q under the bounded
// drop-oldest policy and returns the frame evicted to make room, if any.
func (c *Core) Offer(ln *Lane, q *FrameQueue, tf TimedFrame, depth int) (dropped *synth.Frame) {
	ln.Offered++
	c.h.offered.Add(1)
	if dropped = q.Push(tf, depth); dropped != nil {
		ln.Dropped++
		c.h.dropped.Add(1)
	}
	return dropped
}

// ObserveQueue records a queue's depth after the driver's arrivals: the
// depth histogram and the peak-depth gauge.
func (c *Core) ObserveQueue(q *FrameQueue) {
	n := float64(q.Len())
	c.h.queueDepth.Observe(n)
	c.h.peakDepth.SetMax(n)
}

// ObserveWait records how long a frame queued before its first dispatch.
func (c *Core) ObserveWait(ms float64) { c.h.queueWait.Observe(ms) }

// Settle is the single exit for every served frame, whatever path it took:
// computed, skipped by its plan (sensor fault), shed or abandoned by the
// driver (zero res), or poisoned (res.Err). It closes the frame through
// the session's ladder — only a computed frame has a detector result;
// every other path propagates the last good detections with explicit
// accounting — charging latencyMS, the frame's end-to-end latency, against
// the deadline budget (the SLO rung), then records the serving metrics and
// the SLO verdict against sloMS (0 disables). startMS and serviceMS are the
// driver's own dispatch instant and service time: observed as given, never
// re-derived, because snapshots print them at full precision.
func (c *Core) Settle(ln *Lane, f *synth.Frame, plan adascale.FramePlan, res Result,
	startMS, serviceMS, latencyMS, sloMS float64) (out adascale.FrameOutput, sloMiss bool) {
	h := &c.h
	if plan.Skip {
		h.skipped.Add(1)
	}
	if res.Err != nil {
		// One bad frame must not take down the stream, let alone the
		// server: it degrades like a sensed fault, and is counted.
		h.panicked.Add(1)
	}
	out = ln.Sess.Finish(f, plan, res.R, res.T, latencyMS)
	res.R.Release() // Finish copied the detections out

	h.served.Add(1)
	if i := out.Scale - regressor.MinScale; i >= 0 && i < len(h.scale) {
		c.counter(&h.scale[i], scaleKeys[i]).Add(1)
	} else {
		c.Metrics.Inc(ScaleKey(out.Scale), 1)
	}
	h.latency.Observe(latencyMS)
	h.service.Observe(serviceMS)
	if k := out.Health.Fault; k != synth.FaultNone {
		c.counter(&h.fault[k], faultKeys[k]).Add(1)
	}
	if k := out.Health.Fallback; k != adascale.FallbackNone {
		c.counter(&h.fallback[k], fallbackKeys[k]).Add(1)
	}
	if sloMiss = sloMS > 0 && latencyMS > sloMS; sloMiss {
		ln.SLOMisses++
		h.sloMiss.Add(1)
	}
	if c.Tracer != nil {
		c.trace(ln, out, startMS, sloMiss)
	}
	ln.Served++
	return out, sloMiss
}

// trace records the served frame's pipeline-stage spans (start = the
// frame's dispatch time on the driver's clock) and the per-stage metric
// histograms — overall and per-SLO-miss, so a miss can be localised to the
// stage that ate the budget.
func (c *Core) trace(ln *Lane, out adascale.FrameOutput, startMS float64, sloMiss bool) {
	spans := ln.Sess.FrameSpans(ln.ID, ln.Served, startMS, out)
	c.Tracer.Add(spans)
	for _, sp := range spans {
		c.Metrics.Observe(stageKeys[sp.Stage], sp.DurMS)
		if sloMiss {
			c.Metrics.Observe(sloMissStageKeys[sp.Stage], sp.DurMS)
		}
	}
}
