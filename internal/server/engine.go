package server

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"adascale/internal/adascale"
	"adascale/internal/obs"
	"adascale/internal/parallel"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/serve"
	"adascale/internal/simclock"
	"adascale/internal/synth"
)

// The engine is the serving core behind the HTTP handlers: per-stream
// resilient scale-state sessions (adascale.ResilientSession) fed through
// the shared bounded drop-oldest queues (serve.FrameQueue), with the real
// detector/regressor compute fanned out over a persistent parallel.Pool of
// per-worker clones — the same building blocks the virtual-time batch
// scheduler composes, re-plumbed for open-ended network arrival.
//
// Time stays virtual underneath: a frame's arrival instant comes from the
// clock bridge, its service time is the modelled detector cost at the
// scale the session chose, and its completion chains on the stream's
// virtual busy horizon (streams are strictly sequential — frame k+1's
// scale depends on frame k's regressor output). Latency, SLO accounting
// and every metric are therefore pure functions of (admitted requests,
// arrival stamps), which is what makes the handler layer golden-testable
// under a scripted clock while the same engine serves wall-clock traffic.
//
// Accounting invariant: every admitted frame is offered, and ends up
// served (possibly via the degradation ladder) or dropped (queue
// eviction) — offered == served + dropped once the engine has drained,
// the same zero-lost-frames contract the batch scheduler's chaos gate
// asserts, here held through SIGTERM.

// Sentinel errors the handlers map onto HTTP statuses.
var (
	// ErrDraining rejects admission and ingestion once drain has begun.
	ErrDraining = errors.New("server: draining; not accepting new work")
	// ErrNoSuchStream rejects operations on unknown stream IDs.
	ErrNoSuchStream = errors.New("server: no such stream")
)

// QuotaError is the typed rejection for admission-control limits (global
// capacity, per-tenant stream quota); handlers map it to 429.
type QuotaError struct {
	Tenant string
	Reason string
}

// Error implements the error interface.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("server: quota: tenant %q: %s", e.Tenant, e.Reason)
}

// FrameResult is one served frame's outcome as the results endpoint
// reports it.
type FrameResult struct {
	Index     int             `json:"index"`
	Scale     int             `json:"scale"`
	LatencyMS float64         `json:"latency_ms"`
	SLOMiss   bool            `json:"slo_miss,omitempty"`
	Fault     string          `json:"fault,omitempty"`
	Fallback  string          `json:"fallback,omitempty"`
	Dets      []DetectionJSON `json:"detections"`
}

// DetectionJSON is one detection on the wire.
type DetectionJSON struct {
	Class int     `json:"class"`
	Score float64 `json:"score"`
	X1    float64 `json:"x1"`
	Y1    float64 `json:"y1"`
	X2    float64 `json:"x2"`
	Y2    float64 `json:"y2"`
}

// IngestReply is the ingestion endpoint's accounting answer.
type IngestReply struct {
	StreamID int `json:"stream_id"`
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	Queued   int `json:"queued"`
}

// ResultsReply is the results endpoint's answer: served outputs from the
// requested offset plus the stream's running accounting.
type ResultsReply struct {
	StreamID  int           `json:"stream_id"`
	From      int           `json:"from"`
	Offered   int           `json:"offered"`
	Served    int           `json:"served"`
	Dropped   int           `json:"dropped"`
	Queued    int           `json:"queued"`
	SLOMisses int           `json:"slo_misses"`
	Results   []FrameResult `json:"results"`
}

// stream is one admitted video session.
type stream struct {
	id     int
	tenant string
	sloMS  float64
	depth  int
	sess   *adascale.ResilientSession

	queue   serve.FrameQueue
	running bool // a frame of this stream is in compute right now
	done    bool // consumer goroutine exited (drain finished)

	nextIndex   int     // frame index assigner (keys the seed derivation)
	busyUntilMS float64 // virtual completion horizon of the last frame

	offered, served, dropped, sloMiss int
	results                           []FrameResult
}

// workerState is one pool worker's private detector/regressor clones;
// every clone computes identical values, so which worker serves which
// frame cannot affect any response.
type workerState struct {
	det *rfcn.Detector
	reg *regressor.Regressor
}

// computeResult is what a pool worker hands back for one frame.
type computeResult struct {
	r   *rfcn.Result
	t   float64
	err error
}

// engine owns the admitted streams, the compute pool and the registry.
type engine struct {
	cfg        Config
	clock      Clock
	metrics    *obs.Metrics
	pool       *parallel.Pool[workerState]
	numClasses int
	kernels    []int // regressor branch kernels, for per-stream sessions

	mu       sync.Mutex
	cond     *sync.Cond
	streams  []*stream
	byTenant map[string]int
	draining bool
}

// newEngine builds the engine for a validated, defaulted config.
func newEngine(det *rfcn.Detector, reg *regressor.Regressor, cfg Config) *engine {
	e := &engine{
		cfg:        cfg,
		clock:      cfg.Clock,
		metrics:    cfg.Metrics,
		numClasses: len(det.Data.Classes),
		kernels:    reg.Kernels,
		byTenant:   map[string]int{},
	}
	e.cond = sync.NewCond(&e.mu)
	e.pool = parallel.NewPoolHooked(cfg.Workers, func() workerState {
		return workerState{det: det.Clone(), reg: reg.Clone()}
	}, func(any) { e.metrics.Inc("pool/panic_rebuild", 1) })
	return e
}

// admit creates a stream for tenant under the quota rules, returning its
// ID and the effective SLO and queue depth (zero inputs take the server
// defaults).
func (e *engine) admit(tenant string, sloMS float64, depth int) (id int, effSLO float64, effDepth int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		e.metrics.Inc("admission/rejected_draining", 1)
		return 0, 0, 0, ErrDraining
	}
	if e.cfg.MaxStreams > 0 && len(e.streams) >= e.cfg.MaxStreams {
		e.metrics.Inc("admission/rejected_capacity", 1)
		return 0, 0, 0, &QuotaError{Tenant: tenant, Reason: fmt.Sprintf("server at capacity (%d streams)", e.cfg.MaxStreams)}
	}
	if e.cfg.TenantStreams > 0 && e.byTenant[tenant] >= e.cfg.TenantStreams {
		e.metrics.Inc("admission/rejected_quota", 1)
		return 0, 0, 0, &QuotaError{Tenant: tenant, Reason: fmt.Sprintf("tenant stream quota %d reached", e.cfg.TenantStreams)}
	}
	if sloMS == 0 {
		sloMS = e.cfg.SLOMS
	}
	if depth == 0 {
		depth = e.cfg.QueueDepth
	}
	rcfg := e.cfg.Resilient
	rcfg.DeadlineMS = sloMS
	s := &stream{
		id:     len(e.streams),
		tenant: tenant,
		sloMS:  sloMS,
		depth:  depth,
		sess:   adascale.NewResilientSession(e.kernels, rcfg),
	}
	e.streams = append(e.streams, s)
	e.byTenant[tenant]++
	e.metrics.Inc("sessions/accepted", 1)
	e.metrics.Set("streams/live", float64(len(e.streams)))
	if !e.cfg.Sync {
		go e.consume(s)
	}
	return s.id, sloMS, depth, nil
}

// tenantOf resolves a stream ID to its admitting tenant (for the
// rate-limit middleware on stream-scoped routes).
func (e *engine) tenantOf(id int) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.streams) {
		return "", false
	}
	return e.streams[id].tenant, true
}

// ingest admits a validated batch of frame specs into stream id's bounded
// queue, stamping each with the bridge clock's current instant. In sync
// mode the queue is then flushed inline before returning; otherwise the
// stream's consumer goroutine is woken.
func (e *engine) ingest(id int, frames []FrameSpec) (IngestReply, error) {
	e.mu.Lock()
	if id < 0 || id >= len(e.streams) {
		e.mu.Unlock()
		return IngestReply{}, ErrNoSuchStream
	}
	if e.draining {
		e.mu.Unlock()
		return IngestReply{}, ErrDraining
	}
	s := e.streams[id]
	now := e.clock.NowMS()
	reply := IngestReply{StreamID: id, Accepted: len(frames)}
	for i := range frames {
		fr := frames[i].frame(e.cfg.Seed, id, s.nextIndex)
		s.nextIndex++
		s.offered++
		e.metrics.Inc("frames/offered", 1)
		if dropped := s.queue.Push(serve.QueuedFrame{Frame: fr, ArrivalMS: now}, s.depth); dropped != nil {
			s.dropped++
			reply.Dropped++
			e.metrics.Inc("frames/dropped", 1)
			e.metrics.Inc(fmt.Sprintf("stream/%d/dropped", id), 1)
		}
	}
	e.metrics.Observe("queue/depth", float64(s.queue.Len()))
	e.metrics.SetMax("queue/peak_depth", float64(s.queue.Len()))
	if e.cfg.Sync {
		for s.queue.Len() > 0 {
			e.processLocked(s)
		}
	} else {
		e.cond.Broadcast()
	}
	reply.Queued = s.queue.Len()
	e.mu.Unlock()
	return reply, nil
}

// results returns stream id's served outputs from offset `from` on, plus
// its running accounting.
func (e *engine) results(id, from int) (ResultsReply, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.streams) {
		return ResultsReply{}, ErrNoSuchStream
	}
	s := e.streams[id]
	if from < 0 {
		from = 0
	}
	if from > len(s.results) {
		from = len(s.results)
	}
	out := make([]FrameResult, len(s.results)-from)
	copy(out, s.results[from:])
	return ResultsReply{
		StreamID: id, From: from,
		Offered: s.offered, Served: s.served, Dropped: s.dropped,
		Queued: s.queue.Len(), SLOMisses: s.sloMiss,
		Results: out,
	}, nil
}

// consume is stream s's serializer goroutine (async mode): it drains the
// queue one frame at a time — sessions are strictly sequential — until
// drain is requested and the queue is empty.
func (e *engine) consume(s *stream) {
	e.mu.Lock()
	for {
		for !e.draining && s.queue.Len() == 0 {
			e.cond.Wait()
		}
		if s.queue.Len() == 0 {
			break
		}
		e.processLocked(s)
	}
	s.done = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// processLocked serves the head frame of s: plans the scale, costs the
// frame on the virtual clock, runs the real compute on the pool (lock
// released around it), and settles the output through the resilient
// ladder with the frame's end-to-end virtual latency as the SLO charge.
// Called with e.mu held; returns with it held.
func (e *engine) processLocked(s *stream) {
	qf := s.queue.Pop()
	plan := s.sess.Plan(qf.Frame)
	startMS := math.Max(qf.ArrivalMS, s.busyUntilMS)
	serviceMS := simclock.DetectorBaseMS + plan.JitterMS
	if !plan.Skip {
		serviceMS = simclock.DetectMS(qf.Frame.W, qf.Frame.H, plan.Scale) + s.sess.Overhead() + plan.JitterMS
	}
	doneMS := startMS + serviceMS
	s.busyUntilMS = doneMS
	s.running = true
	e.mu.Unlock()

	var cr computeResult
	if !plan.Skip {
		res := make(chan computeResult, 1)
		frame, scale := qf.Frame, plan.Scale
		submitted := e.pool.Submit(func(w workerState) {
			// A panicking frame must still deliver a result — the consumer
			// blocks on res — and must still count against the pool (state
			// rebuild), hence the re-panic.
			defer func() {
				if r := recover(); r != nil {
					res <- computeResult{err: fmt.Errorf("server: frame compute panicked: %v", r)}
					panic(r)
				}
			}()
			r := w.det.DetectWithFeatures(frame, scale)
			t := w.reg.Predict(r.Features)
			w.det.Recycle(r.Features)
			r.Features = nil
			res <- computeResult{r: r, t: t}
		})
		if submitted {
			cr = <-res
		} else {
			// Pool already closed (drain raced a straggler): degrade to
			// propagation rather than losing the frame.
			cr = computeResult{err: errors.New("server: compute pool closed")}
		}
	}

	e.mu.Lock()
	latency := doneMS - qf.ArrivalMS
	r, t := cr.r, cr.t
	if cr.err != nil {
		r, t = nil, 0
		e.metrics.Inc("frames/panic", 1)
	}
	out := s.sess.Finish(qf.Frame, plan, r, t, latency)
	s.running = false
	s.served++
	e.metrics.Inc("frames/served", 1)
	e.metrics.Inc(fmt.Sprintf("stream/%d/served", s.id), 1)
	e.metrics.Inc(serve.ScaleKey(out.Scale), 1)
	e.metrics.Observe("latency/ms", latency)
	e.metrics.Observe("service/ms", serviceMS)
	e.metrics.Observe("queue/wait_ms", startMS-qf.ArrivalMS)
	if plan.Skip {
		e.metrics.Inc("frames/skipped", 1)
	}
	if out.Health.Fault != synth.FaultNone {
		e.metrics.Inc("fault/"+out.Health.Fault.String(), 1)
	}
	if out.Health.Fallback != adascale.FallbackNone {
		e.metrics.Inc("fallback/"+out.Health.Fallback.String(), 1)
	}
	fr := FrameResult{
		Index:     qf.Frame.Index,
		Scale:     out.Scale,
		LatencyMS: latency,
	}
	if s.sloMS > 0 && latency > s.sloMS {
		fr.SLOMiss = true
		s.sloMiss++
		e.metrics.Inc("slo/miss", 1)
		e.metrics.Inc(fmt.Sprintf("stream/%d/slo_miss", s.id), 1)
	}
	if out.Health.Fault != synth.FaultNone {
		fr.Fault = out.Health.Fault.String()
	}
	if out.Health.Fallback != adascale.FallbackNone {
		fr.Fallback = out.Health.Fallback.String()
	}
	fr.Dets = make([]DetectionJSON, len(out.Detections))
	for i, d := range out.Detections {
		fr.Dets[i] = DetectionJSON{
			Class: d.Class, Score: d.Score,
			X1: d.Box.X1, Y1: d.Box.Y1, X2: d.Box.X2, Y2: d.Box.Y2,
		}
	}
	s.results = append(s.results, fr)
	e.cond.Broadcast()
}

// stopAdmission closes the front door: admission and ingestion start
// returning ErrDraining, consumers begin draining their queues.
func (e *engine) stopAdmission() {
	e.mu.Lock()
	e.draining = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// drain stops admission, flushes every queued and in-flight frame through
// the pipeline, then closes the compute pool. After drain returns, offered
// == served + dropped on every stream — no admitted frame is lost to
// shutdown — and the engine accepts no further work.
func (e *engine) drain() {
	e.stopAdmission()
	e.mu.Lock()
	if e.cfg.Sync {
		// No consumers in sync mode; flush any residue inline.
		for _, s := range e.streams {
			for s.queue.Len() > 0 {
				e.processLocked(s)
			}
			s.done = true
		}
	} else {
		for {
			alive := false
			for _, s := range e.streams {
				if !s.done {
					alive = true
					break
				}
			}
			if !alive {
				break
			}
			e.cond.Wait()
		}
	}
	e.mu.Unlock()
	e.pool.Close()
}

// stats sums the accounting invariant's three terms across streams.
func (e *engine) stats() (offered, served, dropped int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.streams {
		offered += s.offered
		served += s.served
		dropped += s.dropped
	}
	return offered, served, dropped
}
