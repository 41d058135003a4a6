// Package serve is the multi-stream inference server over the AdaScale
// pipeline: N concurrent video sessions, each wrapping a resilient
// per-stream scale-state session (internal/adascale.ResilientSession),
// fed through bounded per-stream frame queues with an explicit drop-oldest
// policy, scheduled onto the persistent worker pool (internal/parallel.Pool,
// per-worker detector/regressor clones) by a central event loop.
//
// Time is virtual. The scheduler is a discrete-event simulation over the
// modelled runtime clock (internal/simclock): arrivals come from the
// deterministic load generator (loadgen.go), service times are the
// modelled detector cost at the scale the session chose, and every metric
// — frame latency percentiles, queue depths, drops, SLO misses — is
// derived from virtual timestamps. Real CPU work (the behavioural
// detector and the regressor forward pass) still fans out across real
// goroutines with per-worker clones, a stream's next frame computing as soon
// as its plan is fixed; only its *scheduling* is virtual. The event loop
// consumes each result at the frame's virtual completion, so the served
// output stream, the final metrics registry and its text snapshot are
// byte-identical across runs and machine core counts — the determinism
// contract the serving experiments and the serve-smoke gate assert.
//
// A run allocates only what it returns. Its working set — the session
// slab, the resilient-session ladders, the queue rings, the dispatch index,
// the agenda and the supervisor — is recycled from run to run through one
// pool, so a stream of runs (the cluster's node runs, which restart every
// epoch) stops feeding the garbage collector; Tally records into the
// caller's report and registry, and hands each stream's report to a
// callback rather than listing them.
//
// Per-stream latency SLOs reuse the PR 2 hysteresis machinery unchanged:
// the session's simclock.Budget is charged with each frame's end-to-end
// latency instead of its compute cost, so a stream that keeps missing its
// SLO walks its scale cap down the S_reg ladder one rung at a time (and
// back up only with wide headroom). Overload therefore degrades scale
// first and coverage second (drop-oldest), and never stalls the server.
package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/obs"
	"adascale/internal/parallel"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// ConfigError is the typed error Validate returns for a rejected serving
// configuration, so callers (the serve command, the experiment runners)
// can distinguish a bad config from a runtime failure.
type ConfigError struct {
	Field  string // the Config field that was rejected
	Reason string // why
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("serve: invalid config: %s: %s", e.Field, e.Reason)
}

// Config parameterises the server.
type Config struct {
	// Workers is the serving capacity: the number of frames in service at
	// once, and the size of the real compute pool backing them. 0 means
	// parallel.Workers().
	Workers int

	// QueueDepth bounds each stream's arrival queue; an arrival beyond it
	// drops the oldest queued frame. It must be positive: a zero or
	// negative capacity cannot hold the frame being admitted, and is
	// rejected by Validate with a *ConfigError rather than silently
	// rewritten (a stream with no queue would drop-panic on its first
	// arrival).
	QueueDepth int

	// MaxStreams is the admission-control capacity: streams beyond it are
	// rejected at Run start (sessions/rejected metric, Report.Rejected).
	// 0 means unlimited.
	MaxStreams int

	// SLOMS is the per-frame end-to-end latency SLO (virtual ms). While a
	// stream's rolling mean latency exceeds it, the stream's scale cap
	// steps down the S_reg ladder (the PR 2 hysteresis). 0 disables SLO
	// enforcement.
	SLOMS float64

	// Resilient is each session's degradation-ladder config. Its only
	// field, DeadlineMS, is overridden by SLOMS: in the serving layer the
	// deadline budget tracks latency, not compute.
	Resilient adascale.ResilientConfig

	// TickMS emits a periodic OnTick callback every TickMS of virtual
	// time (0 disables) — how the serve command prints periodic metric
	// snapshots at deterministic instants.
	TickMS float64

	// OnTick, if set, is called from the event loop at every tick with
	// the current virtual time and the live metrics registry.
	OnTick func(simMS float64, m *obs.Metrics)

	// Tracer, when non-nil, makes the scheduler record one span per
	// pipeline stage per served frame (stream = stream ID, frame = index
	// within the stream, start = the frame's dispatch time on the virtual
	// clock) and adds per-stage histograms to the metrics registry:
	// stage/<name>/ms and — for frames that missed the SLO —
	// slo_miss/stage/<name>/ms, so an SLO investigation can see which
	// stage the missing milliseconds went to. Every span is the frame's
	// modelled cost split by stage, so a trace is deterministic. Nil leaves
	// the snapshot exactly as it was before tracing existed.
	Tracer *obs.Tracer

	// ModelOnly serves every frame entirely on the modelled virtual clock:
	// the scheduler never creates the compute pool and never ships a
	// detector/regressor pass to a worker, so each non-skipped frame
	// settles through the session's propagation path (nil result). Queue
	// dynamics, latency/SLO accounting, drops, retries and recovery are
	// exactly what a real run would produce — only the detection content
	// is absent. The cluster capacity sweeps (internal/cluster,
	// internal/experiments.Cluster) use this to simulate 10k+ streams in
	// seconds. Note the breaker never sees a detector success in this
	// mode, so an opened breaker stays open; model-only chaos runs measure
	// scheduling, not breaker recovery.
	ModelOnly bool

	// CompactMetrics is a no-op, kept for callers that still set it: the
	// registry holds no per-stream keys left to suppress.
	CompactMetrics bool

	// Chaos, when non-nil, runs the server under the given system fault
	// plan (faults.GenSystemPlan): worker kills, worker stalls, node
	// blackouts and queue-saturation windows are applied at their plan
	// instants on the virtual clock, and the supervision layer (retry with
	// backoff, per-stream circuit breakers, watchdog reassignment, stream
	// migration via session checkpoints) recovers from them. Chaos runs
	// require an explicit Workers count — the plan targets worker indices,
	// and determinism across machines forbids a GOMAXPROCS-derived
	// capacity. Nil is an empty plan: the same supervised scheduler with no
	// fault to recover from.
	Chaos *faults.SystemPlan

	// Supervisor tunes the circuit breakers, which only a fault plan can
	// open. The zero value means all defaults.
	Supervisor SupervisorConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = parallel.Workers()
	}
	c.Resilient.DeadlineMS = c.SLOMS
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if math.IsNaN(c.SLOMS) || math.IsInf(c.SLOMS, 0) || c.SLOMS < 0 {
		return &ConfigError{Field: "SLOMS", Reason: fmt.Sprintf("SLO %v ms is not a usable deadline", c.SLOMS)}
	}
	if c.QueueDepth <= 0 {
		return &ConfigError{Field: "QueueDepth", Reason: fmt.Sprintf("queue capacity %d cannot admit a frame; need >= 1", c.QueueDepth)}
	}
	if c.MaxStreams < 0 {
		return &ConfigError{Field: "MaxStreams", Reason: fmt.Sprintf("negative MaxStreams %d", c.MaxStreams)}
	}
	if math.IsNaN(c.TickMS) || math.IsInf(c.TickMS, 0) || c.TickMS < 0 {
		return &ConfigError{Field: "TickMS", Reason: fmt.Sprintf("tick %v ms is not a usable interval", c.TickMS)}
	}
	if err := c.Supervisor.Validate(); err != nil {
		return err
	}
	if c.Chaos != nil {
		if c.Workers <= 0 {
			return &ConfigError{Field: "Workers", Reason: "chaos runs need an explicit worker count (the fault plan targets worker indices)"}
		}
		for i, e := range c.Chaos.Events {
			if e.Worker >= c.Workers {
				return &ConfigError{Field: "Chaos", Reason: fmt.Sprintf("event %d targets worker %d but the server has %d", i, e.Worker, c.Workers)}
			}
		}
	}
	return nil
}

// Server owns the admitted sessions and the compute pool for one run.
type Server struct {
	cfg Config
	det *rfcn.Detector
	reg *regressor.Regressor

	poolWorkers int // the compute pool's size apart from cfg.Workers; 0: cfg.Workers (tests)
}

// New creates a server for a trained system. The detector and regressor
// are cloned per pool worker at Run time; the originals are not touched
// by the serving loop.
func New(det *rfcn.Detector, reg *regressor.Regressor, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg.withDefaults(), det: det, reg: reg}, nil
}

// StreamReport is one admitted stream's serving outcome.
type StreamReport struct {
	ID int

	// Offered is the number of frames the load schedule offered the
	// stream. Every offered frame is accounted for: it is served (possibly
	// via propagation after retries were exhausted) or dropped (evicted by
	// the queue policy). Offered == Served + Drops is the zero-lost-frames
	// invariant the chaos gate asserts.
	Offered int

	// Served and Drops count the stream's served and dropped frames: under
	// Run, len(Outputs) and len(Dropped).
	Served, Drops int

	// Outputs are the served frames in arrival order, with full resilient
	// Health accounting (identical semantics to the offline runners). Nil
	// under Tally.
	Outputs []adascale.FrameOutput

	// Dropped lists the frames evicted by the drop-oldest policy; they
	// were never served. Nil under Tally.
	Dropped []*synth.Frame

	// SLOMisses counts served frames whose end-to-end latency exceeded
	// the SLO.
	SLOMisses int

	// Checkpoint is the stream's resilient-session ladder state after its
	// last served frame. Restored into a later run's Stream.Checkpoint it
	// continues the stream exactly where this run left it — the
	// cross-window (and, in the cluster layer, cross-node) migration
	// contract.
	Checkpoint adascale.SessionCheckpoint
}

// Report is the outcome of one Run.
type Report struct {
	// Streams holds one report per admitted stream, in stream-ID order.
	Streams []StreamReport

	// Rejected lists the stream IDs refused admission (capacity).
	Rejected []int

	// Metrics is the final registry; its Snapshot() is deterministic.
	Metrics *obs.Metrics

	// DurationMS is the virtual time of the last completion.
	DurationMS float64

	// Summary folds every served frame's Health in stream-ID order.
	Summary adascale.HealthSummary
}

// Served returns all served outputs flattened in stream-ID order.
func (r *Report) Served() []adascale.FrameOutput {
	var out []adascale.FrameOutput
	for i := range r.Streams {
		out = append(out, r.Streams[i].Outputs...)
	}
	return out
}

// TotalDropped sums dropped frames across streams.
func (r *Report) TotalDropped() int {
	n := 0
	for i := range r.Streams {
		n += r.Streams[i].Drops
	}
	return n
}

// Lost returns the number of offered frames that were neither served nor
// dropped — always zero by the scheduler's accounting invariant; the chaos
// smoke gate asserts it stays that way under fault injection.
func (r *Report) Lost() int {
	n := 0
	for i := range r.Streams {
		n += r.Streams[i].Offered - r.Streams[i].Served - r.Streams[i].Drops
	}
	return n
}

// Run serves the given streams to completion and returns the report.
// Admission control runs first: with MaxStreams > 0, streams beyond the
// capacity (in slice order) are rejected outright — a rejected session
// fails fast instead of silently degrading every admitted one.
func (s *Server) Run(streams []Stream) *Report {
	rep := &Report{Streams: make([]StreamReport, 0, len(streams))}
	s.run(streams, rep, true, func(_ int, sr StreamReport) { rep.Streams = append(rep.Streams, sr) }, nil)
	return rep
}

// Tally is Run for a caller that reads only the counts: the same event
// loop, schedule, registry and checkpoints, but no per-frame lists and no
// list of reports. Each admitted stream's report, with Outputs and Dropped
// nil, goes to each(i, sr) in stream order before Tally returns; Summary
// stays empty. The cluster runs its nodes this way and folds the reports as
// they come: a fleet's worth of FrameOutputs and StreamReports would be built
// only to be counted. Tally fills rep in place: Streams is emptied (each may
// refill it), and the registry is Reset and recorded into (a nil one is
// created). So a caller that tallies run after run into one Report — the
// cluster keeps one per node — allocates nothing but the checkpoints'
// last-good detections once the working set has grown.
func (s *Server) Tally(streams []Stream, rep *Report, each func(i int, sr StreamReport)) {
	s.run(streams, rep, false, each, nil)
}

// scratch is a run's working set: the session slab and its pointers, the
// resilient-session ladders, the queue rings, the dispatch index, the
// agenda and the supervisor — everything a run needs while it lasts and
// nothing it returns. Runs take one from scratchPool and put it back, so it
// grows to the largest run it has served and a stream of runs (a cluster's
// node runs, epoch after epoch) stops allocating it.
type scratch struct {
	loop    eventLoop // its sessions, agenda, index and supervisor keep their slices
	slab    []session
	ladders []adascale.ResilientSession
	rings   []TimedFrame
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s with n elements, regrown (by append's rule, so a size
// that creeps up run after run reallocates rarely) only when s is too short;
// the elements hold what they held, and the caller sets them.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// run is Run (keep) or Tally (!keep) into rep on a pooled scratch, handing
// each stream's report to each, with the event loop's audit hook exposed;
// nil means AuditIndex's, if installed.
func (s *Server) run(streams []Stream, rep *Report, keep bool, each func(int, StreamReport), audit func(*eventLoop, bool)) {
	sc := scratchPool.Get().(*scratch)
	s.runOn(sc, streams, rep, keep, each, audit)
	scratchPool.Put(sc) // not deferred: a run that panicked leaves its scratch to the collector
}

// runOn is run on the given scratch. Every part of the working set is reset
// before use, so a recycled scratch serves a run exactly as a new one would
// (TestScratchReuseMatchesCold).
func (s *Server) runOn(sc *scratch, streams []Stream, rep *Report, keep bool, each func(int, StreamReport), audit func(*eventLoop, bool)) {
	if audit == nil && indexAudit.Load() {
		audit = mustCheckIndex
	}
	m := rep.Metrics
	if m == nil {
		m = obs.NewMetrics()
	} else {
		m.Reset()
	}
	*rep = Report{Streams: rep.Streams[:0], Rejected: rep.Rejected[:0], Metrics: m}

	admitted := streams
	if s.cfg.MaxStreams > 0 && len(streams) > s.cfg.MaxStreams {
		admitted = streams[:s.cfg.MaxStreams]
		for _, st := range streams[s.cfg.MaxStreams:] {
			rep.Rejected = append(rep.Rejected, st.ID)
		}
	}
	m.Inc("sessions/accepted", int64(len(admitted)))
	m.Inc("sessions/rejected", int64(len(rep.Rejected)))

	// The sessions, their resilient sessions and queue rings: a slab each,
	// every slot written afresh (a ring is empty once its run has drained).
	n, depth := len(admitted), 0
	for _, st := range admitted {
		depth += min(s.cfg.QueueDepth, len(st.Frames))
	}
	sc.slab, sc.ladders, sc.rings = resize(sc.slab, n), resize(sc.ladders, n), resize(sc.rings, depth)
	l := &sc.loop
	*l = eventLoop{
		Core: NewCore(m, s.cfg.Tracer), cfg: s.cfg, streams: admitted,
		sessions: resize(l.sessions, n),
		events:   l.events, index: l.index, sup: l.sup, // their slices; reset below and by run
		keep: keep, audit: audit,
	}
	defer sc.release() // deferred first, so it runs after the pool's Close
	l.index.reset(n)
	l.sup.reset(s.cfg.Chaos, s.cfg.Supervisor, s.cfg.SLOMS, s.cfg.Workers, n)
	fresh := *adascale.NewResilientSession(s.det.Cost(), s.reg.Kernels, s.cfg.Resilient)
	rings := sc.rings
	for i, st := range admitted {
		depth = min(s.cfg.QueueDepth, len(st.Frames))
		sc.ladders[i] = fresh
		// release left the slot zero: only its stream's fields are written.
		sess := &sc.slab[i]
		sess.ID, sess.Sess, sess.queue.buf = st.ID, &sc.ladders[i], rings[:depth:depth]
		rings = rings[depth:]
		l.sessions[i] = sess
		if keep {
			sess.outputs = make([]adascale.FrameOutput, 0, len(st.Frames))
		}
		if st.Checkpoint != nil {
			sess.Sess.Restore(*st.Checkpoint)
		}
	}

	if !s.cfg.ModelOnly {
		// Model-only runs never submit compute, so they skip the pool (and
		// its per-worker detector/regressor clones) entirely.
		l.StartPool(s.det, s.reg, cmp.Or(s.poolWorkers, s.cfg.Workers))
		defer l.Close()
	}
	l.run()

	rep.DurationMS = l.clockMS
	m.Set("time/final_ms", l.clockMS)
	for i, sess := range l.sessions {
		each(i, StreamReport{
			ID:         sess.ID,
			Offered:    len(admitted[i].Frames),
			Served:     sess.Served,
			Drops:      sess.Lane.Dropped,
			Outputs:    sess.outputs,
			Dropped:    sess.dropped,
			SLOMisses:  sess.SLOMisses,
			Checkpoint: sess.Sess.Checkpoint(),
		})
		rep.Summary.Add(sess.outputs)
	}
}

// release drops every pointer the scratch holds into the run it served, so
// a pooled scratch keeps nothing of its caller's alive: not the streams (nor,
// through their checkpoints, whatever holds those), the registry, the fault
// plan, the outputs and drops handed back or the last-good detections. The
// slices it keeps hold no pointer out of the scratch: a drained ring is
// empty, and the agenda and index hold only numbers.
func (sc *scratch) release() {
	l := &sc.loop
	clear(sc.slab[:len(l.sessions)])
	clear(sc.ladders[:len(l.sessions)])
	*l = eventLoop{sessions: l.sessions, events: l.events, index: l.index, sup: l.sup}
	l.sup.events = nil
}
