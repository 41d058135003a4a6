package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"adascale/internal/adascale"
	"adascale/internal/obs"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/serve"
	"adascale/internal/simclock"
	"adascale/internal/synth"
)

// The engine is the HTTP driver of the frame step (internal/serve, step.go):
// every frame is offered, costed, computed and settled by the same code the
// virtual-time scheduler runs. The engine owns what open-ended network
// arrival makes different — admission, and when a frame starts and
// completes.
//
// Time stays virtual underneath: a frame's arrival instant comes from the
// clock bridge, its service time is the step's modelled cost at the scale
// the session chose, and its completion chains on the stream's virtual busy
// horizon (streams are strictly sequential — frame k+1's scale depends on
// frame k's regressor output). So at most one frame of a stream is in the
// step at a time: a stream with queued frames has exactly one runner, which
// serves the queue dry, blocking on the pool for each frame, and then ends.
// The ingest that finds the stream without one starts it — on a new
// goroutine, or inline in the handler under Config.Sync — and an idle
// stream holds no goroutine. There is no supervisor here (no retries,
// breakers or shed), so latency, SLO accounting and every metric are pure
// functions of (admitted requests, arrival stamps), which is what makes the
// handler layer golden-testable under a scripted clock while the same
// engine serves wall-clock traffic.
//
// Results are encoded once, by the runner that settles the frame: the ring
// holds each FrameResult's encoding/json bytes, and a poll's reply is the
// accounting integers and those bytes, joined. The encoding runs outside
// e.mu — it costs several times the settle, and other streams' requests
// would queue behind it — so a reply's served and slo_misses are the
// ring's own counts: a frame is in flight until its result is readable.
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

// appendJSON appends r as encoding/json's Encoder writes it, newline
// included.
func (r IngestReply) appendJSON(buf []byte) []byte {
	buf = appendField(buf, `{"stream_id":`, r.StreamID)
	buf = appendField(buf, `,"accepted":`, r.Accepted)
	buf = appendField(buf, `,"dropped":`, r.Dropped)
	buf = appendField(buf, `,"queued":`, r.Queued)
	return append(buf, "}\n"...)
}

// appendField appends a member's key text and its integer value.
func appendField(buf []byte, key string, v int) []byte {
	return strconv.AppendInt(append(buf, key...), int64(v), 10)
}

// ResultsReply is the results endpoint's answer: served outputs from the
// requested offset plus the stream's running accounting (engine.results
// writes it field by field). Served counts the results written, so From +
// len(Results) is Served whenever From has not been retired.
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
	serve.Lane // session and ledger of the frame step
	tenant     string
	sloMS      float64
	depth      int

	queue       serve.FrameQueue
	busyUntilMS float64 // virtual completion horizon of the last frame
	running     bool    // a runner is serving queue (engine.serveLocked)

	results resultLog
	res     FrameResult // the runner's encoding scratch; Dets is never nil
}

// resultLog is a stream's encoded results as a bounded ring of fixed pages:
// result i of the stream keeps index i for ever, but only the newest
// resultPages pages are held, so a stream's memory does not grow with the
// frames it has served. Pages, not one slice: a slice re-grown by append
// keeps the old and the new array alive together, and retiring a page is
// dropping one pointer.
type resultLog struct {
	pages  [][][]byte // every page but the last holds resultPage entries
	base   int        // index of pages[0][0]; results [0, base) are retired
	n      int        // results ever appended
	misses int        // of which SLO misses
}

// A stream keeps its last 768–1024 results: a reader further behind than
// that is answered from the oldest one retained (see engine.results).
const (
	resultPage  = 256
	resultPages = 4
)

func (l *resultLog) append(r []byte, sloMiss bool) {
	if l.n%resultPage == 0 {
		if len(l.pages) == resultPages {
			l.pages = append(l.pages[:0], l.pages[1:]...)
			l.base += resultPage
		}
		l.pages = append(l.pages, make([][]byte, 0, resultPage))
	}
	last := &l.pages[len(l.pages)-1]
	*last = append(*last, r)
	l.n++
	if sloMiss {
		l.misses++
	}
}

// at returns result i; i must be in [base, n).
func (l *resultLog) at(i int) []byte {
	i -= l.base
	return l.pages[i/resultPage][i%resultPage]
}

// tailLen bounds the length of appendTail's array.
func (l *resultLog) tailLen(from int) int {
	size := len("[]")
	for i := from; i < l.n; i++ {
		size += len(l.at(i)) + len(",")
	}
	return size
}

// appendTail appends results [from, n) as a JSON array (`[]` when from is
// n); from must be in [base, n].
func (l *resultLog) appendTail(buf []byte, from int) []byte {
	buf = append(buf, '[')
	for i := from; i < l.n; i++ {
		if i > from {
			buf = append(buf, ',')
		}
		buf = append(buf, l.at(i)...)
	}
	return append(buf, ']')
}

// engine owns the admitted streams and, through the frame step's core, the
// compute pool and the registry.
type engine struct {
	serve.Core
	cfg        Config
	clock      Clock
	numClasses int
	cost       *simclock.Model // the detector's, for per-stream sessions
	kernels    []int           // regressor branch kernels, for per-stream sessions

	mu       sync.Mutex
	streams  []*stream
	byTenant map[string]int
	draining bool

	runners sync.WaitGroup // one per stream with a runner
}

// newEngine builds the engine for a validated, defaulted config.
func newEngine(det *rfcn.Detector, reg *regressor.Regressor, cfg Config) *engine {
	e := &engine{
		Core:       serve.NewCore(obs.NewMetrics(), nil),
		cfg:        cfg,
		clock:      cfg.Clock,
		numClasses: len(det.Data.Classes),
		cost:       det.Cost(),
		kernels:    reg.Kernels,
		byTenant:   map[string]int{},
	}
	e.StartPool(det, reg, cfg.Workers)
	return e
}

// admit creates a stream for tenant under the quota rules, returning its
// ID and the effective SLO and queue depth (zero inputs take the server
// defaults).
func (e *engine) admit(tenant string, sloMS float64, depth int) (id int, effSLO float64, effDepth int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		e.Metrics.Inc("admission/rejected_draining", 1)
		return 0, 0, 0, ErrDraining
	}
	if e.cfg.MaxStreams > 0 && len(e.streams) >= e.cfg.MaxStreams {
		e.Metrics.Inc("admission/rejected_capacity", 1)
		return 0, 0, 0, &QuotaError{Tenant: tenant, Reason: fmt.Sprintf("server at capacity (%d streams)", e.cfg.MaxStreams)}
	}
	if e.cfg.TenantStreams > 0 && e.byTenant[tenant] >= e.cfg.TenantStreams {
		e.Metrics.Inc("admission/rejected_quota", 1)
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
		Lane:   serve.Lane{ID: len(e.streams), Sess: adascale.NewResilientSession(e.cost, e.kernels, rcfg)},
		tenant: tenant,
		sloMS:  sloMS,
		depth:  depth,
		res:    FrameResult{Dets: []DetectionJSON{}},
	}
	e.streams = append(e.streams, s)
	e.byTenant[tenant]++
	e.Metrics.Inc("sessions/accepted", 1)
	e.Metrics.Set("streams/live", float64(len(e.streams)))
	return s.ID, sloMS, depth, nil
}

// prometheus renders the registry for a scrape under e.mu: the frame step
// records through handles without the registry's lock, serialised by e.mu
// (serve.Core), so a scrape of a serving engine is ordered against it by
// e.mu too.
func (e *engine) prometheus(namespace string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Metrics.Prometheus(namespace)
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
// queue, stamping each with the bridge clock's current instant. The whole
// batch is offered before any of it is served. If the stream has no runner,
// this call starts one: in sync mode it serves the queue dry before
// returning, otherwise on its own goroutine.
func (e *engine) ingest(id int, frames []FrameSpec) (IngestReply, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.streams) {
		return IngestReply{}, ErrNoSuchStream
	}
	if e.draining {
		return IngestReply{}, ErrDraining
	}
	s := e.streams[id]
	now := e.clock.NowMS()
	reply := IngestReply{StreamID: id, Accepted: len(frames)}
	for i := range frames {
		// The stream's running frame index keys the seed derivation.
		fr := frames[i].frame(e.cfg.Seed, id, s.Offered)
		if e.Offer(&s.Lane, &s.queue, serve.TimedFrame{Frame: fr, ArrivalMS: now}, s.depth) != nil {
			reply.Dropped++
		}
	}
	e.ObserveQueue(&s.queue)
	if !s.running {
		s.running = true
		e.runners.Add(1)
		if e.cfg.Sync {
			e.serveLocked(s)
		} else {
			go func() {
				e.mu.Lock()
				e.serveLocked(s)
				e.mu.Unlock()
			}()
		}
	}
	reply.Queued = s.queue.Len()
	return reply, nil
}

// results returns stream id's served outputs from offset `from` on, plus
// its running accounting, as the ResultsReply JSON encoding/json's Encoder
// writes. The reply's from is where the results actually start: it is
// greater than the one asked for exactly when a slow reader's offset has
// been retired from the ring, and the difference is the gap.
func (e *engine) results(id, from int) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.streams) {
		return nil, ErrNoSuchStream
	}
	s := e.streams[id]
	l := &s.results
	from = min(max(from, l.base), l.n)
	buf := make([]byte, 0, 256+l.tailLen(from)) // 90 bytes of keys and 7 integers fit in 256
	buf = appendField(buf, `{"stream_id":`, id)
	buf = appendField(buf, `,"from":`, from)
	buf = appendField(buf, `,"offered":`, s.Offered)
	buf = appendField(buf, `,"served":`, l.n)
	buf = appendField(buf, `,"dropped":`, s.Dropped)
	buf = appendField(buf, `,"queued":`, s.queue.Len())
	buf = appendField(buf, `,"slo_misses":`, l.misses)
	buf = l.appendTail(append(buf, `,"results":`...), from)
	return append(buf, "}\n"...), nil
}

// serveLocked is stream s's runner: it serves the queue one frame at a
// time until it is empty, then ends. Frames ingested meanwhile join the
// queue it is serving. Called with e.mu held; returns with it held.
func (e *engine) serveLocked(s *stream) {
	for s.queue.Len() > 0 {
		e.processLocked(s)
	}
	s.running = false
	e.runners.Done()
}

// processLocked serves the head frame of s: plans and costs it, places it
// on the stream's virtual busy horizon, blocks on its compute, settles it
// with its end-to-end virtual latency as the SLO charge, and encodes its
// result into the ring (lock released around the compute and the encoding).
// Called with e.mu held; returns with it held.
func (e *engine) processLocked(s *stream) {
	tf := s.queue.Pop()
	plan := s.Sess.Plan(tf.Frame)
	startMS := math.Max(tf.ArrivalMS, s.busyUntilMS)
	serviceMS := s.Sess.CostMS(tf.Frame, plan)
	doneMS := startMS + serviceMS
	s.busyUntilMS = doneMS
	e.ObserveWait(startMS - tf.ArrivalMS)
	e.mu.Unlock()

	var res serve.Result
	if !plan.Skip {
		res = <-e.Submit(&s.Lane, tf.Frame, plan.Scale)
	}

	e.mu.Lock()
	latency := doneMS - tf.ArrivalMS
	out, sloMiss := e.Settle(&s.Lane, tf.Frame, plan, res, startMS, serviceMS, latency, s.sloMS)
	e.mu.Unlock()
	r := s.encodeResult(out, latency, sloMiss)
	e.mu.Lock()
	s.results.append(r, sloMiss)
}

// encodeResult renders one settled frame for the results endpoint: its
// FrameResult's encoding/json bytes. The FrameResult is s.res, which only
// the stream's runner touches, rebuilt in place, so the bytes are all a
// frame's result allocates.
func (s *stream) encodeResult(out adascale.FrameOutput, latencyMS float64, sloMiss bool) []byte {
	fr := &s.res
	*fr = FrameResult{
		Index:     out.Frame.Index,
		Scale:     out.Scale,
		LatencyMS: latencyMS,
		SLOMiss:   sloMiss,
		Dets:      fr.Dets[:0],
	}
	if out.Health.Fault != synth.FaultNone {
		fr.Fault = out.Health.Fault.String()
	}
	if out.Health.Fallback != adascale.FallbackNone {
		fr.Fallback = out.Health.Fallback.String()
	}
	for _, d := range out.Detections {
		fr.Dets = append(fr.Dets, DetectionJSON{
			Class: d.Class, Score: d.Score,
			X1: d.Box.X1, Y1: d.Box.Y1, X2: d.Box.X2, Y2: d.Box.Y2,
		})
	}
	b, err := json.Marshal(fr)
	if err != nil { // a non-finite number, which validated frames never settle
		return []byte("null")
	}
	return b
}

// stopAdmission closes the front door: admission and ingestion start
// returning ErrDraining; runners keep serving what is already queued.
func (e *engine) stopAdmission() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
}

// drain stops admission, waits for every runner to serve its queue dry,
// then closes the compute pool. Every queued frame has a runner, and none
// can start once admission is stopped, so after drain returns offered ==
// served + dropped on every stream — no admitted frame is lost to shutdown
// — and the engine accepts no further work.
func (e *engine) drain() {
	e.stopAdmission()
	e.runners.Wait()
	e.Close()
}

// stats sums the accounting invariant's three terms across streams.
func (e *engine) stats() (offered, served, dropped int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.streams {
		offered += s.Offered
		served += s.Served
		dropped += s.Dropped
	}
	return offered, served, dropped
}
