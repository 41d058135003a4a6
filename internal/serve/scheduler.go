package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"adascale/internal/faults"
)

// The central scheduler: the discrete-event driver of the frame step
// (step.go). Its time source is a single-goroutine event loop over virtual
// time; its executor policy is the supervised worker set — capacity,
// retries, breakers, shed — in every run: a server without a chaos plan
// runs an empty one. Six event kinds exist — frame completions,
// system fault events, retry expirations, frame arrivals, watchdog checks,
// metric ticks — processed in (time, kind, stream, seq) order, so the whole
// schedule is a deterministic function of the arrival schedule, the fault
// plan and the per-session scale state. Completions sort before
// same-instant arrivals so a worker freed at t can serve a frame arriving
// at t; faults sort between them so a kill at t hits the post-completion
// state; ticks sort last so a snapshot at t observes all of t's work.
//
// Real compute runs ahead on the parallel.Pool: a stream's next frame goes
// to the pool when the frame before it settles (computeAhead), and the loop
// blocks on a result only at its frame's virtual completion. The pool holds
// up to a job per stream, more than the virtual workers, yet cannot deadlock:
// each lane delivers into its own buffered channel and submits again only
// once it has received or abandoned (Lane.Abandon) its result — as a dispatch
// does whose frame or scale is not the one computed ahead, or which a fault
// invalidates.
const (
	kindCompletion = iota
	kindFault
	kindRetry
	kindArrival
	kindWatchdog
	kindTick
)

// event is one scheduled occurrence on the virtual clock.
type event struct {
	timeMS float64
	kind   int
	stream int // index into sessions/streams (not the stream ID)
	seq    int // arrival index, dispatch ID or plan index; stabilises ordering
}

// before is the event order: (timeMS, kind, stream, seq).
func (a event) before(b event) bool {
	if a.timeMS != b.timeMS {
		return a.timeMS < b.timeMS
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.stream != b.stream {
		return a.stream < b.stream
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events in before order. It is written
// out over []event rather than through container/heap, whose interface
// boxes every pushed and popped event — one allocation per arrival and per
// completion on the hot path.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = e
	}
	return top
}

// agenda is a run's event schedule: the arrivals, known up front, sorted once;
// a heap of the events the run schedules as it goes. pop merges the two into
// the order a heap of every event pops (an arrival never ties another event).
type agenda struct {
	arrivals []event // sorted; arrivals[next:] are still to come
	next     int
	heap     eventHeap
}

// reset's most buckets, and its largest bucket sorted by insertion.
const agendaBuckets, agendaInsertion = 4096, 32

// reset empties the agenda, keeping its slices for the new run, and orders
// the arrivals (frame j of streams[i]: ArrivalMS, i, j) by (time, stream,
// seq) with a bucket sort. In (stream, seq) order, each goes to one of nb =
// min(N, agendaBuckets) equal-width buckets over the times' range; a bucket
// is then ordered by a stable insertion sort on the time, or by the
// comparison sort if it holds over agendaInsertion. The bucket index never
// decreases as the time grows, so buckets are in time order and equal times
// (±0 among them) keep (stream, seq) order: the result is exactly the
// comparison sort's. With a NaN or infinite arrival, or a range too narrow
// to scale, every arrival is in one bucket and takes the comparison sort.
func (a *agenda) reset(streams []Stream) {
	n, lo, hi := 0, math.Inf(1), math.Inf(-1)
	for i := range streams {
		n += len(streams[i].Frames)
		for _, f := range streams[i].Frames {
			lo, hi = min(lo, f.ArrivalMS), max(hi, f.ArrivalMS) // a NaN sticks
		}
	}
	nb, scale := min(n, agendaBuckets), 0.0 // one instant: every arrival in bucket 0
	if hi > lo {
		scale = float64(nb) / (hi - lo)
	}
	if !(hi-lo < math.Inf(1)) || scale == math.Inf(1) {
		nb = 1 // bucket's clamp maps int(NaN or ±Inf) into this one bucket
	}
	bucket := func(t float64) int { return max(min(int((t-lo)*scale), nb-1), 0) }
	var end [agendaBuckets]int // bucket b's count, then its start, then its end
	for i := range streams {
		for _, f := range streams[i].Frames {
			end[bucket(f.ArrivalMS)]++
		}
	}
	start := 0
	for b, c := range end[:nb] {
		end[b], start = start, start+c
	}
	*a = agenda{arrivals: resize(a.arrivals, n), heap: a.heap[:0]}
	for i := range streams {
		for j, f := range streams[i].Frames {
			b := bucket(f.ArrivalMS)
			a.arrivals[end[b]] = event{timeMS: f.ArrivalMS, kind: kindArrival, stream: i, seq: j}
			end[b]++
		}
	}
	start = 0
	for _, stop := range end[:nb] {
		q := a.arrivals[start:stop]
		start = stop
		if len(q) > agendaInsertion || nb == 1 { // nb == 1: the case above, or N ≤ 1
			slices.SortFunc(q, func(x, y event) int {
				if x.timeMS != y.timeMS {
					return cmp.Compare(x.timeMS, y.timeMS)
				}
				return cmp.Or(x.stream-y.stream, x.seq-y.seq)
			})
			continue
		}
		for k := 1; k < len(q); k++ {
			e, m := q[k], k
			for ; m > 0 && e.timeMS < q[m-1].timeMS; m-- {
				q[m] = q[m-1]
			}
			q[m] = e
		}
	}
}

func (a *agenda) len() int { return len(a.arrivals) - a.next + len(a.heap) }

func (a *agenda) push(e event) { a.heap.push(e) }

// pop removes and returns the earliest event; the agenda must not be empty.
func (a *agenda) pop() event {
	if a.next < len(a.arrivals) && (len(a.heap) == 0 || a.arrivals[a.next].before(a.heap[0])) {
		a.next++
		return a.arrivals[a.next-1]
	}
	return a.heap.pop()
}

// dropStale pops the heap's stale top events; one never becomes live again.
func (a *agenda) dropStale(stale func(event) bool) {
	for len(a.heap) > 0 && stale(a.heap[0]) {
		a.heap.pop()
	}
}

// noWorker is the worker index of a dispatch that holds none: a shed frame,
// or a frame between dispatches.
const noWorker = -1

// eventLoop is the scheduler state for one Run.
type eventLoop struct {
	Core     // the frame step: registry, tracer, compute pool
	cfg      Config
	streams  []Stream
	sessions []*session
	sup      supervisor

	events      agenda
	index       dispatchIndex // maintained by touch only (ready.go)
	clockMS     float64       // the last non-tick event's instant
	dispatchSeq int
	keep        bool // Run: sessions list their outputs and drops; Tally: counts only

	aheadHits, aheadWaste int // frames computed ahead, claimed and abandoned (tests read them)

	// audit, when non-nil, is called after every event (picking false) and
	// at the top of every dispatch iteration (picking true). Tests only.
	audit func(l *eventLoop, picking bool)
}

// run drives the simulation to completion.
func (l *eventLoop) run() {
	l.events.reset(l.streams)
	for i, e := range l.sup.events {
		l.events.push(event{timeMS: e.AtMS, kind: kindFault, stream: -1, seq: i})
	}
	if l.cfg.TickMS > 0 && l.cfg.OnTick != nil {
		l.events.push(event{timeMS: l.cfg.TickMS, kind: kindTick})
	}
	for i := range l.sessions {
		l.computeAhead(i)
	}
	for l.events.len() > 0 {
		ev := l.events.pop()
		if l.stale(ev) {
			// Skipped before the clock advances: an abandoned timer (a
			// watchdog for a completed dispatch, a completion superseded by
			// a fault or stall) must not stretch the run's duration.
			continue
		}
		if ev.kind == kindTick {
			// A tick observes the run without moving its clock, and
			// re-arms only while a live event remains: ticks never stretch
			// the run's duration or outlive its work.
			l.cfg.OnTick(ev.timeMS, l.Metrics)
			l.events.dropStale(l.stale)
			if l.events.len() > 0 {
				l.events.push(event{timeMS: ev.timeMS + l.cfg.TickMS, kind: kindTick})
			}
			continue
		}
		l.clockMS = ev.timeMS
		switch ev.kind {
		case kindArrival:
			l.arrive(ev)
		case kindCompletion:
			l.complete(ev)
		case kindFault:
			l.fault(ev)
		case kindRetry:
			l.retryExpired(ev)
		case kindWatchdog:
			l.watchdog(ev)
		}
		if l.audit != nil {
			l.audit(l, false)
		}
	}
}

// arrive enqueues a frame under the bounded drop-oldest policy, at depth one
// inside a queue-saturation window (supervisor.queueDepth).
func (l *eventLoop) arrive(ev event) {
	s := l.sessions[ev.stream]
	depth := l.sup.queueDepth(l.clockMS, l.cfg.QueueDepth)
	if dropped := l.Offer(&s.Lane, &s.queue, l.streams[ev.stream].Frames[ev.seq], depth); dropped != nil && l.keep {
		s.dropped = append(s.dropped, dropped)
	}
	// A drop-oldest eviction changes a waiting session's head, hence its key.
	l.touch(ev.stream)
	l.ObserveQueue(&s.queue)
	l.dispatch()
}

// What pick found: nothing dispatchable, or the path the frame takes.
const (
	pickNone = iota
	pickShed
	pickRetry
	pickReady
)

// dispatch starts frames while serving capacity and ready streams remain.
func (l *eventLoop) dispatch() {
	for {
		if l.audit != nil {
			l.audit(l, true)
		}
		switch path, i, w := l.pick(); path {
		case pickShed:
			l.dispatchShed(i)
		case pickRetry:
			l.redispatch(i, w)
		case pickReady:
			l.start(i, w)
		default:
			return
		}
	}
}

// pick chooses the next dispatch — the one rule: shed, then retry, then
// FIFO. Open-breaker streams go first and bypass the worker set entirely:
// shed serving is propagation-only on the stream's session state (the DFF
// warp), not the worker pool, so those streams keep draining while the pool
// is dead or saturated — the availability contract of the shed rung. Then,
// given a free worker w, retry-ready frames (failed dispatches whose backoff
// has expired); among them, and then among fresh head frames, the
// earliest-arrived frame wins (lowest session index on ties) — FIFO across
// streams, so no stream starves. Each step is a peek at the dispatch index,
// O(log sessions) once the picked session is touched.
func (l *eventLoop) pick() (path, i, w int) {
	if i = l.shedCandidate(); i >= 0 {
		return pickShed, i, noWorker
	}
	if w = l.sup.freeWorker(l.clockMS); w < 0 {
		return pickNone, -1, w
	}
	if i = l.index.retry.min(); i >= 0 {
		return pickRetry, i, w
	}
	if i = l.index.ready.min(); i >= 0 {
		return pickReady, i, w
	}
	return pickNone, -1, w
}

// shedCandidate returns the lowest session index whose breaker is open
// and which has a dispatchable frame — a retry-ready failure or a queued
// head. shouldShed transitions an expired breaker to half-open as a side
// effect, at which point the stream leaves the shed set and probes the real
// detector path through the pool instead.
func (l *eventLoop) shedCandidate() int {
	for {
		i := l.index.shed.min()
		if i < 0 || l.sup.breakers[i].shouldShed(l.clockMS) {
			return i
		}
		l.touch(i)
	}
}

// dispatchShed serves session index i's next frame in shed mode: last-good
// detections at flow-warp cost (or the sensor-skip rung's bookkeeping cost
// when the plan already skips), never touching a worker slot. A retried
// frame keeps the plan it was first dispatched with.
func (l *eventLoop) dispatchShed(i int) {
	s := l.sessions[i]
	inf := s.inflight
	if inf != nil && inf.retryReady {
		l.Metrics.Inc("retry/dispatched", 1)
	} else {
		inf = l.open(s)
	}
	inf.shed = true
	inf.res = l.claimAhead(s, inf, false)
	if !inf.plan.Skip {
		l.Metrics.Inc("breaker/shed", 1)
	}
	l.place(i, inf, noWorker, s.Sess.ShedCostMS(inf.plan))
}

// open takes the head frame off s's queue and makes it the stream's
// in-flight frame: planned (the scale decision) and costed once, at first
// dispatch — a retry keeps both.
func (l *eventLoop) open(s *session) *inflightFrame {
	tf := s.queue.Pop()
	inf := &s.rec
	// Field by field, not as one record: the dispatch and place write the rest.
	inf.frame, inf.arrivalMS, inf.startMS = tf.Frame, tf.ArrivalMS, l.clockMS
	inf.plan = s.Sess.Plan(tf.Frame)
	inf.serviceMS = s.Sess.CostMS(tf.Frame, inf.plan)
	inf.attempts, inf.firstFailMS = 0, -1
	s.inflight = inf
	l.ObserveWait(l.clockMS - tf.ArrivalMS)
	return inf
}

// start dispatches the head frame of session index i on worker w.
func (l *eventLoop) start(i, w int) {
	l.dispatchInflight(i, w, l.open(l.sessions[i]))
}

// redispatch re-dispatches session index i's retry-ready frame on worker w,
// with the plan (and therefore the modelled cost) it was first dispatched
// with — re-planning would double-step the session's deadline hysteresis.
func (l *eventLoop) redispatch(i, w int) {
	l.Metrics.Inc("retry/dispatched", 1)
	l.dispatchInflight(i, w, l.sessions[i].inflight)
}

// dispatchInflight places the frame on the virtual clock in its current
// mode: skip (sensor fault) or the full detector path on the pool. Shed
// dispatches never reach here — dispatch routes open-breaker streams
// through dispatchShed before a worker is claimed.
func (l *eventLoop) dispatchInflight(i, w int, inf *inflightFrame) {
	s := l.sessions[i]
	inf.shed = false
	inf.res = l.claimAhead(s, inf, !inf.plan.Skip)
	// Rung 1: a sensor-observable fault never reaches a worker. Model-only
	// runs leave inf.res nil too, so settle takes the propagation path: pure
	// bookkeeping on the virtual clock, no detector compute.
	if inf.res == nil && !inf.plan.Skip && !l.cfg.ModelOnly {
		inf.res = l.Submit(&s.Lane, inf.frame, inf.plan.Scale)
	}
	l.place(i, inf, w, inf.serviceMS)
}

// computeAhead submits session index i's next frame to the pool at the scale
// its plan would take now (Peek): the queue holds the latest arrivals, so its
// head, or with none waiting the next arrival, is frame Offered − Len. Once
// the frames before it have settled, a frame's compute is fixed, and it runs
// while the loop works through the virtual time before its dispatch.
func (l *eventLoop) computeAhead(i int) {
	if l.cfg.ModelOnly {
		return
	}
	s, frames := l.sessions[i], l.streams[i].Frames
	if k := s.Offered - s.queue.Len(); k < len(frames) {
		f := frames[k].Frame
		if p, _ := s.Sess.Peek(f); !p.Skip {
			s.ahead.frame, s.ahead.scale = f, p.Scale
			s.ahead.res = l.submit(&s.Lane, f, p.Scale, true)
		}
	}
}

// claimAhead returns the channel of the job computed ahead for session s if
// it is inf's frame at inf's scale and the dispatch computes (use); any other
// is abandoned. A claimed job that panicked before its dispatch counts here.
func (l *eventLoop) claimAhead(s *session, inf *inflightFrame, use bool) (res <-chan Result) {
	if res, s.ahead.res = s.ahead.res, nil; res == nil {
		return nil
	}
	if use && s.ahead.frame == inf.frame && s.ahead.scale == inf.plan.Scale {
		l.aheadHits++
		if !s.job.ahead.CompareAndSwap(true, false) {
			l.Metrics.Inc("pool/panic_rebuild", 1)
		}
		return res
	}
	l.aheadWaste++
	s.Abandon()
	return nil
}

// place assigns the dispatch a fresh ID, occupies worker w (shed
// dispatches take none), schedules the completion and records the watchdog
// instant, which a healthy completion always precedes (stallWorker).
func (l *eventLoop) place(i int, inf *inflightFrame, w int, serviceMS float64) {
	l.dispatchSeq++
	inf.dispID = l.dispatchSeq
	inf.worker = w
	inf.retryReady = false
	l.touch(i)
	inf.completionMS = l.clockMS + serviceMS
	if w >= 0 {
		l.sup.workers[w].dispID = inf.dispID
		l.sup.workers[w].stream = i
	}
	l.events.push(event{timeMS: inf.completionMS, kind: kindCompletion, stream: i, seq: inf.dispID})
	// A frame whose modelled service outlasts the watchdog is not stalled.
	inf.watchdogMS = l.clockMS + max(l.sup.watchdogMS, 2*serviceMS)
}

// freeDispatch releases the frame's worker and invalidates its dispatch
// ID, so any already-scheduled completion or watchdog event for it is
// recognised as stale.
func (l *eventLoop) freeDispatch(inf *inflightFrame) {
	if inf.worker >= 0 {
		l.sup.workers[inf.worker].dispID = 0
	}
	inf.dispID = 0
	inf.worker = noWorker
}

// checkWorkers verifies that the workers holding a dispatch and the frames
// in service (in flight, not shed) map one to one: each such frame's worker
// holds its dispatch, and no other worker holds one. So at most Workers
// frames are in virtual service; the pool also computes frames ahead.
func (l *eventLoop) checkWorkers() error {
	held := 0
	for i := range l.sup.workers {
		if l.sup.workers[i].dispID != 0 {
			held++
		}
	}
	for i, s := range l.sessions {
		if inf := s.inflight; inf != nil && inf.dispID != 0 && !inf.shed {
			if w := inf.worker; w < 0 || l.sup.workers[w].dispID != inf.dispID || l.sup.workers[w].stream != i {
				return fmt.Errorf("serve: session %d's dispatch %d is not held by its worker %d (t=%v)", i, inf.dispID, w, l.clockMS)
			}
			held--
		}
	}
	if held != 0 {
		return fmt.Errorf("serve: %d workers hold a dispatch no frame on the pool has (t=%v)", held, l.clockMS)
	}
	return nil
}

// stale recognises events whose dispatch no longer exists: a completion
// or watchdog whose dispatch ID was invalidated by a fault, or a
// completion superseded by a stall's rescheduled one (the completionMS
// check). A stale event never becomes live again. run skips them without
// advancing the clock; the handlers below therefore only ever see live
// events.
func (l *eventLoop) stale(ev event) bool {
	switch ev.kind {
	case kindCompletion:
		inf := l.sessions[ev.stream].inflight
		return inf == nil || inf.dispID != ev.seq || ev.timeMS != inf.completionMS
	case kindWatchdog:
		inf := l.sessions[ev.stream].inflight
		return inf == nil || inf.dispID != ev.seq
	}
	return false
}

// complete finishes the in-flight frame of session index ev.stream.
func (l *eventLoop) complete(ev event) {
	s := l.sessions[ev.stream]
	inf := s.inflight
	l.freeDispatch(inf)
	var res Result
	if inf.res != nil {
		res = <-inf.res
	}
	l.settle(ev.stream, inf, res)
	l.dispatch()
}

// settle closes session index i's in-flight frame through the frame step —
// completed, breaker-shed, or abandoned after exhausting its retries (the
// latter two with a zero res) — with the event loop's clock as the
// completion instant, then does the supervisor's share: a frame the detector
// actually served closes a half-open breaker.
func (l *eventLoop) settle(i int, inf *inflightFrame, res Result) {
	s := l.sessions[i]
	s.inflight = nil
	out, _ := l.Settle(&s.Lane, inf.frame, inf.plan, res,
		inf.startMS, l.clockMS-inf.startMS, l.clockMS-inf.arrivalMS, l.cfg.SLOMS)
	if l.keep {
		s.outputs = append(s.outputs, out)
	}
	if res.R != nil && l.sup.breakers[i].onSuccess() {
		l.Metrics.Inc("breaker/close", 1)
	}
	if inf.firstFailMS >= 0 {
		// Recovery time: first dispatch failure → the frame's output.
		l.Metrics.Observe("recovery/ms", l.clockMS-inf.firstFailMS)
	}
	l.touch(i)
	l.computeAhead(i)
}

// fault applies one system fault event (seq indexes the plan), or — for
// seq < 0 — handles a capacity-recovery wakeup.
func (l *eventLoop) fault(ev event) {
	if ev.seq < 0 {
		l.dispatch()
		return
	}
	e := l.sup.events[ev.seq]
	l.Metrics.Inc(chaosKeys[e.Kind], 1)
	switch e.Kind {
	case faults.SysWorkerKill:
		l.Metrics.Inc("workers/rebuilt", 1)
		l.killWorker(e.Worker, l.clockMS+rebuildMS, failKill)
	case faults.SysWorkerStall:
		l.stallWorker(e.Worker, e.DurationMS)
	case faults.SysNodeBlackout:
		until := l.clockMS + e.DurationMS
		for wi := range l.sup.workers {
			l.killWorker(wi, until, failBlackout)
		}
		// The node is gone: every stream migrates. Restoring a stream's own
		// checkpoint is an identity (a checkpoint is a copy of the session's
		// ladder state), so only the migrations are counted.
		if n := len(l.sessions); n > 0 {
			l.Metrics.Inc("migrations", int64(n))
		}
	case faults.SysQueueSaturate:
		if u := l.clockMS + e.DurationMS; u > l.sup.satUntil {
			l.sup.satUntil = u
		}
	}
	l.dispatch()
}

// killWorker takes a worker down until deadUntil; its in-flight dispatch
// (if any) is lost and routed to retry.
func (l *eventLoop) killWorker(wi int, deadUntil float64, failKey string) {
	w := &l.sup.workers[wi]
	if deadUntil > w.deadUntilMS {
		w.deadUntilMS = deadUntil
	}
	if w.dispID != 0 {
		l.failDispatch(w.stream, failKey)
	}
	l.wakeAt(w.deadUntilMS)
}

// stallWorker freezes a worker for durMS; an in-flight dispatch resumes
// where it left off when the stall ends, so its completion moves out by
// the stall. Only a stall can move a completion past the dispatch's
// watchdog instant; the one that does pushes the watchdog event, which
// then reassigns the frame — unless it is sensor-skipped, with no detector
// pass to reassign (shed frames hold no worker to stall).
func (l *eventLoop) stallWorker(wi int, durMS float64) {
	w := &l.sup.workers[wi]
	until := l.clockMS + durMS
	if until > w.stallUntilMS {
		w.stallUntilMS = until
	}
	if w.dispID != 0 {
		inf := l.sessions[w.stream].inflight
		was := inf.completionMS
		inf.completionMS += durMS
		l.Metrics.Inc("stall/delayed", 1)
		l.events.push(event{timeMS: inf.completionMS, kind: kindCompletion, stream: w.stream, seq: inf.dispID})
		if !inf.plan.Skip && was <= inf.watchdogMS && inf.watchdogMS < inf.completionMS {
			l.events.push(event{timeMS: inf.watchdogMS, kind: kindWatchdog, stream: w.stream, seq: inf.dispID})
		}
	}
	l.wakeAt(w.stallUntilMS)
}

// failDispatch invalidates session index i's current dispatch: the frame
// goes to retry with exponential backoff and deterministic jitter, or —
// once maxRetries is exhausted — is abandoned into the degradation ladder
// (propagated output; never silently lost). The breaker records the
// failure, and failKey — one of keys.go's fail/<reason> counters — counts it.
func (l *eventLoop) failDispatch(i int, failKey string) {
	s := l.sessions[i]
	inf := s.inflight
	l.freeDispatch(inf)
	inf.shed = false
	inf.res = nil
	s.Abandon() // a worker still computing it sends where no frame reads
	if inf.firstFailMS < 0 {
		inf.firstFailMS = l.clockMS
	}
	inf.attempts++
	l.Metrics.Inc("retry/failures", 1)
	l.Metrics.Inc(failKey, 1)
	if l.sup.breakers[i].onFailure(l.clockMS) {
		l.Metrics.Inc("breaker/open", 1)
	}
	if inf.attempts > maxRetries {
		l.Metrics.Inc("frames/abandoned", 1)
		l.settle(i, inf, Result{})
		return
	}
	l.touch(i)
	backoff := l.sup.backoffMS(s.ID, inf.attempts)
	l.Metrics.Observe("retry/backoff_ms", backoff)
	l.events.push(event{timeMS: l.clockMS + backoff, kind: kindRetry, stream: i, seq: inf.attempts})
}

// retryExpired marks a failed frame dispatchable again.
func (l *eventLoop) retryExpired(ev event) {
	s := l.sessions[ev.stream]
	if inf := s.inflight; inf != nil && inf.dispID == 0 {
		inf.retryReady = true
		l.touch(ev.stream)
	}
	l.dispatch()
}

// watchdog fires at a stalled dispatch's watchdog instant; the dispatch is
// still in flight (else the event is stale), so it is reassigned.
func (l *eventLoop) watchdog(ev event) {
	l.Metrics.Inc("watchdog/reassigned", 1)
	// The worker is released but stays frozen until its stall ends, not
	// until the reassigned frame completes.
	l.failDispatch(ev.stream, failWatchdog)
	l.dispatch()
}

// wakeAt schedules a capacity-recovery wakeup: workers revived at t must
// be able to pick up queued or retry-ready work immediately.
func (l *eventLoop) wakeAt(t float64) {
	l.events.push(event{timeMS: t, kind: kindFault, stream: -1, seq: -1})
}
