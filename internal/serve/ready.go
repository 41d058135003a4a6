package serve

import (
	"fmt"
	"sync/atomic"
)

// The dispatch index: what dispatch() consults instead of scanning every
// session. Three ordered sets of session indices, all maintained by
// eventLoop.touch — the index's only writer — from the same predicates the
// scheduler states its dispatch rule in (session.ready, the inflight
// frame's retryReady, the breaker's state):
//
//   - ready: sessions with a queued head and nothing in flight, ordered by
//     (head arrival, session index) — FIFO across streams;
//   - retry: sessions whose failed frame's backoff has expired, ordered by
//     (the frame's arrival, session index);
//   - shed:  sessions in either set whose breaker is open, ordered by
//     session index. breakerOpen is the only state in which shouldShed can
//     return true or move the breaker (open → half-open), so visiting just
//     these, lowest index first, is the full scan's behaviour. A run
//     without a fault plan never opens a breaker, so the set stays empty.
//
// Picking a frame is a peek at a heap root; a mutation is one touch, so a
// dispatch costs O(log sessions) where it used to cost three scans.
type dispatchIndex struct {
	ready, retry, shed sessionHeap
}

func newDispatchIndex(sessions int) dispatchIndex {
	return dispatchIndex{
		ready: newSessionHeap(sessions),
		retry: newSessionHeap(sessions),
		shed:  newSessionHeap(sessions),
	}
}

// sessionHeap is an indexed binary min-heap of session indices ordered by
// (key, session index). pos makes membership tests, re-keying and removal
// of an arbitrary session O(1) to find and O(log n) to apply.
type sessionHeap struct {
	heap []int32   // session indices in heap order
	pos  []int32   // pos[i] = session i's slot in heap, -1 when absent
	key  []float64 // key[i] = session i's key; meaningful while pos[i] >= 0
}

func newSessionHeap(sessions int) sessionHeap {
	h := sessionHeap{pos: make([]int32, sessions), key: make([]float64, sessions)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// min returns the session with the smallest (key, index), or -1.
func (h *sessionHeap) min() int {
	if len(h.heap) == 0 {
		return -1
	}
	return int(h.heap[0])
}

// set makes session i a member with the given key, or removes it — a no-op
// when nothing changed.
func (h *sessionHeap) set(i int, member bool, key float64) {
	p := int(h.pos[i])
	switch {
	case !member && p < 0:
	case !member:
		last := len(h.heap) - 1
		moved := h.heap[last]
		h.heap = h.heap[:last]
		h.pos[i] = -1
		if p < last {
			h.heap[p] = moved
			h.pos[moved] = int32(p)
			h.fix(p)
		}
	case p < 0:
		h.key[i] = key
		h.pos[i] = int32(len(h.heap))
		h.heap = append(h.heap, int32(i))
		h.up(len(h.heap) - 1)
	case h.key[i] != key:
		h.key[i] = key
		h.fix(p)
	}
}

func (h *sessionHeap) less(a, b int32) bool {
	if ka, kb := h.key[a], h.key[b]; ka != kb {
		return ka < kb
	}
	return a < b
}

func (h *sessionHeap) fix(p int) {
	if !h.down(p) {
		h.up(p)
	}
}

func (h *sessionHeap) up(p int) {
	s := h.heap[p]
	for p > 0 {
		parent := (p - 1) / 2
		if !h.less(s, h.heap[parent]) {
			break
		}
		h.heap[p] = h.heap[parent]
		h.pos[h.heap[p]] = int32(p)
		p = parent
	}
	h.heap[p] = s
	h.pos[s] = int32(p)
}

// down sifts slot p towards the leaves and reports whether it moved.
func (h *sessionHeap) down(p int) bool {
	s, start, n := h.heap[p], p, len(h.heap)
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], s) {
			break
		}
		h.heap[p] = h.heap[c]
		h.pos[h.heap[p]] = int32(p)
		p = c
	}
	h.heap[p] = s
	h.pos[s] = int32(p)
	return p != start
}

// membership evaluates the dispatch predicates for session i: which sets it
// belongs to right now, and under which keys.
func (l *eventLoop) membership(i int) (ready, retry, shed bool, readyKey, retryKey float64) {
	s := l.sessions[i]
	if ready = s.ready(); ready {
		readyKey = s.queue.Head().ArrivalMS
	}
	if retry = s.inflight != nil && s.inflight.retryReady; retry {
		retryKey = s.inflight.arrivalMS
	}
	shed = (ready || retry) && l.sup.breakers[i].state == breakerOpen
	return
}

// touch re-derives session i's place in the dispatch index. Every mutation
// of a session's queue, of its inflight frame's existence or retryReady
// bit, or of its breaker's state is followed by a touch before dispatch
// next consults the index.
func (l *eventLoop) touch(i int) {
	ready, retry, shed, readyKey, retryKey := l.membership(i)
	l.index.ready.set(i, ready, readyKey)
	l.index.retry.set(i, retry, retryKey)
	l.index.shed.set(i, shed, 0)
}

// checkIndex verifies, in O(sessions), that the index is exactly what the
// predicates yield when recomputed from scratch and that each heap is
// ordered — i.e. that no mutation escaped touch — and that the worker set
// maps one to one onto the frames on the pool (checkWorkers).
func (l *eventLoop) checkIndex() error {
	for i := range l.sessions {
		ready, retry, shed, readyKey, retryKey := l.membership(i)
		for _, c := range [...]struct {
			name   string
			h      *sessionHeap
			member bool
			key    float64
		}{
			{"ready", &l.index.ready, ready, readyKey},
			{"retry", &l.index.retry, retry, retryKey},
			{"shed", &l.index.shed, shed, 0},
		} {
			if err := c.h.check(i, c.member, c.key); err != nil {
				return fmt.Errorf("serve: dispatch index: %s set at t=%v: %w", c.name, l.clockMS, err)
			}
		}
	}
	return l.checkWorkers()
}

// check reports how session i's entry differs from the given membership
// and key, or sits out of heap order relative to its parent.
func (h *sessionHeap) check(i int, member bool, key float64) error {
	p := int(h.pos[i])
	switch {
	case (p >= 0) != member:
		return fmt.Errorf("session %d is a member = %v, predicate says %v", i, p >= 0, member)
	case p < 0:
		return nil
	case p >= len(h.heap) || int(h.heap[p]) != i:
		return fmt.Errorf("slot %d does not hold session %d", p, i)
	case h.key[i] != key:
		return fmt.Errorf("session %d keyed %v, predicate says %v", i, h.key[i], key)
	case p > 0 && h.less(int32(i), h.heap[(p-1)/2]):
		return fmt.Errorf("not heap-ordered at session %d", i)
	}
	return nil
}

// indexAudit is the test seam other packages' harnesses reach through
// AuditIndex; Run reads it once, before its loop starts.
var indexAudit atomic.Bool

// AuditIndex makes every Run started before the returned restore function
// is called run checkIndex after every event and before every pick, and
// panic on the first divergence (a scheduler bug by construction). It
// multiplies a run's cost by O(sessions) and exists for tests and fuzz
// harnesses — the cluster fuzzer drives whole fleets of servers it does not
// construct itself — never for serving.
func AuditIndex() (restore func()) {
	old := indexAudit.Swap(true)
	return func() { indexAudit.Store(old) }
}

// mustCheckIndex is the audit AuditIndex installs.
func mustCheckIndex(l *eventLoop, _ bool) {
	if err := l.checkIndex(); err != nil {
		panic(err)
	}
}
