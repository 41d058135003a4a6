package serve

import "adascale/internal/synth"

// FrameQueue is the bounded drop-oldest arrival queue shared by the
// virtual-time scheduler's sessions and the HTTP ingestion path
// (internal/server). Dropping the oldest (not the newest) frame is the
// right policy for live video: the newest frame is the one closest to the
// present, and AdaScale's temporal consistency recovers from a gap faster
// than from serving stale frames late. It is a ring buffer: Push, Pop and
// an eviction are O(1); a Push that finds it full doubles it.
//
// The zero value is an empty queue. FrameQueue is not safe for concurrent
// use; both owners serialise access (the scheduler on its event-loop
// goroutine, the HTTP engine under its mutex).
type FrameQueue struct {
	buf  []TimedFrame // the ring; the queue is n frames from buf[head], wrapping
	head int
	n    int
}

// Push enqueues an arrival under the bounded drop-oldest policy: when the
// queue already holds depth frames, the oldest is evicted to make room.
// It returns the dropped frame, or nil if nothing was evicted. At most one
// frame is evicted per Push: a queue over a lowered depth keeps its length.
func (q *FrameQueue) Push(f TimedFrame, depth int) (dropped *synth.Frame) {
	if q.n >= depth {
		dropped = q.Pop().Frame
	}
	if q.n == len(q.buf) {
		buf := make([]TimedFrame, max(2*len(q.buf), 4))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[q.slot(q.n)] = f
	q.n++
	return dropped
}

// Pop removes and returns the head of the queue. It panics on an empty
// queue; callers gate on Len.
func (q *FrameQueue) Pop() TimedFrame {
	f := q.Head()
	q.buf[q.head] = TimedFrame{} // the ring keeps no popped frame alive
	q.head = q.slot(1)
	q.n--
	return f
}

// Head returns the oldest queued arrival without removing it, or panics.
func (q *FrameQueue) Head() TimedFrame {
	if q.n == 0 {
		panic("serve: Head of an empty FrameQueue")
	}
	return q.buf[q.head]
}

// Len returns the number of queued frames.
func (q *FrameQueue) Len() int { return q.n }

// slot is the ring index of the i-th queued frame (0 = head).
func (q *FrameQueue) slot(i int) int {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}
