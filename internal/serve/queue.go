package serve

import "adascale/internal/synth"

// FrameQueue is the bounded drop-oldest arrival queue shared by the
// virtual-time scheduler's sessions and the HTTP ingestion path
// (internal/server). Dropping the oldest (not the newest) frame is the
// right policy for live video: the newest frame is the one closest to the
// present, and AdaScale's temporal consistency recovers from a gap faster
// than from serving stale frames late.
//
// The zero value is an empty queue. FrameQueue is not safe for concurrent
// use; both owners serialise access (the scheduler on its event-loop
// goroutine, the HTTP engine under its mutex).
type FrameQueue struct {
	items []TimedFrame
}

// Push enqueues an arrival under the bounded drop-oldest policy: when the
// queue already holds depth frames, the oldest is evicted to make room.
// It returns the dropped frame, or nil if nothing was evicted.
func (q *FrameQueue) Push(f TimedFrame, depth int) (dropped *synth.Frame) {
	if len(q.items) >= depth {
		dropped = q.items[0].Frame
		copy(q.items, q.items[1:])
		q.items = q.items[:len(q.items)-1]
	}
	q.items = append(q.items, f)
	return dropped
}

// Pop removes and returns the head of the queue. It panics on an empty
// queue, like indexing an empty slice would; callers gate on Len.
func (q *FrameQueue) Pop() TimedFrame {
	f := q.items[0]
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return f
}

// Head returns the oldest queued arrival without removing it.
func (q *FrameQueue) Head() TimedFrame { return q.items[0] }

// Len returns the number of queued frames.
func (q *FrameQueue) Len() int { return len(q.items) }
