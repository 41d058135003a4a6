package serve

import (
	"testing"

	"adascale/internal/synth"
)

// sliceQueue is the drop-oldest queue FrameQueue replaced, kept as the
// oracle: a slice whose Pop and eviction shift every queued frame down.
type sliceQueue struct{ items []TimedFrame }

func (q *sliceQueue) push(f TimedFrame, depth int) (dropped *synth.Frame) {
	if len(q.items) >= depth {
		dropped = q.items[0].Frame
		copy(q.items, q.items[1:])
		q.items = q.items[:len(q.items)-1]
	}
	q.items = append(q.items, f)
	return dropped
}

func (q *sliceQueue) pop() TimedFrame {
	f := q.items[0]
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return f
}

// FuzzFrameQueue holds the ring to the slice queue over arbitrary
// push/pop sequences: the same dropped frame on every Push, the same frame
// on every Pop, and the same Len and Head after every operation. Each op
// byte's low two bits pick the operation — push one frame, push a burst of
// up to 64, pop, or set the depth (1 to 1024) — so the depth moves below and
// above the queue's length mid-stream, the ring wraps and grows, and a
// saturation-style depth of 1 lands on a full queue. ring sizes the ring's
// initial storage as the scheduler's slabs do (0: the zero-value queue the
// HTTP engine starts from).
func FuzzFrameQueue(f *testing.F) {
	f.Add(uint16(8), uint8(8), []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2})
	f.Add(uint16(8), uint8(3), []byte{0xfd, 3, 0xfd, 2, 2, 0xfd, 0xff, 0xfd})
	f.Add(uint16(1), uint8(0), []byte{0, 0, 2, 0, 1, 2, 2, 0})
	f.Add(uint16(1024), uint8(1), []byte{0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 3, 0, 2, 0xff, 0xfd})
	f.Add(uint16(4), uint8(5), []byte{1, 1, 1, 2, 1, 2, 1, 2, 1, 1, 1, 1, 0x43, 1, 1, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, depth uint16, ring uint8, ops []byte) {
		frames := make([]synth.Frame, 64)
		d := 1 + int(depth)%1024
		var got FrameQueue
		if c := int(ring) % 9; c > 0 {
			got.buf = make([]TimedFrame, c)
		}
		var want sliceQueue
		arrivals := 0
		push := func(op int) {
			tf := TimedFrame{Frame: &frames[arrivals%len(frames)], ArrivalMS: float64(arrivals)}
			arrivals++
			g, w := got.Push(tf, d), want.push(tf, d)
			if g != w {
				t.Fatalf("op %d: Push(depth %d) dropped %p, the slice queue %p", op, d, g, w)
			}
		}
		for i, b := range ops {
			switch b & 3 {
			case 0:
				push(i)
			case 1:
				for range 1 + int(b>>2) {
					push(i)
				}
			case 2:
				if len(want.items) == 0 {
					continue
				}
				if g, w := got.Pop(), want.pop(); g != w {
					t.Fatalf("op %d: Pop = %+v, the slice queue %+v", i, g, w)
				}
			case 3:
				d = 1 + int(b>>2)*1023/63
			}
			if got.Len() != len(want.items) {
				t.Fatalf("op %d: Len = %d, the slice queue %d", i, got.Len(), len(want.items))
			}
			if got.Len() > 0 && got.Head() != want.items[0] {
				t.Fatalf("op %d: Head = %+v, the slice queue %+v", i, got.Head(), want.items[0])
			}
		}
		for len(want.items) > 0 {
			if g, w := got.Pop(), want.pop(); g != w {
				t.Fatalf("drain: Pop = %+v, the slice queue %+v", g, w)
			}
		}
		if got.Len() != 0 {
			t.Fatalf("drained ring holds %d frames", got.Len())
		}
		for i, tf := range got.buf {
			if tf.Frame != nil {
				t.Fatalf("drained ring's slot %d still holds frame %p", i, tf.Frame)
			}
		}
	})
}

// TestFrameQueueEmptyPanics: Head and Pop on an empty queue panic, as the
// slice queue's indexing did, rather than returning a stale or zero frame.
func TestFrameQueueEmptyPanics(t *testing.T) {
	q := FrameQueue{buf: make([]TimedFrame, 4)}
	q.Push(TimedFrame{Frame: &synth.Frame{}}, 4)
	q.Pop()
	for name, op := range map[string]func(){"Head": func() { q.Head() }, "Pop": func() { q.Pop() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty queue did not panic", name)
				}
			}()
			op()
		}()
	}
}
