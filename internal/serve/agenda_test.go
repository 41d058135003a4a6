package serve

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// schedule is what the event loop asks of its event order; agenda and
// heapSchedule (every event in one heap, the loop's previous design) both
// provide it.
type schedule interface {
	len() int
	push(event)
	pop() event
	dropStale(stale func(event) bool)
}

type heapSchedule struct{ eventHeap }

func (h *heapSchedule) len() int { return len(h.eventHeap) }

func (h *heapSchedule) dropStale(stale func(event) bool) {
	for len(h.eventHeap) > 0 && stale(h.eventHeap[0]) {
		h.eventHeap.pop()
	}
}

// agendaCase is a scripted run: each stream's arrival instants, the
// scheduled events present at the start (faults), and a tick interval (0:
// none).
type agendaCase struct {
	name     string
	arrivals [][]float64
	faults   []event
	tickMS   float64
}

func (c agendaCase) streams() []Stream {
	out := make([]Stream, len(c.arrivals))
	for i, times := range c.arrivals {
		out[i].ID = i
		for _, ms := range times {
			out[i].Frames = append(out[i].Frames, TimedFrame{ArrivalMS: ms})
		}
	}
	return out
}

// replay drives sch through eventLoop.run's loop structure with a scripted
// reaction to each event, and returns the live events it handled, in order.
// The reaction schedules what the scheduler would: an arrival on an idle
// stream dispatches it (a completion after a service time drawn from the
// event), a completion frees the stream, every third arrival that finds its
// stream busy is a fault that invalidates the dispatch (its completion goes
// stale) and schedules a retry, and a retry redispatches. Stale completions
// are skipped without being handled, as run skips them.
func replay(c agendaCase, sch schedule) []event {
	busy := map[int]int{} // stream -> live dispatch ID
	dispatches := 0
	stale := func(ev event) bool { return ev.kind == kindCompletion && busy[ev.stream] != ev.seq }
	dispatch := func(now float64, stream int, salt int) {
		dispatches++
		busy[stream] = dispatches
		sch.push(event{timeMS: now + float64(1+(salt*7+stream*3)%5), kind: kindCompletion, stream: stream, seq: dispatches})
	}
	for _, e := range c.faults {
		sch.push(e)
	}
	if c.tickMS > 0 {
		sch.push(event{timeMS: c.tickMS, kind: kindTick})
	}
	var handled []event
	for sch.len() > 0 {
		ev := sch.pop()
		if stale(ev) {
			continue
		}
		handled = append(handled, ev)
		switch ev.kind {
		case kindTick:
			sch.dropStale(stale)
			if sch.len() > 0 {
				sch.push(event{timeMS: ev.timeMS + c.tickMS, kind: kindTick})
			}
		case kindArrival:
			switch {
			case busy[ev.stream] == 0:
				dispatch(ev.timeMS, ev.stream, ev.seq)
			case ev.seq%3 == 0:
				busy[ev.stream] = -1 // the fault: the dispatch's completion is now stale
				sch.push(event{timeMS: ev.timeMS + 2, kind: kindRetry, stream: ev.stream, seq: ev.seq})
			}
		case kindCompletion:
			busy[ev.stream] = 0
		case kindRetry:
			dispatch(ev.timeMS, ev.stream, ev.seq)
		case kindFault:
			if ev.seq < 0 {
				sch.push(event{timeMS: ev.timeMS + 1, kind: kindWatchdog, stream: -1, seq: ev.seq})
			}
		}
	}
	return handled
}

// TestAgendaMatchesAllInHeap: the agenda — arrivals sorted once, merged with
// a heap of scheduled events — pops exactly the events an all-in-heap loop
// pops, in the same order, through same-instant ties between completions,
// faults, arrivals and ticks, stale completions at the heap top while
// arrivals are pending, arrivals given out of time order, a bucket of
// agenda.reset's over agendaInsertion arrivals, and -0 tied with +0.
func TestAgendaMatchesAllInHeap(t *testing.T) {
	random := agendaCase{name: "random", tickMS: 7, arrivals: make([][]float64, 12)}
	rng := rand.New(rand.NewSource(37))
	for s := range random.arrivals {
		for range 40 {
			random.arrivals[s] = append(random.arrivals[s], float64(rng.Intn(120)))
		}
	}
	// One far outlier puts every other arrival in agenda.reset's first bucket,
	// more than agendaInsertion of them, with ties across streams.
	skewed := make([][]float64, 6)
	for s := range skewed {
		for k := range 12 {
			skewed[s] = append(skewed[s], float64((k*5+s*3)%17))
		}
	}
	skewed[2] = append(skewed[2], 1e6)
	for i := 0; i < 10; i++ {
		random.faults = append(random.faults, event{timeMS: float64(rng.Intn(120)), kind: kindFault, stream: -1, seq: i - 5})
	}
	for _, c := range []agendaCase{
		{name: "same-instant ties", tickMS: 2,
			arrivals: [][]float64{{0, 2, 4}, {0, 2, 4}, {4}},
			faults:   []event{{timeMS: 2, kind: kindFault, stream: -1, seq: 0}, {timeMS: 4, kind: kindFault, stream: -1, seq: -1}},
		},
		{name: "stale completions under pending arrivals", tickMS: 1,
			arrivals: [][]float64{{0, 1, 1, 1, 9}, {30}},
		},
		{name: "arrivals out of time order", tickMS: 3,
			arrivals: [][]float64{{8, 3}, {3, 0}, {5, 5}},
		},
		{name: "no arrivals", tickMS: 1, faults: []event{{timeMS: 3, kind: kindFault, stream: -1, seq: -1}}},
		{name: "arrivals only", arrivals: [][]float64{{1, 1, 0}}},
		{name: "skewed bucket", tickMS: 5, arrivals: skewed},
		{name: "signed zeros", tickMS: 1,
			arrivals: [][]float64{{0, negZero, 1}, {negZero, 0, negZero}, {negZero}},
			faults:   []event{{timeMS: negZero, kind: kindFault, stream: -1, seq: -1}},
		},
		random,
	} {
		t.Run(c.name, func(t *testing.T) {
			// The all-in-heap loop pushed every arrival before the first pop.
			var all heapSchedule
			streams := c.streams()
			for i := range streams {
				for j, f := range streams[i].Frames {
					all.push(event{timeMS: f.ArrivalMS, kind: kindArrival, stream: i, seq: j})
				}
			}
			want := replay(c, &all)
			var a agenda
			a.reset(streams)
			got := replay(c, &a)
			if !slices.Equal(got, want) {
				t.Fatalf("agenda handled\n%v\nthe all-in-heap loop\n%v", got, want)
			}
			if n := len(a.arrivals); len(want) < n {
				t.Fatalf("handled %d events, fewer than the %d arrivals", len(want), n)
			}
		})
	}
}

var negZero = math.Copysign(0, -1)

// sortedArrivals is the order agenda.reset replaced: every arrival in (stream,
// seq) order, then one comparison sort by (time, stream, seq).
func sortedArrivals(streams []Stream) []event {
	var out []event
	for i := range streams {
		for j, f := range streams[i].Frames {
			out = append(out, event{timeMS: f.ArrivalMS, kind: kindArrival, stream: i, seq: j})
		}
	}
	slices.SortFunc(out, func(x, y event) int {
		if x.timeMS != y.timeMS {
			return cmp.Compare(x.timeMS, y.timeMS)
		}
		return cmp.Or(x.stream-y.stream, x.seq-y.seq)
	})
	return out
}

// agendaStreams decodes fuzz bytes into a stream set. Each byte's low three
// bits pick what it adds to the current stream, its high five bits (v) say
// how: 0 an arrival at instant v, so instants repeat; 1 at ±0; 2 at −v; 3 at
// v/7; 4 a one-instant burst, v+1 more arrivals at the stream's last
// instant; 5 one far outlier at ±1e9·(v+1), which leaves every other
// arrival in one bucket; 6 +Inf, −Inf, a NaN, a negative NaN, or (v ≥ 4) the
// float64 whose bits are the next eight bytes; 7 starts the next stream, so
// streams can be empty.
func agendaStreams(data []byte) []Stream {
	streams := []Stream{{}}
	for k := 0; k < len(data); k++ {
		cur := &streams[len(streams)-1]
		at := func(ms float64) { cur.Frames = append(cur.Frames, TimedFrame{ArrivalMS: ms}) }
		v := int(data[k] >> 3)
		switch data[k] & 7 {
		case 0:
			at(float64(v))
		case 1:
			at(math.Copysign(0, float64(-(v & 1))))
		case 2:
			at(float64(-v))
		case 3:
			at(float64(v) / 7)
		case 4:
			last := 0.0
			if n := len(cur.Frames); n > 0 {
				last = cur.Frames[n-1].ArrivalMS
			}
			for range v + 1 {
				at(last)
			}
		case 5:
			at(math.Copysign(1e9*float64(v+1), float64(1-2*(v&1))))
		case 6:
			switch {
			case v >= 4 && k+8 < len(data):
				at(math.Float64frombits(binary.LittleEndian.Uint64(data[k+1:])))
				k += 8
			case v%4 == 0:
				at(math.Inf(1))
			case v%4 == 1:
				at(math.Inf(-1))
			case v%4 == 2:
				at(math.NaN())
			default:
				at(math.Copysign(math.NaN(), -1))
			}
		case 7:
			streams = append(streams, Stream{ID: len(streams)})
		}
	}
	return streams
}

// FuzzAgenda: agenda.reset's bucketed arrivals are exactly the comparison
// sort's, bit for bit, on any stream set — equal instants, ±0, negative
// times, one-instant bursts, a far outlier, empty streams, ±Inf and NaN.
// With a NaN the comparator orders nothing, so the two agree only because
// agenda.reset then runs that same sort over the same build order.
func FuzzAgenda(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		streams := agendaStreams(data)
		want := sortedArrivals(streams)
		// The agenda is recycled from a run over its own reversed streams,
		// with an arrival taken and an event left on its heap.
		var a agenda
		rev := slices.Clone(streams)
		slices.Reverse(rev)
		a.reset(rev)
		if a.len() > 0 {
			a.pop()
		}
		a.push(event{timeMS: -1, kind: kindTick})
		a.reset(streams)
		if len(a.arrivals) != len(want) || a.next != 0 || len(a.heap) != 0 {
			t.Fatalf("agenda holds %d arrivals (next %d, heap %d), want %d", len(a.arrivals), a.next, len(a.heap), len(want))
		}
		for k, w := range want {
			g := a.arrivals[k]
			if math.Float64bits(g.timeMS) != math.Float64bits(w.timeMS) || g.kind != w.kind || g.stream != w.stream || g.seq != w.seq {
				t.Fatalf("arrival %d of %d is %+v, the comparison sort's %+v", k, len(want), g, w)
			}
		}
	})
}
