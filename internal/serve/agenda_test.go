package serve

import (
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
// arrivals are pending, and arrivals given out of time order.
func TestAgendaMatchesAllInHeap(t *testing.T) {
	random := agendaCase{name: "random", tickMS: 7, arrivals: make([][]float64, 12)}
	rng := rand.New(rand.NewSource(37))
	for s := range random.arrivals {
		for range 40 {
			random.arrivals[s] = append(random.arrivals[s], float64(rng.Intn(120)))
		}
	}
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
			a := newAgenda(streams)
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
