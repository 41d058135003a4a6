package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// http_fanin uses the same server the other way round: many cameras behind
// few connections. 32 streams are multiplexed over nproc connections in an
// open loop — each stream posts 4 frames every 500 ms (8 frames/s; 256
// frames/s and 64 posts/s in all) whether or not the server keeps up, reads
// its results once per post from a cursor, and connection 0 scrapes /metrics
// once a second. The four frames of a post arrive at one instant, so under
// the 50 ms SLO the scale ladder holds every stream at the smallest scale:
// frames are cheap and JSON decoding, the engine mutex, formatted metric
// keys and the ever-growing obs samples carry the cost. A gain for
// http_closed that costs fan-in shows here. Latency is the ingest
// acknowledgement, timed from when the post was due. One segment is one
// second of the schedule plus the moment the server needs to settle it.
//
// The SLO and the rate are what make the workload repeatable. At 100 ms the
// ladder cycles — down to the smallest scale, back up, over again, every 20
// frames — and streams that start together stay in step, so a segment's
// work swung between 0.4 and 1.1 CPU-seconds with the phase it caught. And
// at 40 % of the machine or more, half the posts find both CPUs computing
// and wait for one: the median acknowledgement sat between the two cases
// and moved from 1.2 to 3.6 ms between runs of one seed. Here the machine is
// an eighth busy, a post's cost is waking an idle CPU, and that is steady.

const fanInSLOMS = 50

type fanStream struct {
	id      int
	content streamContent
	next    int // first frame index of the next post
	cursor  int // results read so far
	last    int // index of the last result read, -1 before any
}

type httpFanIn struct {
	e       *env
	srv     *httpServer
	streams []*fanStream
	clients []*client

	segments int // schedule stretches sent so far; seeds the next one's phases

	refused   int // frames in posts the server did not answer 2xx
	unordered int // results that arrived out of index order
}

func prepareHTTPFanIn(e *env) (instance, error) {
	srv, err := startHTTP(e, fanInSLOMS)
	if err != nil {
		return nil, err
	}
	ids, err := srv.admit(e.sz.fanStreams, fanInSLOMS)
	if err != nil {
		srv.stop()
		return nil, err
	}
	h := &httpFanIn{e: e, srv: srv}
	for i, id := range ids {
		h.streams = append(h.streams, &fanStream{id: id, content: contentFor(e, i), last: -1})
	}
	for c := 0; c < e.nproc; c++ {
		h.clients = append(h.clients, newClient())
	}
	return h, nil
}

func (h *httpFanIn) measure(seconds float64, rec *recorder) (*window, error) {
	total := &window{scales: map[int]int{}}
	w, err := runSegments(h.e, seconds, segmentCount(seconds), true, func(i int) (int, []float64, error) {
		if i < 0 { // warm-up samples are discarded
			return h.segment(h.e.sz.warmUp(), rec, &window{scales: map[int]int{}})
		}
		return h.segment(segmentLength(seconds), rec, total)
	})
	if err != nil {
		return nil, err
	}
	w.tailPct = 90
	w.scales, w.genLate, w.scrapes = total.scales, total.genLate, total.scrapes
	return w, nil
}

// segment sends one stretch of the open-loop schedule and then waits for
// the server to settle every frame of it, so the frames a segment offered
// are the frames it is charged for and the server is idle when it returns.
// It returns the frames served and the posts' acknowledgement latencies;
// lateness, scrape times and tested scales go to part.
func (h *httpFanIn) segment(length time.Duration, rec *recorder, part *window) (int, []float64, error) {
	plan := fanInSchedule(mix(h.e.seed, 6+uint64(h.segments)), len(h.streams), len(h.clients), h.e.sz.fanFPS, h.e.sz.fanPerPost, length)
	h.segments++

	// Encode every post before the clock starts: the schedule fixes which
	// frames each one carries.
	bodies := make([][][]byte, len(plan))
	for c, sends := range plan {
		bodies[c] = make([][]byte, len(sends))
		for i, s := range sends {
			if s.kind != sendPost {
				continue
			}
			st := h.streams[s.stream]
			body, err := st.content.body(st.next+s.seq*h.e.sz.fanPerPost, h.e.sz.fanPerPost)
			if err != nil {
				return 0, nil, err
			}
			bodies[c][i] = body
		}
	}

	_, servedBefore, _ := h.srv.srv.Stats()
	var mu sync.Mutex // guards lat, part, the instance counters and firstErr
	var lat []float64
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := &window{scales: map[int]int{}}
			acks, refused, unordered, err := h.drive(h.clients[c], plan[c], bodies[c], start, rec, mine)
			mu.Lock()
			defer mu.Unlock()
			lat = append(lat, acks...)
			part.genLate = append(part.genLate, mine.genLate...)
			part.scrapes = append(part.scrapes, mine.scrapes...)
			for s, n := range mine.scales {
				part.scales[s] += n
			}
			h.refused += refused
			h.unordered += unordered
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, nil, firstErr
	}
	for _, sends := range plan {
		for _, s := range sends {
			if s.kind == sendPost {
				h.streams[s.stream].next += h.e.sz.fanPerPost
			}
		}
	}
	// Settle: every offered frame served or dropped.
	for {
		offered, served, dropped := h.srv.srv.Stats()
		if offered == served+dropped {
			return served - servedBefore, lat, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// drive walks one connection's sends in due order. A send that is late goes
// out at once: the generator never skips or thins the schedule. It returns
// each post's acknowledgement latency in ms, timed from when it was due.
func (h *httpFanIn) drive(c *client, sends []send, bodies [][]byte, start time.Time,
	rec *recorder, part *window) (acks []float64, refused, unordered int, err error) {
	for i, s := range sends {
		due := start.Add(s.at)
		time.Sleep(time.Until(due))

		if s.kind == sendScrape {
			id := rec.begin("http.scrape", 0, i)
			t0 := time.Now()
			status, _, err := c.do(http.MethodGet, h.srv.base+"/metrics", nil)
			rec.end(id)
			if err != nil || status != http.StatusOK {
				return acks, refused, unordered, fmt.Errorf("http_fanin: scrape: status %d: %v", status, err)
			}
			part.scrapes = append(part.scrapes, float64(time.Since(t0).Microseconds())/1000)
			continue
		}

		st := h.streams[s.stream]
		root := rec.begin("http_fanin.post_and_read", 0, st.id)
		sent := time.Now()
		id := rec.begin("http.post", root, st.id)
		status, _, err := c.do(http.MethodPost, fmt.Sprintf("%s/v1/streams/%d/frames", h.srv.base, st.id), bodies[i])
		rec.end(id)
		if err != nil {
			return acks, refused, unordered, fmt.Errorf("http_fanin: ingest: %w", err)
		}
		acked := time.Now()
		if status != http.StatusAccepted {
			refused += h.e.sz.fanPerPost
		}
		acks = append(acks, float64(acked.Sub(due).Microseconds())/1000)
		part.genLate = append(part.genLate, float64(sent.Sub(due).Microseconds())/1000)

		id = rec.begin("http.results", root, st.id)
		res, err := c.results(h.srv.base, st.id, st.cursor)
		rec.end(id)
		rec.end(root)
		if err != nil {
			return acks, refused, unordered, fmt.Errorf("http_fanin: %w", err)
		}
		st.cursor += len(res)
		for _, r := range res {
			if r.Index <= st.last {
				unordered++
			}
			st.last = r.Index
			part.scales[r.Scale]++
		}
	}
	return acks, refused, unordered, nil
}

// finish drains the server and accounts for every frame sent: a frame is
// failed if its post was refused, the queue dropped it, or it was lost.
func (h *httpFanIn) finish(w *window) {
	defer func() {
		for _, c := range h.clients {
			c.close()
		}
		h.srv.stop()
	}()
	if w == nil {
		return
	}
	offered, served, _ := h.srv.conservation(w)
	w.attempted = offered + h.refused
	w.failed = w.attempted - served
	w.verify("http_fanin.results_in_index_order", h.unordered == 0, fmt.Sprintf("%d results arrived out of index order", h.unordered))
	for s := range w.scales {
		if s < minScale || s > maxScale {
			w.verify("http_fanin.scales_within_s_reg", false, fmt.Sprintf("scale %d outside [%d, %d]", s, minScale, maxScale))
		}
	}
}
