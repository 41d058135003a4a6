package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// http_closed drives the production entry point the way a caller that
// waits for each answer does: nproc connections, one stream each, closed
// loop — POST one frame, poll results?from= (200 µs back-off) until the
// result is visible, then send the next. Frames run at the full
// regressor-chosen scale, so compute is about two thirds of a request and
// transport plus engine the rest; the latency is the wall ingest→result
// time no other record in the repository has. The SLO is off, which makes
// the outputs independent of arrival times and therefore checkable against
// a reference session. One segment is one second of the loop.

const pollBackoff = 200 * time.Microsecond

type closedStream struct {
	id      int
	content streamContent
	bodies  [][]byte // one single-frame request per frame of the cycle
	next    int      // index of the next frame to send
	got     []frameDigest
	c       *client
}

type httpClosed struct {
	e       *env
	srv     *httpServer
	streams []*closedStream
}

func prepareHTTPClosed(e *env) (instance, error) {
	srv, err := startHTTP(e, 0)
	if err != nil {
		return nil, err
	}
	ids, err := srv.admit(e.nproc, 0)
	if err != nil {
		srv.stop()
		return nil, err
	}
	h := &httpClosed{e: e, srv: srv}
	for i, id := range ids {
		st := &closedStream{id: id, content: contentFor(e, i), c: newClient()}
		for k := range st.content.specs {
			body, err := st.content.body(k, 1)
			if err != nil {
				srv.stop()
				return nil, err
			}
			st.bodies = append(st.bodies, body)
		}
		h.streams = append(h.streams, st)
	}
	return h, nil
}

func (h *httpClosed) measure(seconds float64, rec *recorder) (*window, error) {
	scales := map[int]int{}
	w, err := runSegments(h.e, seconds, segmentCount(seconds), false, func(i int) (int, []float64, error) {
		length := segmentLength(seconds)
		if i < 0 {
			length = h.e.sz.warmUp()
		}
		return h.segment(length, rec, scales)
	})
	if err != nil {
		return nil, err
	}
	w.tailPct = 95
	w.scales = scales
	return w, nil
}

// segment runs every connection's closed loop for length and returns the
// frames served and their latencies. Each connection finishes the frame it
// has in flight, so the server is idle when segment returns.
func (h *httpClosed) segment(length time.Duration, rec *recorder, scales map[int]int) (int, []float64, error) {
	var mu sync.Mutex // guards lat, scales and firstErr
	var lat []float64
	var firstErr error
	deadline := time.Now().Add(length)
	var wg sync.WaitGroup
	for _, st := range h.streams {
		wg.Add(1)
		go func(st *closedStream) {
			defer wg.Done()
			mine, tested, err := h.drive(st, deadline, rec)
			mu.Lock()
			defer mu.Unlock()
			lat = append(lat, mine...)
			for _, s := range tested {
				scales[s]++
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(st)
	}
	wg.Wait()
	return len(lat), lat, firstErr
}

// drive is one connection's closed loop until the deadline. It returns each
// served frame's latency in ms and tested scale.
func (h *httpClosed) drive(st *closedStream, deadline time.Time, rec *recorder) (lat []float64, scales []int, err error) {
	framesURL := fmt.Sprintf("%s/v1/streams/%d/frames", h.srv.base, st.id)
	for time.Now().Before(deadline) {
		index := st.next
		st.next++
		root := rec.begin("http_closed.frame", 0, index)
		sent := time.Now()
		id := rec.begin("http.post", root, index)
		status, reply, err := st.c.do(http.MethodPost, framesURL, st.bodies[index%len(st.bodies)])
		rec.end(id)
		if err != nil {
			return lat, scales, fmt.Errorf("http_closed: ingest: %w", err)
		}
		if status != http.StatusAccepted {
			return lat, scales, fmt.Errorf("http_closed: ingest status %d: %s", status, reply)
		}
		var res []wireResult
		for len(res) == 0 {
			id = rec.begin("http.poll", root, index)
			res, err = st.c.results(h.srv.base, st.id, index)
			rec.end(id)
			if err != nil {
				return lat, scales, fmt.Errorf("http_closed: %w", err)
			}
			if len(res) == 0 {
				time.Sleep(pollBackoff)
			}
		}
		visible := time.Now()
		rec.end(root)
		if len(res) != 1 || res[0].Index != index {
			return lat, scales, fmt.Errorf("http_closed: stream %d asked for result %d, got %d results starting at %d",
				st.id, index, len(res), res[0].Index)
		}
		if len(st.got) < h.e.sz.prefix {
			st.got = append(st.got, res[0].digest())
		}
		lat = append(lat, float64(visible.Sub(sent).Microseconds())/1000)
		scales = append(scales, res[0].Scale)
	}
	return lat, scales, nil
}

// finish drains the server, checks conservation and scale bounds, and holds
// each stream's first results to the reference session.
func (h *httpClosed) finish(w *window) {
	defer func() {
		for _, st := range h.streams {
			st.c.close()
		}
		h.srv.stop()
	}()
	if w == nil {
		return
	}
	offered, served, dropped := h.srv.conservation(w)
	w.attempted, w.failed = offered, offered-served
	w.verify("http_closed.no_drops", dropped == 0, fmt.Sprintf("%d frames dropped in a closed loop", dropped))
	for s := range w.scales {
		if s < minScale || s > maxScale {
			w.verify("http_closed.scales_within_s_reg", false, fmt.Sprintf("scale %d outside [%d, %d]", s, minScale, maxScale))
		}
	}
	for _, st := range h.streams {
		want := referenceDigests(h.e.sys, h.srv.seed, st.id, st.content.specs[:min(len(st.got), len(st.content.specs))])
		ok, detail := true, ""
		for i := range want {
			if st.got[i] != want[i] {
				ok, detail = false, fmt.Sprintf("stream %d frame %d: served %+v, reference %+v", st.id, i, st.got[i], want[i])
				break
			}
		}
		w.verify(fmt.Sprintf("http_closed.stream_%d_equals_reference", st.id), ok, detail)
	}
}
