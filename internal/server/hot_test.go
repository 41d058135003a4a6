package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/detect"
	"adascale/internal/synth"
)

// hotFrameBody is one frame shaped like the benchmark's: three objects at
// fractional coordinates.
const hotFrameBody = `{"frames":[{"w":320,"h":240,"clutter":0.25,"objects":[` +
	`{"id":1,"class":0,"x1":40.5,"y1":40.25,"x2":120.75,"y2":130.5,"texture":1,"intensity":0.75,"speed":2.5},` +
	`{"id":2,"class":1,"x1":150.125,"y1":60.5,"x2":230.5,"y2":170.25,"intensity":0.5},` +
	`{"id":3,"class":2,"x1":10.5,"y1":150.75,"x2":90.25,"y2":230.5,"speed":1.25}]}]}`

// rawClient speaks HTTP/1.1 over one keep-alive connection from buffers it
// owns, so an AllocsPerRun around its requests counts the server's
// allocations and nothing of a client's.
type rawClient struct {
	conn net.Conn
	buf  []byte
}

// do writes req and reads one response; it returns the status and body.
// The response must carry a Content-Length, as every small reply does.
func (c *rawClient) do(t *testing.T, req []byte) (int, []byte) {
	if _, err := c.conn.Write(req); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		m, err := c.conn.Read(c.buf[n:])
		if err != nil {
			t.Fatal(err)
		}
		n += m
		head := bytes.Index(c.buf[:n], []byte("\r\n\r\n"))
		if head < 0 {
			continue
		}
		k := bytes.Index(c.buf[:head], []byte("\r\nContent-Length: "))
		if k < 0 {
			t.Fatalf("response without Content-Length: %q", c.buf[:head])
		}
		length := 0
		for _, d := range c.buf[k+len("\r\nContent-Length: "):] {
			if d < '0' || d > '9' {
				break
			}
			length = 10*length + int(d-'0')
		}
		if end := head + 4 + length; n >= end {
			status := int(c.buf[9]-'0')*100 + int(c.buf[10]-'0')*10 + int(c.buf[11]-'0')
			return status, c.buf[head+4 : end]
		}
	}
}

// TestHotRouteAllocs pins what the two hot routes allocate per request,
// measured over a real loopback connection against a Sync server (so an
// ingest's reply comes after its frame is computed and settled): one
// one-frame ingest, one results poll that returns one result, and the pair
// a closed-loop client makes per frame. net/http's request parsing and
// response set-up is most of each count; the bounds sit a little above the
// measured 32 / 20 / 52 (57 / 31 / 88 before the hot routes were reworked),
// so only a real regression trips them.
func TestHotRouteAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector): the pooled buffers reallocate")
	}
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock(), SLOMS: 1000})
	id := admit(t, srv, "cam")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		<-served
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &rawClient{conn: conn, buf: make([]byte, 64<<10)}

	ingest := []byte("POST /v1/streams/" + strconv.Itoa(id) + "/frames HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n" +
		"Content-Length: " + strconv.Itoa(len(hotFrameBody)) + "\r\n\r\n" + hotFrameBody)
	// The offset is written in place, zero-padded, so a poll's request
	// bytes are rebuilt without allocating.
	poll := []byte("GET /v1/streams/" + strconv.Itoa(id) + "/results?from=000000 HTTP/1.1\r\nHost: test\r\n\r\n")
	digits := bytes.Index(poll, []byte("from=")) + len("from=")
	setFrom := func(from int) {
		for i := digits + 5; i >= digits; i-- {
			poll[i] = byte('0' + from%10)
			from /= 10
		}
	}
	next := 0 // index of the next frame the stream serves
	doIngest := func() {
		if status, body := c.do(t, ingest); status != 202 {
			t.Fatalf("ingest: status %d: %s", status, body)
		}
		next++
	}
	result := []byte(`{"index":`)
	doPoll := func() {
		setFrom(next - 1)
		if status, body := c.do(t, poll); status != 200 || bytes.Count(body, result) != 1 {
			t.Fatalf("poll: status %d: %s", status, body)
		}
	}
	doIngest() // warm the stream, the pools and the connection

	const runs = 200
	cases := []struct {
		name  string
		f     func()
		bound float64
	}{
		{"ingest", doIngest, 35},
		{"poll", doPoll, 22},
		{"ingest+poll", func() { doIngest(); doPoll() }, 56},
	}
	for _, tc := range cases {
		got := testing.AllocsPerRun(runs, tc.f)
		t.Logf("%s: %.1f allocations", tc.name, got)
		if got > tc.bound {
			t.Errorf("%s: %.1f allocations per request, want at most %.0f", tc.name, got, tc.bound)
		}
	}
}

// poolRetains reports whether a sync.Pool returns what was Put in it; the
// race detector makes it drop a share of Puts at random.
func poolRetains() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 64; i++ {
		p.Put(p.Get())
	}
	return news == 1
}

// TestQueryValueMatchesParseQuery: the results route's from= reader agrees
// with url.ParseQuery(raw).Get on escapes, repeats, semicolons, '+' and
// empty values.
func TestQueryValueMatchesParseQuery(t *testing.T) {
	for _, raw := range []string{
		"", "from=3", "from=%31", "from=1&from=2", "a;b&from=3", "from=1;x&from=4",
		"+from=1", "from+=1", "fr%6Fm=5", "from=%zz&from=6", "%zz=1&from=7",
		"from=", "from", "&&from=8&", "x=1&from=9", "from=1+2", "=1&from=10",
	} {
		want := ""
		if q, _ := url.ParseQuery(raw); q != nil {
			want = q.Get("from")
		}
		if got := queryValue(raw, "from"); got != want {
			t.Errorf("queryValue(%q) = %q, url.ParseQuery gives %q", raw, got, want)
		}
	}
}

// TestHotRepliesAreEncodingJSON: the ingest and results replies, written
// without encoding/json, are byte for byte what its Encoder writes for the
// same IngestReply and ResultsReply — for a caught-up reader's empty
// results too — and a quiet stream's reply counts what its lane counts.
func TestHotRepliesAreEncodingJSON(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock(), SLOMS: 5})
	id := admit(t, srv, "cam")
	reencode := func(body []byte, v any) string {
		t.Helper()
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for range 3 {
		rec := do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", id), "cam", hotFrameBody)
		if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("ingest: %d %q %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		if want := reencode(rec.Body.Bytes(), &IngestReply{}); rec.Body.String() != want {
			t.Fatalf("ingest reply %q, encoding/json writes %q", rec.Body, want)
		}
	}
	for _, from := range []int{0, 2, 3, 99} {
		rec := do(t, srv, "GET", fmt.Sprintf("/v1/streams/%d/results?from=%d", id, from), "cam", "")
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("results from=%d: %d %q %s", from, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		var res ResultsReply
		if want := reencode(rec.Body.Bytes(), &res); rec.Body.String() != want {
			t.Fatalf("results from=%d: %q, encoding/json writes %q", from, rec.Body, want)
		}
		// Quiet, the ring's counts are the lane's.
		if s := srv.engine.streams[id]; res.Served != s.Served || res.SLOMisses != s.SLOMisses || res.SLOMisses == 0 {
			t.Fatalf("results from=%d: served %d, slo_misses %d; the stream has %d, %d (want some misses at a 5 ms SLO)",
				from, res.Served, res.SLOMisses, s.Served, s.SLOMisses)
		}
	}
}

// TestEncodeResultReusesScratch: a frame's stored result is encoding/json's
// bytes for its FrameResult, and the stream's reused scratch carries
// nothing from the frame before — detections, fault, fallback, miss — and
// encodes no detections as [], not null.
func TestEncodeResultReusesScratch(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	s := srv.engine.streams[admit(t, srv, "cam")]
	full := adascale.FrameOutput{
		Frame: &synth.Frame{Index: 4}, Scale: 480,
		Detections: []detect.Detection{{Class: 2, Score: 0.75, Box: detect.Box{X1: 1.5, Y1: 2, X2: 30.25, Y2: 40}}},
		Health:     adascale.Health{Fault: synth.FaultBlackout, Fallback: adascale.FallbackPropagate},
	}
	wantFull := FrameResult{Index: 4, Scale: 480, LatencyMS: 12.5, SLOMiss: true,
		Fault: synth.FaultBlackout.String(), Fallback: adascale.FallbackPropagate.String(),
		Dets: []DetectionJSON{{Class: 2, Score: 0.75, X1: 1.5, Y1: 2, X2: 30.25, Y2: 40}}}
	empty := adascale.FrameOutput{Frame: &synth.Frame{Index: 5}, Scale: 128}
	wantEmpty := FrameResult{Index: 5, Scale: 128, LatencyMS: 3, Dets: []DetectionJSON{}}
	for i, tc := range []struct {
		out     adascale.FrameOutput
		latency float64
		miss    bool
		want    FrameResult
	}{{full, 12.5, true, wantFull}, {empty, 3, false, wantEmpty}, {full, 12.5, true, wantFull}} {
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.encodeResult(tc.out, tc.latency, tc.miss); !bytes.Equal(got, want) {
			t.Errorf("result %d: %s, want %s", i, got, want)
		}
	}
}
