package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"adascale"
)

// The HTTP wire format as a client sees it. The benchmark declares its own
// copies of the documents so the HTTP workloads depend on the protocol, not
// on the server package's Go types.

type wireObject struct {
	ID        int     `json:"id"`
	Class     int     `json:"class"`
	X1        float64 `json:"x1"`
	Y1        float64 `json:"y1"`
	X2        float64 `json:"x2"`
	Y2        float64 `json:"y2"`
	Texture   int     `json:"texture,omitempty"`
	Intensity float64 `json:"intensity,omitempty"`
	Speed     float64 `json:"speed,omitempty"`
}

type wireFrame struct {
	W       int          `json:"w"`
	H       int          `json:"h"`
	Clutter float64      `json:"clutter,omitempty"`
	Blur    float64      `json:"blur,omitempty"`
	Objects []wireObject `json:"objects,omitempty"`
}

type wireIngest struct {
	Frames []wireFrame `json:"frames"`
}

type wireAdmit struct {
	Tenant string  `json:"tenant"`
	SLOMS  float64 `json:"slo_ms,omitempty"`
	Queue  int     `json:"queue,omitempty"`
}

type wireAdmitReply struct {
	StreamID int `json:"stream_id"`
}

type wireDetection struct {
	Class int     `json:"class"`
	Score float64 `json:"score"`
	X1    float64 `json:"x1"`
	Y1    float64 `json:"y1"`
	X2    float64 `json:"x2"`
	Y2    float64 `json:"y2"`
}

type wireResult struct {
	Index int             `json:"index"`
	Scale int             `json:"scale"`
	Dets  []wireDetection `json:"detections"`
}

type wireResults struct {
	Results []wireResult `json:"results"`
}

func (r wireResult) digest() frameDigest {
	d := newDigest()
	for _, det := range r.Dets {
		d.detection(det.Class, det.Score, det.X1, det.Y1, det.X2, det.Y2)
	}
	return frameDigest{index: r.Index, scale: r.Scale, dets: d.sum()}
}

// wireOf puts a generated frame on the wire. float32 intensity widens to
// float64 exactly and encoding/json round-trips float64, so the server
// rebuilds the same content.
func wireOf(f *adascale.Frame) wireFrame {
	w := wireFrame{W: f.W, H: f.H, Clutter: f.Clutter, Blur: f.Blur}
	for _, o := range f.Objects {
		w.Objects = append(w.Objects, wireObject{
			ID: o.ID, Class: o.Class,
			X1: o.Box.X1, Y1: o.Box.Y1, X2: o.Box.X2, Y2: o.Box.Y2,
			Texture: int(o.Texture), Intensity: float64(o.Intensity), Speed: o.Speed,
		})
	}
	return w
}

// streamContent is what one HTTP stream plays: the validation frames from a
// seeded starting snippet on, cycling.
type streamContent struct {
	specs []wireFrame
}

func contentFor(e *env, stream int) streamContent {
	var c streamContent
	start := int(uint64(mix(e.seed, 100+uint64(stream))) % uint64(len(e.val)))
	for k := range e.val {
		sn := &e.val[(start+k)%len(e.val)]
		for i := range sn.Frames {
			c.specs = append(c.specs, wireOf(&sn.Frames[i]))
		}
	}
	return c
}

// body encodes frames [first, first+n) of the stream's cycle as one
// ingestion request.
func (c streamContent) body(first, n int) ([]byte, error) {
	req := wireIngest{Frames: make([]wireFrame, n)}
	for i := range req.Frames {
		req.Frames[i] = c.specs[(first+i)%len(c.specs)]
	}
	return json.Marshal(req)
}

// httpServer is an in-process server on a loopback listener.
type httpServer struct {
	srv    *adascale.HTTPServer
	base   string
	seed   int64
	served chan error // Serve's return value
}

// startHTTP builds the HTTP front end over the trained system and returns
// once the listener answers /healthz.
func startHTTP(e *env, sloMS float64) (*httpServer, error) {
	seed := mix(e.seed, 2)
	srv, err := adascale.NewHTTPServer(e.sys.Detector, e.sys.Regressor, adascale.HTTPConfig{
		Seed:       seed,
		Workers:    e.nproc,
		QueueDepth: 8,
		SLOMS:      sloMS,
		Resilient:  adascale.DefaultResilientConfig(),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &httpServer{srv: srv, base: "http://" + ln.Addr().String(), seed: seed, served: make(chan error, 1)}
	go func() { h.served <- srv.Serve(ln) }()
	c := newClient()
	defer c.close()
	if status, _, err := c.do(http.MethodGet, h.base+"/healthz", nil); err != nil || status != http.StatusOK {
		h.stop()
		return nil, fmt.Errorf("healthz: status %d: %v", status, err)
	}
	return h, nil
}

// admit opens n streams and returns their IDs.
func (h *httpServer) admit(n int, sloMS float64) ([]int, error) {
	c := newClient()
	defer c.close()
	ids := make([]int, n)
	for i := range ids {
		body, err := json.Marshal(wireAdmit{Tenant: fmt.Sprintf("bench-%d", i), SLOMS: sloMS, Queue: 8})
		if err != nil {
			return nil, err
		}
		status, reply, err := c.do(http.MethodPost, h.base+"/v1/streams", body)
		if err != nil {
			return nil, err
		}
		if status != http.StatusCreated {
			return nil, fmt.Errorf("admit: status %d: %s", status, reply)
		}
		var ar wireAdmitReply
		if err := json.Unmarshal(reply, &ar); err != nil {
			return nil, fmt.Errorf("admit reply: %w", err)
		}
		ids[i] = ar.StreamID
	}
	return ids, nil
}

// stop drains the engine, shuts the listener and waits for Serve to return.
func (h *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // a deadline overrun only leaves idle connections behind
	if err := <-h.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "note: serve ended with", err)
	}
}

// conservation drains the server and verifies offered == served + dropped.
// It returns the totals.
func (h *httpServer) conservation(w *window) (offered, served, dropped int) {
	h.srv.Drain()
	offered, served, dropped = h.srv.Stats()
	w.verify("conservation", offered == served+dropped,
		fmt.Sprintf("offered %d != served %d + dropped %d after drain", offered, served, dropped))
	return offered, served, dropped
}

// client is one keep-alive connection to the server; the load generators
// hold one each, so a workload never uses more connections than it states.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// results reads a stream's outputs from a cursor on.
func (c *client) results(base string, stream, from int) ([]wireResult, error) {
	status, reply, err := c.do(http.MethodGet, fmt.Sprintf("%s/v1/streams/%d/results?from=%d", base, stream, from), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("results: status %d: %s", status, reply)
	}
	var rr wireResults
	if err := json.Unmarshal(reply, &rr); err != nil {
		return nil, fmt.Errorf("results reply: %w", err)
	}
	return rr.Results, nil
}
