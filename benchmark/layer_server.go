package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"adascale"
	"adascale/internal/server"
)

// probeServer takes an HTTP request apart. The decoder is timed alone; the
// ingest handler is timed through Handler().ServeHTTP on a synchronous,
// scripted-clock server, so the frames are computed inside the call, and a
// reference session is stepped over the same frames beside it. ingest_self
// — each call minus its decoding and minus its frames' session steps — is
// the handler's and the engine's own bookkeeping; the results handler is
// timed at the results the probe's ingests stored; and /healthz over a real
// loopback connection is the transport floor under every HTTP latency. The probe server's /metrics
// is scraped before and after its ingests (obs.scrape_ms_first/last); the
// http_fanin traced run replaces those two with its own first and last
// scrape, which show the growth over a real run.
func probeServer(p *prober) error {
	const perPost = 4
	classes := len(p.e.cfg.Classes)
	var bodies [][]byte
	var posts []wireIngest
	for i := range p.pairs {
		req := wireIngest{}
		for k := 0; k < perPost; k++ {
			req.Frames = append(req.Frames, wireOf(p.pairs[(i+k)%len(p.pairs)].f))
		}
		posts = append(posts, req)
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	var failed error
	decode := p.timedEach("server.decode_ingest", func(i int, _ probeInput) {
		if _, err := server.DecodeIngest(bodies[i], classes); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return fmt.Errorf("probe body rejected: %w", failed)
	}
	p.out["server.decode_us_per_frame"] = 1000 * median(decode) / perPost

	seed := mix(p.e.seed, 2)
	srv, err := server.New(p.e.sys.Detector, p.e.sys.Regressor, server.Config{
		Seed: seed, Workers: 1, Sync: true, Clock: server.NewScriptClock(),
	})
	if err != nil {
		return err
	}
	defer srv.Drain()
	h := srv.Handler()
	serve := func(method, path string, body []byte, want int) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rr.Code != want && failed == nil {
			failed = fmt.Errorf("%s %s: status %d: %s", method, path, rr.Code, rr.Body)
		}
	}
	admit, err := json.Marshal(wireAdmit{Tenant: "probe"})
	if err != nil {
		return err
	}
	serve(http.MethodPost, "/v1/streams", admit, http.StatusCreated)
	scrape := func(name string) float64 {
		return p.timedN(name, 1, func() { serve(http.MethodGet, "/metrics", nil, http.StatusOK) })
	}
	p.out["obs.scrape_ms_first"] = scrape("obs.scrape_first")
	// Each ingest is followed at once by its frames' reference steps, so
	// the two sides of the subtraction see the same machine conditions.
	det, reg := p.e.sys.Detector.Clone(), p.e.sys.Regressor.Clone()
	sess := adascale.NewResilientSession(reg.Kernels, adascale.DefaultResilientConfig())
	self := make([]float64, len(posts))
	for i, post := range posts {
		id := p.rec.begin("server.ingest", 0, i)
		serve(http.MethodPost, "/v1/streams/0/frames", bodies[i], http.StatusAccepted)
		self[i] = ms(p.rec.end(id)) - decode[i]
		id = p.rec.begin("server.ingest.reference_steps", 0, i)
		for k, spec := range post.Frames {
			sess.Step(det, reg, materialise(seed, 0, i*perPost+k, spec))
		}
		self[i] -= ms(p.rec.end(id))
	}
	p.out["obs.scrape_ms_last"] = scrape("obs.scrape_last")
	p.out["server.ingest_self_us_per_frame"] = 1000 * median(self) / perPost
	p.out["server.results_us"] = 1000 * p.timed("server.results", func(int, probeInput) {
		serve(http.MethodGet, "/v1/streams/0/results?from=0", nil, http.StatusOK)
	})
	if failed != nil {
		return failed
	}

	live, err := startHTTP(p.e, 0)
	if err != nil {
		return err
	}
	defer live.stop()
	c := newClient()
	defer c.close()
	const trips = 500
	p.out["server.socket_rtt_us"] = 1000 * p.timedN("server.socket_rtt", trips, func() {
		if status, _, err := c.do(http.MethodGet, live.base+"/healthz", nil); (err != nil || status != http.StatusOK) && failed == nil {
			failed = fmt.Errorf("healthz: status %d: %v", status, err)
		}
	})
	return failed
}
