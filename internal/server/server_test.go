package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/synth"
)

var (
	buildOnce sync.Once
	sharedSys *adascale.System
)

// system builds one small trained system shared across the package's tests.
func system(t *testing.T) *adascale.System {
	t.Helper()
	buildOnce.Do(func() {
		cfg := synth.VIDLike(5)
		ds, err := synth.Generate(cfg, 12, 6)
		if err != nil {
			t.Fatal(err)
		}
		sharedSys = adascale.Build(ds, adascale.DefaultBuildConfig())
	})
	return sharedSys
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	sys := system(t)
	srv, err := New(sys.Detector, sys.Regressor, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// do drives one request through the full middleware chain.
func do(t *testing.T, srv *Server, method, path, tenant, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// admit admits a stream and returns its ID.
func admit(t *testing.T, srv *Server, tenant string) int {
	t.Helper()
	rec := do(t, srv, "POST", "/v1/streams", tenant, fmt.Sprintf(`{"tenant":%q}`, tenant))
	if rec.Code != http.StatusCreated {
		t.Fatalf("admit status = %d, body %s", rec.Code, rec.Body)
	}
	var reply AdmitReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	return reply.StreamID
}

// frameBody is a minimal valid one-frame ingestion body.
const frameBody = `{"frames":[{"w":320,"h":240,"objects":[{"id":1,"class":0,"x1":40,"y1":40,"x2":120,"y2":120}]}]}`

// TestConfigValidate is the table-driven contract for the typed
// ConfigError validation of the rate-limit and quota knobs.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		wantField string // "" means valid
	}{
		{"zero value ok", Config{}, ""},
		{"defaults ok", Config{Workers: 2, QueueDepth: 4, SLOMS: 80, Rate: RateLimit{RPS: 10, Burst: 5}}, ""},
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"negative queue depth", Config{QueueDepth: -3}, "QueueDepth"},
		{"queue depth above cap", Config{QueueDepth: MaxQueueDepth + 1}, "QueueDepth"},
		{"queue depth at cap ok", Config{QueueDepth: MaxQueueDepth}, ""},
		{"negative max streams", Config{MaxStreams: -1}, "MaxStreams"},
		{"negative tenant quota", Config{TenantStreams: -2}, "TenantStreams"},
		{"negative slo", Config{SLOMS: -10}, "SLOMS"},
		{"nan slo", Config{SLOMS: math.NaN()}, "SLOMS"},
		{"inf slo", Config{SLOMS: math.Inf(1)}, "SLOMS"},
		{"negative rate", Config{Rate: RateLimit{RPS: -1, Burst: 1}}, "Rate.RPS"},
		{"nan rate", Config{Rate: RateLimit{RPS: math.NaN(), Burst: 1}}, "Rate.RPS"},
		{"inf rate", Config{Rate: RateLimit{RPS: math.Inf(1), Burst: 1}}, "Rate.RPS"},
		{"negative burst", Config{Rate: RateLimit{Burst: -1}}, "Rate.Burst"},
		{"rate without burst", Config{Rate: RateLimit{RPS: 5}}, "Rate.Burst"},
		{"burst without rate ok", Config{Rate: RateLimit{Burst: 5}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var cerr *ConfigError
			if !errors.As(err, &cerr) {
				t.Fatalf("Validate() = %v, want *ConfigError", err)
			}
			if cerr.Field != tc.wantField {
				t.Fatalf("ConfigError.Field = %q, want %q", cerr.Field, tc.wantField)
			}
			if !strings.Contains(cerr.Error(), tc.wantField) {
				t.Fatalf("Error() %q does not name the field", cerr.Error())
			}
		})
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	sys := system(t)
	if _, err := New(sys.Detector, sys.Regressor, Config{Workers: -1}); err == nil {
		t.Fatal("New accepted a negative worker count")
	}
}

// TestEmptyTenantRejected pins the typed 400 for admission with no tenant.
func TestEmptyTenantRejected(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	rec := do(t, srv, "POST", "/v1/streams", "", `{"tenant":""}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "tenant") {
		t.Fatalf("error body %q does not name the tenant field", rec.Body)
	}
}

// TestAdmitQueueCapped pins the typed 400 for a client asking for a queue
// deeper than MaxQueueDepth: the stream is not admitted, and a request at
// the cap still is.
func TestAdmitQueueCapped(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	for _, q := range []int{MaxQueueDepth + 1, 1 << 30} {
		rec := do(t, srv, "POST", "/v1/streams", "cam", fmt.Sprintf(`{"tenant":"cam","queue":%d}`, q))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("queue %d: status = %d, want 400", q, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "queue") {
			t.Fatalf("queue %d: error body %q does not name the queue field", q, rec.Body)
		}
	}
	if got := srv.Metrics().Counter("sessions/accepted"); got != 0 {
		t.Fatalf("sessions/accepted = %d after rejected admissions, want 0", got)
	}
	rec := do(t, srv, "POST", "/v1/streams", "cam", fmt.Sprintf(`{"tenant":"cam","queue":%d}`, MaxQueueDepth))
	if rec.Code != http.StatusCreated {
		t.Fatalf("queue at the cap: status = %d, want 201", rec.Code)
	}
}

// TestServeEndToEnd walks the happy path through the full chain: admit,
// ingest, read results, scrape metrics.
func TestServeEndToEnd(t *testing.T) {
	clock := NewScriptClock()
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: clock, SLOMS: 1000})
	id := admit(t, srv, "cam")

	rec := do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", id), "cam", frameBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest status = %d, body %s", rec.Code, rec.Body)
	}
	var ing IngestReply
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != 1 || ing.Dropped != 0 || ing.Queued != 0 {
		t.Fatalf("ingest reply = %+v, want 1 accepted, 0 dropped, 0 queued (sync)", ing)
	}

	rec = do(t, srv, "GET", fmt.Sprintf("/v1/streams/%d/results", id), "cam", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("results status = %d", rec.Code)
	}
	var res ResultsReply
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 || len(res.Results) != 1 {
		t.Fatalf("results = %+v, want one served frame", res)
	}
	if res.Results[0].Scale <= 0 {
		t.Fatalf("served frame has no scale: %+v", res.Results[0])
	}

	rec = do(t, srv, "GET", "/metrics", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	for _, want := range []string{"adascale_frames_served 1", "# TYPE adascale_frames_served counter"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics body missing %q:\n%s", want, rec.Body)
		}
	}
}

// TestMetricsFamiliesIndependentOfStreamCount: the /metrics family set
// after serving one stream is the family set after serving eight — the
// registry names what the server does, never which streams it did it for.
// Each stream serves one frame, at the session's initial scale, so the
// served-scale family is the same at both counts.
func TestMetricsFamiliesIndependentOfStreamCount(t *testing.T) {
	families := func(streams int) []string {
		srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock(), SLOMS: 1000})
		for range streams {
			id := admit(t, srv, "cam")
			if rec := do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", id), "cam", frameBody); rec.Code != http.StatusAccepted {
				t.Fatalf("ingest status = %d, body %s", rec.Code, rec.Body)
			}
		}
		var out []string
		for _, line := range strings.Split(do(t, srv, "GET", "/metrics", "", "").Body.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				out = append(out, name)
			}
		}
		return out
	}
	one, eight := families(1), families(8)
	if !slices.Equal(one, eight) {
		t.Fatalf("/metrics families differ with the stream count:\n1 stream:  %v\n8 streams: %v", one, eight)
	}
}

// TestResultsFromOffset pins the from= pagination contract.
func TestResultsFromOffset(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	id := admit(t, srv, "cam")
	for i := 0; i < 3; i++ {
		if rec := do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", id), "cam", frameBody); rec.Code != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d", i, rec.Code)
		}
	}
	rec := do(t, srv, "GET", fmt.Sprintf("/v1/streams/%d/results?from=2", id), "cam", "")
	var res ResultsReply
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.From != 2 || len(res.Results) != 1 || res.Served != 3 {
		t.Fatalf("results from=2: %+v", res)
	}
	if res.Results[0].Index != 2 {
		t.Fatalf("paged result has index %d, want 2", res.Results[0].Index)
	}
	if rec := do(t, srv, "GET", fmt.Sprintf("/v1/streams/%d/results?from=-1", id), "cam", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative from: status %d, want 400", rec.Code)
	}
}

// TestErrorMapping pins the HTTP status for each error family.
func TestErrorMapping(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	if rec := do(t, srv, "POST", "/v1/streams/99/frames", "cam", frameBody); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown stream: status %d, want 404", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/streams/notanint/results", "cam", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", rec.Code)
	}
	id := admit(t, srv, "cam")
	if rec := do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", id), "cam", `{"frames":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", rec.Code)
	}
	if rec := do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", id), "cam", `not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json: status %d, want 400", rec.Code)
	}
}

// TestQuotas pins both admission-control rejections as 429s.
func TestQuotas(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock(), MaxStreams: 2, TenantStreams: 1})
	admit(t, srv, "a")
	if rec := do(t, srv, "POST", "/v1/streams", "a", `{"tenant":"a"}`); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant quota: status %d, want 429", rec.Code)
	}
	admit(t, srv, "b")
	if rec := do(t, srv, "POST", "/v1/streams", "c", `{"tenant":"c"}`); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("capacity: status %d, want 429", rec.Code)
	}
	if got := srv.Metrics().Counter("admission/rejected_quota"); got != 1 {
		t.Fatalf("admission/rejected_quota = %d, want 1", got)
	}
	if got := srv.Metrics().Counter("admission/rejected_capacity"); got != 1 {
		t.Fatalf("admission/rejected_capacity = %d, want 1", got)
	}
}

// TestRateLimit drives the token bucket with a scripted clock: a tenant
// with burst 2 gets two requests, is throttled, then recovers exactly when
// virtual time has refilled one token — and a second tenant is unaffected.
func TestRateLimit(t *testing.T) {
	clock := NewScriptClock()
	srv := newServer(t, Config{
		Workers: 1, Sync: true, Clock: clock,
		Rate: RateLimit{RPS: 1, Burst: 2},
	})
	id := admit(t, srv, "a") // spends token 1
	path := fmt.Sprintf("/v1/streams/%d/frames", id)
	if rec := do(t, srv, "POST", path, "a", frameBody); rec.Code != http.StatusAccepted {
		t.Fatalf("second request: status %d, want 202", rec.Code)
	}
	if rec := do(t, srv, "POST", path, "a", frameBody); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("bucket empty: status %d, want 429", rec.Code)
	}
	if got := srv.Metrics().Counter("ratelimit/throttled"); got != 1 {
		t.Fatalf("ratelimit/throttled = %d, want 1", got)
	}
	// Another tenant has its own bucket.
	if rec := do(t, srv, "POST", "/v1/streams", "b", `{"tenant":"b"}`); rec.Code != http.StatusCreated {
		t.Fatalf("tenant b: status %d, want 201", rec.Code)
	}
	// One virtual second refills one token for tenant a.
	clock.AdvanceTo(1000)
	if rec := do(t, srv, "POST", path, "a", frameBody); rec.Code != http.StatusAccepted {
		t.Fatalf("after refill: status %d, want 202", rec.Code)
	}
	// Probes and scrapes bypass the limiter even for a throttled tenant.
	if rec := do(t, srv, "POST", path, "a", frameBody); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("bucket empty again: status %d, want 429", rec.Code)
	}
	for _, p := range []string{"/healthz", "/metrics"} {
		if rec := do(t, srv, "GET", p, "a", ""); rec.Code != http.StatusOK {
			t.Fatalf("%s throttled: status %d, want 200", p, rec.Code)
		}
	}
}

// TestRateLimitChargesStreamTenant: a stream-scoped route is charged to
// the tenant that admitted the stream, whatever X-Tenant the request sends,
// so dropping or forging the header does not escape a throttled bucket. An
// unknown stream ID is not charged and gets the handler's 404.
func TestRateLimitChargesStreamTenant(t *testing.T) {
	srv := newServer(t, Config{
		Workers: 1, Sync: true, Clock: NewScriptClock(),
		Rate: RateLimit{RPS: 1, Burst: 2},
	})
	id := admit(t, srv, "a") // spends a's token 1
	frames := fmt.Sprintf("/v1/streams/%d/frames", id)
	if rec := do(t, srv, "POST", frames, "", frameBody); rec.Code != http.StatusAccepted {
		t.Fatalf("header-less post on a's last token: status %d, want 202", rec.Code)
	}
	for _, tenant := range []string{"a", "", "spoof"} {
		if rec := do(t, srv, "POST", frames, tenant, frameBody); rec.Code != http.StatusTooManyRequests {
			t.Fatalf("post with X-Tenant %q to throttled a's stream: status %d, want 429", tenant, rec.Code)
		}
	}
	if rec := do(t, srv, "GET", fmt.Sprintf("/v1/streams/%d/results", id), "spoof", ""); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("results for throttled a's stream: status %d, want 429", rec.Code)
	}
	for _, path := range []string{"/v1/streams/99/frames", "/v1/streams/x/frames"} {
		if rec := do(t, srv, "POST", path, "a", frameBody); rec.Code == http.StatusTooManyRequests {
			t.Fatalf("%s for throttled a: 429, want the handler's own error", path)
		}
	}
	if got := srv.Metrics().Counter("ratelimit/throttled"); got != 4 {
		t.Fatalf("ratelimit/throttled = %d, want 4", got)
	}
}

// TestQueueDropOldest pins bounded-queue accounting through the HTTP
// surface: overflowing a depth-2 queue drops the oldest frames and reports
// them in both the reply and the registry.
func TestQueueDropOldest(t *testing.T) {
	clock := NewScriptClock()
	// Async server: the whole batch is offered before the stream's runner
	// starts, so a 5-frame batch into a depth-2 queue drops at least 3.
	// Drain later — here we only check the push-side accounting.
	srv := newServer(t, Config{Workers: 1, Clock: clock, QueueDepth: 2})
	rec := do(t, srv, "POST", "/v1/streams", "cam", `{"tenant":"cam","queue":2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("admit: %d", rec.Code)
	}
	var ad AdmitReply
	if err := json.Unmarshal(rec.Body.Bytes(), &ad); err != nil {
		t.Fatal(err)
	}
	frames := `{"frames":[` + strings.Repeat(`{"w":64,"h":64},`, 4) + `{"w":64,"h":64}]}`
	rec = do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", ad.StreamID), "cam", frames)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	var ing IngestReply
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != 5 || ing.Dropped < 3 {
		t.Fatalf("ingest reply %+v: want 5 accepted with >=3 dropped at depth 2", ing)
	}
	srv.Drain()
	offered, served, dropped := srv.Stats()
	if offered != 5 || offered != served+dropped {
		t.Fatalf("accounting: offered=%d served=%d dropped=%d", offered, served, dropped)
	}
}

// TestDrainInvariant is the zero-loss shutdown gate in async mode: many
// tenants ingesting concurrently, drain mid-flight, and every admitted
// frame must be accounted served or dropped — offered == served + dropped —
// with post-drain traffic refused.
func TestDrainInvariant(t *testing.T) {
	srv := newServer(t, Config{Workers: 4, SLOMS: 500})
	const streams = 4
	ids := make([]int, streams)
	for i := range ids {
		ids[i] = admit(t, srv, fmt.Sprintf("t%d", i))
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Post-drain rejections are fine; accepted frames must not be lost.
				do(t, srv, "POST", fmt.Sprintf("/v1/streams/%d/frames", id), "x", frameBody)
			}
		}(id)
	}
	wg.Wait()
	srv.Drain()
	offered, served, dropped := srv.Stats()
	if offered == 0 {
		t.Fatal("no frames offered; test drove nothing")
	}
	if offered != served+dropped {
		t.Fatalf("drain lost frames: offered=%d served=%d dropped=%d lost=%d",
			offered, served, dropped, offered-served-dropped)
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if rec := do(t, srv, "POST", "/v1/streams", "late", `{"tenant":"late"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain admission: status %d, want 503", rec.Code)
	}
	if rec := do(t, srv, "GET", "/readyz", "", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz: status %d, want 503", rec.Code)
	}
	// Results stay readable after drain.
	if rec := do(t, srv, "GET", fmt.Sprintf("/v1/streams/%d/results", ids[0]), "x", ""); rec.Code != http.StatusOK {
		t.Fatalf("post-drain results: status %d, want 200", rec.Code)
	}
}

// TestProbes pins the liveness/readiness split.
func TestProbes(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	if rec := do(t, srv, "GET", "/healthz", "", ""); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body)
	}
	if rec := do(t, srv, "GET", "/readyz", "", ""); rec.Code != http.StatusOK || rec.Body.String() != "ready\n" {
		t.Fatalf("readyz: %d %q", rec.Code, rec.Body)
	}
	srv.engine.stopAdmission() // the front door closes; queued frames still flow
	if rec := do(t, srv, "GET", "/healthz", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness is not readiness)", rec.Code)
	}
	if rec := do(t, srv, "GET", "/readyz", "", ""); rec.Code != http.StatusServiceUnavailable || rec.Body.String() != "draining\n" {
		t.Fatalf("readyz while draining: %d %q", rec.Code, rec.Body)
	}
	srv.Drain()
}

// TestRecoverMiddleware pins panic-to-503: a handler panic becomes a JSON
// 503 and a counter, not a dead connection.
func TestRecoverMiddleware(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	boom := srv.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("panic status = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "boom") {
		t.Fatalf("panic body %q does not carry the cause", rec.Body)
	}
	if got := srv.Metrics().Counter("http/panic"); got != 1 {
		t.Fatalf("http/panic = %d, want 1", got)
	}
}

// TestRequestLogging pins that the logging middleware buckets statuses.
func TestRequestLogging(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	admit(t, srv, "cam")
	do(t, srv, "POST", "/v1/streams/99/frames", "cam", frameBody) // 404
	m := srv.Metrics()
	if got := m.Counter("http/requests"); got != 2 {
		t.Fatalf("http/requests = %d, want 2", got)
	}
	if m.Counter("http/status/2xx") != 1 || m.Counter("http/status/4xx") != 1 {
		t.Fatalf("status buckets: 2xx=%d 4xx=%d, want 1 and 1",
			m.Counter("http/status/2xx"), m.Counter("http/status/4xx"))
	}
}

// TestSyncReplayDeterministic replays the same script twice against fresh
// servers and requires byte-identical transcripts — the property the
// committed goldens in internal/regress build on.
func TestSyncReplayDeterministic(t *testing.T) {
	script := `# two-stream replay
POST /v1/streams tenant=cam
{"tenant":"cam","slo_ms":500}

@40
POST /v1/streams/0/frames tenant=cam
{"frames":[{"w":320,"h":240,"objects":[{"id":1,"class":0,"x1":30,"y1":30,"x2":110,"y2":128}]}]}

@90
GET /v1/streams/0/results tenant=cam

DRAIN
GET /metrics
`
	run := func() string {
		clock := NewScriptClock()
		srv := newServer(t, Config{Workers: 1, Sync: true, Clock: clock, Seed: 11})
		out, err := srv.ReplayScript(script, clock)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay transcripts diverge:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{"### DRAIN", "lost=0", "### GET /metrics", "adascale_frames_served 1"} {
		if !strings.Contains(a, want) {
			t.Fatalf("transcript missing %q:\n%s", want, a)
		}
	}
}

// TestResultLogTailAcrossPages pins the paged ring of encoded results
// against a flat list of the same bytes: every offset's tail, including
// offsets on and either side of a page boundary and offsets already retired
// (answered from the oldest entry kept), is the JSON array of exactly those
// results, within the length tailLen sized it for; the empty tail is `[]`,
// the caught-up reader's array, never null.
func TestResultLogTailAcrossPages(t *testing.T) {
	var l resultLog
	var want [][]byte
	for i := 0; i <= (resultPages+2)*resultPage+3; i++ {
		if i > resultPages*resultPage && (i-l.base > resultPages*resultPage || i-l.base < (resultPages-1)*resultPage) {
			t.Fatalf("n=%d: ring holds %d results, want %d–%d", i, i-l.base, (resultPages-1)*resultPage, resultPages*resultPage)
		}
		for _, from := range []int{0, i / 2, resultPage - 1, resultPage, resultPage + 1, i - resultPage, i} {
			from = min(max(from, l.base), i) // what engine.results clamps to
			got := l.appendTail(nil, from)
			exp := "[" + string(bytes.Join(want[from:], []byte(","))) + "]"
			if string(got) != exp {
				t.Fatalf("n=%d from=%d: tail %.60q…, want %.60q…", i, from, got, exp)
			}
			if len(got) > l.tailLen(from) {
				t.Fatalf("n=%d from=%d: tail is %d bytes, sized for %d", i, from, len(got), l.tailLen(from))
			}
		}
		r := []byte(fmt.Sprintf(`{"index":%d}`, i))
		l.append(r, false)
		want = append(want, r)
	}
}

// TestSlowReaderAcrossRetirement: a reader that polls once after more than
// a ring of frames were served gets the retained tail, is told where it
// starts (From > the offset asked: the gap), continues from there without a
// hole or a repeat, and the stream's accounting never notices.
func TestSlowReaderAcrossRetirement(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	id := admit(t, srv, "cam")
	const total = resultPages*resultPage + 10
	for i := 0; i < total; i++ {
		if _, err := srv.engine.ingest(id, []FrameSpec{{W: 64, H: 48}}); err != nil {
			t.Fatal(err)
		}
	}
	res := engineResults(t, srv, id, 5)
	if res.From != resultPage || len(res.Results) != total-resultPage || res.Results[0].Index != resultPage {
		t.Fatalf("slow reader: from=%d, %d results starting at frame %d; want the gap answer from=%d",
			res.From, len(res.Results), res.Results[0].Index, resultPage)
	}
	if res.Offered != total || res.Served+res.Dropped != total {
		t.Fatalf("conservation broken by retirement: offered %d served %d dropped %d", res.Offered, res.Served, res.Dropped)
	}
	next := engineResults(t, srv, id, res.From+len(res.Results))
	if next.From != total || next.Results == nil || len(next.Results) != 0 {
		t.Fatalf("caught-up reader: from=%d, %d results (nil %v)", next.From, len(next.Results), next.Results == nil)
	}
}

// TestRoutingMisses pins what a request no route serves gets: the status,
// the Allow header of a 405, the body net/http writes, and whether the
// request logger counts it (http/requests and its status class). API paths
// (/v1/…) are counted whatever their fate; a path the router first
// redirects to its clean form is not, and neither is a miss outside /v1/.
func TestRoutingMisses(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, Sync: true, Clock: NewScriptClock()})
	admit(t, srv, "cam")
	const (
		notAllowed = "Method Not Allowed\n"
		notFound   = "404 page not found\n"
	)
	cases := []struct {
		method, path string
		status       int
		allow, body  string
		logged       bool
	}{
		{"GET", "/v1/streams", 405, "POST", notAllowed, true},
		{"POST", "/v1/streams/0/results", 405, "GET, HEAD", notAllowed, true},
		{"DELETE", "/v1/streams/0/frames", 405, "POST", notAllowed, true},
		{"GET", "/v1/nope", 404, "", notFound, true},
		{"GET", "/v1/", 404, "", notFound, true},
		{"GET", "/v1/streams/0/results/", 404, "", notFound, true},
		{"GET", "/v1//streams", 301, "", `<a href="/v1/streams">Moved Permanently</a>.` + "\n\n", false},
		{"POST", "/v1//streams", 301, "", "", false},
		{"GET", "/v1/streams/0/./results", 301, "", `<a href="/v1/streams/0/results">Moved Permanently</a>.` + "\n\n", false},
		{"POST", "/healthz", 405, "GET, HEAD", notAllowed, false},
		{"GET", "/nope", 404, "", notFound, false},
		{"GET", "/metrics/", 404, "", notFound, false},
	}
	m := srv.Metrics()
	class := func(status int) string { return fmt.Sprintf("http/status/%dxx", status/100) }
	for _, tc := range cases {
		requests, inClass := m.Counter("http/requests"), m.Counter(class(tc.status))
		rec := do(t, srv, tc.method, tc.path, "cam", "")
		if rec.Code != tc.status || rec.Header().Get("Allow") != tc.allow || rec.Body.String() != tc.body {
			t.Errorf("%s %s: %d Allow %q body %q; want %d Allow %q body %q",
				tc.method, tc.path, rec.Code, rec.Header().Get("Allow"), rec.Body, tc.status, tc.allow, tc.body)
		}
		want := int64(0)
		if tc.logged {
			want = 1
		}
		if got := m.Counter("http/requests") - requests; got != want {
			t.Errorf("%s %s: http/requests moved by %d, want %d", tc.method, tc.path, got, want)
		}
		if got := m.Counter(class(tc.status)) - inClass; got != want {
			t.Errorf("%s %s: %s moved by %d, want %d", tc.method, tc.path, class(tc.status), got, want)
		}
	}
}
