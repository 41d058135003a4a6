// Package server is the HTTP serving front end over the AdaScale engine:
// the network surface that turns the deterministic virtual-time serving
// core (internal/serve, internal/adascale) into a thing you can curl.
//
// The API is deliberately small and stdlib-only:
//
//	POST /v1/streams                 admit a stream (tenant, SLO, queue)
//	POST /v1/streams/{id}/frames     ingest a batch of frames
//	GET  /v1/streams/{id}/results    read detection outputs + accounting
//	GET  /healthz                    liveness (always 200 while the process lives)
//	GET  /readyz                     readiness (503 once draining)
//	GET  /metrics                    internal/obs registry, Prometheus text format
//
// Middleware layers per-tenant token-bucket rate limiting and stream
// quotas, request logging into the obs registry, and panic-to-503
// recovery; all limits are validated up front with typed ConfigErrors.
//
// Determinism boundary: the only wall-clock dependence in the whole stack
// is the Clock bridge (clock.go) that stamps arrivals. Under a
// ScriptClock every response — including the /metrics body — is a pure
// function of the request script, which is how the handler layer is
// golden-tested with recorded scripts over httptest (internal/regress).
// Graceful drain on SIGTERM follows the same contract as the batch
// scheduler's chaos gate: stop admission, flush every admitted frame
// through the pipeline, and only then close — offered == served + dropped
// holds through shutdown.
package server

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"

	"adascale/internal/adascale"
	"adascale/internal/obs"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
)

// ConfigError is the typed error Validate returns for a rejected server
// configuration — the same shape as serve.ConfigError, so callers treat
// transport misconfiguration and scheduler misconfiguration uniformly.
type ConfigError struct {
	Field  string // the Config field that was rejected
	Reason string // why
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("server: invalid config: %s: %s", e.Field, e.Reason)
}

// RateLimit is the per-tenant token bucket: RPS tokens per virtual second
// refill a bucket of Burst capacity; each admission or ingestion request
// spends one token. RPS 0 disables limiting.
type RateLimit struct {
	RPS   float64
	Burst int
}

// Config parameterises the HTTP server.
type Config struct {
	// Seed drives the deterministic randomness base of ingested frames
	// (synth.NewFrame); for a fixed seed the detections served for a
	// recorded request script are byte-identical.
	Seed int64

	// Workers sizes the real compute pool backing all streams. 0 means
	// parallel.Workers(). It does not enter modelled time: a frame's
	// modelled latency chains on its own stream's busy horizon, as if each
	// stream had a modelled GPU of its own — which is why the per-frame
	// agreement test runs the DES at max(workers, streams).
	Workers int

	// QueueDepth is the default per-stream arrival queue bound (streams
	// may request their own at admission); beyond it the oldest queued
	// frame is dropped. 0 means 8; negative or above MaxQueueDepth is
	// rejected.
	QueueDepth int

	// MaxStreams caps admitted streams across all tenants (0 = unlimited).
	MaxStreams int

	// TenantStreams caps admitted streams per tenant (0 = unlimited).
	TenantStreams int

	// SLOMS is the default per-frame end-to-end latency SLO in virtual ms
	// (0 disables; streams may request their own at admission).
	SLOMS float64

	// Rate is the per-tenant token-bucket rate limit on admission and
	// ingestion requests.
	Rate RateLimit

	// Resilient is each stream's degradation-ladder config. Its only field,
	// DeadlineMS, is overridden per stream by the effective SLO.
	Resilient adascale.ResilientConfig

	// Clock is the transport→virtual-time bridge. nil means a WallClock
	// started at construction; tests install a ScriptClock.
	Clock Clock

	// Sync makes the ingest that starts a stream's runner run it inline in
	// the handler instead of on a goroutine, so the reply comes after the
	// stream's queue is served — the mode the golden tests replay recorded
	// scripts in, where responses must already carry the frame's outcome.
	// An ingest that finds the stream's runner already busy (a concurrent
	// post to the same stream) only queues its frames for that runner.
	Sync bool
}

// MaxQueueDepth caps every stream's arrival queue, whether it comes from
// Config.QueueDepth or a client's admission request, so no client chooses
// how much memory its stream holds. It is what a stream's result log keeps.
const MaxQueueDepth = resultPage * resultPages

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.Clock == nil {
		c.Clock = NewWallClock()
	}
	return c
}

// Validate reports configuration errors. Zero values that mean "default"
// (QueueDepth, Workers, Clock) pass; values that cannot mean
// anything (negative capacities, non-finite or negative rates) and a
// QueueDepth above MaxQueueDepth are rejected with a typed *ConfigError
// naming the field.
func (c *Config) Validate() error {
	if c.Workers < 0 {
		return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("negative worker count %d", c.Workers)}
	}
	if c.QueueDepth < 0 || c.QueueDepth > MaxQueueDepth {
		return &ConfigError{Field: "QueueDepth", Reason: fmt.Sprintf("queue depth %d outside [0, %d]", c.QueueDepth, MaxQueueDepth)}
	}
	if c.MaxStreams < 0 {
		return &ConfigError{Field: "MaxStreams", Reason: fmt.Sprintf("negative MaxStreams %d", c.MaxStreams)}
	}
	if c.TenantStreams < 0 {
		return &ConfigError{Field: "TenantStreams", Reason: fmt.Sprintf("negative TenantStreams %d", c.TenantStreams)}
	}
	if math.IsNaN(c.SLOMS) || math.IsInf(c.SLOMS, 0) || c.SLOMS < 0 {
		return &ConfigError{Field: "SLOMS", Reason: fmt.Sprintf("SLO %v ms is not a usable deadline", c.SLOMS)}
	}
	if math.IsNaN(c.Rate.RPS) || math.IsInf(c.Rate.RPS, 0) || c.Rate.RPS < 0 {
		return &ConfigError{Field: "Rate.RPS", Reason: fmt.Sprintf("rate %v req/s is not a usable rate", c.Rate.RPS)}
	}
	if c.Rate.Burst < 0 {
		return &ConfigError{Field: "Rate.Burst", Reason: fmt.Sprintf("negative burst %d", c.Rate.Burst)}
	}
	if c.Rate.RPS > 0 && c.Rate.Burst == 0 {
		return &ConfigError{Field: "Rate.Burst", Reason: "a rate limit needs a positive burst (a zero-capacity bucket rejects every request)"}
	}
	return nil
}

// Server is the HTTP front end: engine + middleware + routes.
type Server struct {
	cfg     Config
	engine  *engine
	metrics *obs.Metrics
	clock   Clock
	limiter *tenantLimiter
	handler http.Handler

	mu      sync.Mutex
	httpSrv *http.Server
}

// New builds a server for a trained system. The detector and regressor are
// cloned per pool worker; the originals are not touched by serving.
func New(det *rfcn.Detector, reg *regressor.Regressor, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, clock: cfg.Clock}
	s.engine = newEngine(det, reg, cfg)
	s.metrics = s.engine.Metrics
	s.limiter = newTenantLimiter(cfg.Rate, cfg.Clock)
	s.handler = s.routes()
	return s, nil
}

// Metrics returns the registry the server records into. The frame step
// writes it without the registry's lock while streams are served, so read it
// once serving is idle (after Drain, or a Sync-mode ingest); GET /metrics is
// the way to read a serving one.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Handler returns the fully-middlewared HTTP handler — what Serve binds to
// a listener and what the golden tests drive through httptest without one.
func (s *Server) Handler() http.Handler { return s.handler }

// Draining reports whether drain has started (readiness probes flip 503).
func (s *Server) Draining() bool {
	s.engine.mu.Lock()
	defer s.engine.mu.Unlock()
	return s.engine.draining
}

// Drain performs the full graceful drain: stop admission, flush every
// queued and in-flight frame through the pipeline, close the compute
// pool. After Drain, offered == served + dropped on every stream.
func (s *Server) Drain() { s.engine.drain() }

// Stats reports the accounting invariant's terms summed over streams.
func (s *Server) Stats() (offered, served, dropped int) { return s.engine.stats() }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.handler}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Shutdown gracefully drains and stops the listener: admission closes,
// every admitted frame is flushed, then in-flight HTTP requests get until
// ctx's deadline to complete.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}
