package server

import (
	"fmt"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
)

// Middleware for the serving front end. The chain, outermost first, is
// recovery (every route) → logging (API paths) → the one router → rate
// limiting (each API route): a panic anywhere below becomes a 503 instead
// of a dead connection, every API request lands in the obs registry
// whatever its fate, and each API route throttles its tenant before the
// request touches the engine. Limiting after routing lets a stream-scoped
// route read its stream ID.

// recoverMiddleware converts handler panics into 503 responses and counts
// them, mirroring the compute pool's panic containment: one bad request
// must not take down the server or silently close the connection.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.Inc("http/panic", 1)
				writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("internal panic: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// statusRecorder captures the status code a handler wrote so the logging
// middleware can bucket it after the fact. One is pooled per request.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// logMiddleware records every API request into the obs registry: a total
// counter, a per-status-class counter, and (under a deterministic clock)
// nothing that would perturb golden replays — virtual timestamps come from
// the same bridge as frame arrivals, so no wall time leaks in.
func (s *Server) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !apiRequest(r) {
			next.ServeHTTP(w, r)
			return
		}
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		next.ServeHTTP(rec, r)
		s.metrics.Inc("http/requests", 1)
		s.metrics.Inc(statusKeys[min(rec.status/100, len(statusKeys)-1)], 1)
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
	})
}

// apiRequest reports whether the logger counts r: an API path (/v1/…) that
// the router does not first redirect to its clean form, which it does not
// do for CONNECT. (A trailing slash is clean to the router, not path.Clean.)
func apiRequest(r *http.Request) bool {
	p := r.URL.EscapedPath()
	return strings.HasPrefix(p, "/v1/") && (r.Method == http.MethodConnect || path.Clean(p) == strings.TrimSuffix(p, "/"))
}

// statusKeys are the per-status-class counter names by status/100, so a
// request does not format one (net/http refuses codes below 100; one above
// 599, which no handler here writes, would count as 5xx).
var statusKeys = [6]string{
	"http/status/0xx", "http/status/1xx", "http/status/2xx",
	"http/status/3xx", "http/status/4xx", "http/status/5xx",
}

// tenantLimiter applies a token bucket per tenant, refilled from the clock
// bridge. Virtual time, not wall time, drives refill — so under a
// ScriptClock the limiter's decisions are part of the recorded script,
// and under a WallClock it behaves like any production limiter.
type tenantLimiter struct {
	rate  RateLimit
	clock Clock

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64 // current fill, <= Burst
	lastMS float64 // virtual instant of the last refill
}

func newTenantLimiter(rate RateLimit, clock Clock) *tenantLimiter {
	return &tenantLimiter{rate: rate, clock: clock, buckets: make(map[string]*bucket)}
}

// allow spends one token from tenant's bucket, reporting whether one was
// available. Only a limiter with a positive RPS is asked.
func (l *tenantLimiter) allow(tenant string) bool {
	now := l.clock.NowMS()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		// A new tenant starts with a full burst.
		b = &bucket{tokens: float64(l.rate.Burst), lastMS: now}
		l.buckets[tenant] = b
	}
	refill := float64((now - b.lastMS) / 1000 * l.rate.RPS)
	if refill > 0 {
		b.tokens += refill
		if max := float64(l.rate.Burst); b.tokens > max {
			b.tokens = max
		}
		b.lastMS = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// rateLimit throttles one API route per tenant (chargedTenant says whom).
func (s *Server) rateLimit(next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tenant, ok := s.chargedTenant(r); ok && !s.limiter.allow(tenant) {
			s.metrics.Inc("ratelimit/throttled", 1)
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		next(w, r)
	})
}

// chargedTenant names the tenant a request is charged to, if any. A
// stream-scoped route (an {id} in its pattern) is charged to the stream's
// admitting tenant, so a client cannot leave its tenant's bucket by omitting
// or forging X-Tenant; an ID that names no stream is not charged and reaches
// the handler's 400/404. Admission is charged to the X-Tenant header (the
// body's tenant is not read here), so header-less admissions share the ""
// bucket. With the limiter off nobody is charged.
func (s *Server) chargedTenant(r *http.Request) (string, bool) {
	if s.limiter.rate.RPS <= 0 {
		return "", false
	}
	v := r.PathValue("id")
	if v == "" {
		return r.Header.Get("X-Tenant"), true
	}
	id, err := strconv.Atoi(v)
	if err != nil {
		return "", false
	}
	return s.engine.tenantOf(id)
}
