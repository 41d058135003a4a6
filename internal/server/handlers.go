package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// Route handlers. Error mapping is uniform: *RequestError → 400,
// ErrNoSuchStream → 404, *QuotaError and rate-limit rejections → 429,
// ErrDraining → 503. Every response body — success or error — is a single
// JSON document terminated by a newline, so recorded transcripts diff
// cleanly.
//
// The two routes a camera client hits per frame, ingest and results,
// allocate only what they return and write encoding/json's bytes without
// calling it (writeBody); the cold routes keep writeJSON.

// errorReply is the JSON body of every non-2xx response.
type errorReply struct {
	Error string `json:"error"`
}

// AdmitRequest is the body of POST /v1/streams.
type AdmitRequest struct {
	Tenant string  `json:"tenant"`
	SLOMS  float64 `json:"slo_ms,omitempty"` // 0 means the server default
	Queue  int     `json:"queue,omitempty"`  // 0 means the server default
}

// AdmitReply acknowledges an admitted stream.
type AdmitReply struct {
	StreamID int     `json:"stream_id"`
	Tenant   string  `json:"tenant"`
	SLOMS    float64 `json:"slo_ms"`
	Queue    int     `json:"queue"`
}

// jsonContentType is shared so that setting it allocates nothing; net/http
// only reads it.
var jsonContentType = []string{"application/json"}

// writeJSON writes v as the complete response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // Encode appends the trailing newline transcripts rely on
}

// writeBody writes an already encoded JSON reply with the given status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError writes a uniform JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorReply{Error: msg})
}

// writeEngineError maps engine and decode errors onto HTTP statuses.
func writeEngineError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	var quotaErr *QuotaError
	switch {
	case errors.As(err, &reqErr):
		writeError(w, http.StatusBadRequest, reqErr.Error())
	case errors.As(err, &quotaErr):
		writeError(w, http.StatusTooManyRequests, quotaErr.Error())
	case errors.Is(err, ErrNoSuchStream):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// requestBody is a pooled body buffer; a handler releases it once nothing
// it decoded or wrote refers to it.
type requestBody struct {
	bytes.Buffer
	lim io.LimitedReader
}

var bodyPool = sync.Pool{New: func() any { return new(requestBody) }}

// readBody reads a bounded request body; too-large bodies become 400s via
// the typed error path (net/http's MaxBytesError text) rather than
// connection resets.
func readBody(r *http.Request) (*requestBody, error) {
	b := bodyPool.Get().(*requestBody)
	b.Reset()
	b.lim = io.LimitedReader{R: r.Body, N: maxBodyBytes + 1}
	_, err := b.ReadFrom(&b.lim)
	if b.lim.R = nil; err == nil && b.Len() > maxBodyBytes {
		err = &http.MaxBytesError{Limit: maxBodyBytes}
	}
	if err != nil {
		b.release()
		return nil, &RequestError{Field: "body", Reason: err.Error()}
	}
	return b, nil
}

// release returns b to the pool, unless a rare large body grew it.
func (b *requestBody) release() {
	if b.Cap() <= 64<<10 {
		bodyPool.Put(b)
	}
}

// routes assembles the one ServeMux. API routes are logged and rate
// limited; the probes and /metrics stay outside the rate limiter so a
// throttled tenant cannot starve health checking or scraping.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/streams", s.rateLimit(s.handleAdmit))
	mux.Handle("POST /v1/streams/{id}/frames", s.rateLimit(s.handleFrames))
	mux.Handle("GET /v1/streams/{id}/results", s.rateLimit(s.handleResults))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.recoverMiddleware(s.logMiddleware(mux))
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	var req AdmitRequest
	err = json.Unmarshal(body.Bytes(), &req)
	body.release()
	if err != nil {
		writeEngineError(w, &RequestError{Field: "body", Reason: err.Error()})
		return
	}
	if req.Tenant == "" {
		writeEngineError(w, &RequestError{Field: "tenant", Reason: "empty tenant"})
		return
	}
	if math.IsNaN(req.SLOMS) || math.IsInf(req.SLOMS, 0) || req.SLOMS < 0 {
		writeEngineError(w, &RequestError{Field: "slo_ms", Reason: "not a usable deadline"})
		return
	}
	if req.Queue < 0 || req.Queue > MaxQueueDepth {
		writeEngineError(w, &RequestError{Field: "queue", Reason: fmt.Sprintf("queue depth %d outside [0, %d]", req.Queue, MaxQueueDepth)})
		return
	}
	id, effSLO, effQueue, err := s.engine.admit(req.Tenant, req.SLOMS, req.Queue)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, AdmitReply{
		StreamID: id,
		Tenant:   req.Tenant,
		SLOMS:    effSLO,
		Queue:    effQueue,
	})
}

func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeEngineError(w, &RequestError{Field: "id", Reason: "stream id is not an integer"})
		return
	}
	body, err := readBody(r)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	defer body.release()
	req, err := DecodeIngest(body.Bytes(), s.engine.numClasses)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	reply, err := s.engine.ingest(id, req.Frames)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	body.Reset() // nothing decoded aliases the body: its buffer takes the reply
	writeBody(w, http.StatusAccepted, reply.appendJSON(body.AvailableBuffer()))
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeEngineError(w, &RequestError{Field: "id", Reason: "stream id is not an integer"})
		return
	}
	from := 0
	if v := queryValue(r.URL.RawQuery, "from"); v != "" {
		from, err = strconv.Atoi(v)
		if err != nil || from < 0 {
			writeEngineError(w, &RequestError{Field: "from", Reason: "not a non-negative integer"})
			return
		}
	}
	reply, err := s.engine.results(id, from)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeBody(w, http.StatusOK, reply)
}

// queryValue is url.ParseQuery(raw).Get(key) without the map: pairs split
// on '&', and one holding ';' or failing to unescape is skipped.
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, s.engine.prometheus("adascale"))
}
