package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are taken
// around calls made from the benchmark's own files (in-program tracing is a
// later change), kept in memory and written when the benchmark ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder started
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder collects spans. A nil recorder records nothing, which is how
// the untraced runs call the same code paths with tracing off.
type recorder struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) begin(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: now})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned and reports its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = now
	return r.spans[id-1].dur()
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Overlapping children (parallel
// work under one parent) are counted once; a child reaching outside its
// parent is clipped to it.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), p.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p.ID] = p.dur() - time.Duration(covered)
	}
	return self
}

// writeSpans writes one JSON span per line, each with its self time.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("span file: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := selfTimes(spans)
	for _, s := range spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[s.ID].Nanoseconds()}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
