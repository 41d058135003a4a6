package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Stage identifies one step of the per-frame pipeline. The order is the
// pipeline order: a frame is decoded from the synthetic generator, faults
// are injected, the image is rescaled to the test scale, the backbone +
// detection head run, the scale regressor predicts the next frame's scale,
// and Seq-NMS links detections across frames.
type Stage int

const (
	StageDecode Stage = iota
	StageFaultInject
	StageRescale
	StageDetect
	StageRegress
	StageSeqNMS
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "fault-inject", "rescale", "detect", "regress", "seqnms",
}

// String returns the stage's canonical short name, used in trace files,
// metric names ("stage/<name>/ms") and the bench report's stage map.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Span is one traced stage execution for one frame. Stream and Frame
// identify the frame; StartMS and DurMS are simclock virtual milliseconds,
// the frame's modelled cost decomposed by stage.
type Span struct {
	Stream  int
	Frame   int
	Stage   Stage
	StartMS float64
	DurMS   float64
}

// Tracer collects spans. The zero-value *Tracer (nil) is a valid no-op:
// every method is nil-safe, so instrumented code never branches on
// "tracing enabled".
//
// Every span duration comes from the simclock cost model, so a trace is a
// pure function of the inputs — byte-identical across runs and worker
// counts — and safe to pin as a golden file. Measured wall time is not a
// span's business: the repository benchmark reports it per layer.
//
// Recording is mutex-guarded so per-worker goroutines can add spans
// concurrently; determinism comes from Format sorting spans by
// (stream, frame, stage, start) before rendering, which erases arrival
// order. Workers that buffer locally and Add in bulk get the same result.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// NewTracer creates a tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Add appends a batch of spans in one lock acquisition — the per-worker
// merge path: each worker buffers its snippet's spans locally and adds
// them in bulk, so the tracer sees whole snippets, not interleaved
// fragments. No-op on a nil tracer.
func (t *Tracer) Add(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in canonical order:
// (stream, frame, stage, start). Nil tracer returns nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// Len returns the number of recorded spans (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func sortSpans(s []Span) {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Stream != s[j].Stream {
			return s[i].Stream < s[j].Stream
		}
		if s[i].Frame != s[j].Frame {
			return s[i].Frame < s[j].Frame
		}
		if s[i].Stage != s[j].Stage {
			return s[i].Stage < s[j].Stage
		}
		return s[i].StartMS < s[j].StartMS
	})
}

// Format renders the trace as deterministic text, one line per span in
// canonical order:
//
//	span s003/07 seqnms       start=123.456 dur=1.500
//
// The output is byte-identical across runs and worker counts. Nil tracer
// renders "".
func (t *Tracer) Format() string {
	var b strings.Builder
	for _, s := range t.Spans() {
		fmt.Fprintf(&b, "span s%03d/%02d %-12s start=%.3f dur=%.3f\n", s.Stream, s.Frame, s.Stage, s.StartMS, s.DurMS)
	}
	return b.String()
}

// Breakdown sums span durations per stage, returning total milliseconds
// indexed by Stage. Nil tracer returns a zero array.
func (t *Tracer) Breakdown() [NumStages]float64 {
	var out [NumStages]float64
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Stage >= 0 && s.Stage < NumStages {
			out[s.Stage] += s.DurMS
		}
	}
	return out
}

// FormatBreakdown renders the per-stage totals as deterministic text with
// percentage shares, one line per stage in pipeline order (stages that
// never ran are omitted):
//
//	stage detect       ms=512.000 share=87.4%
func (t *Tracer) FormatBreakdown() string {
	bd := t.Breakdown()
	var total float64
	for _, ms := range bd {
		total += ms
	}
	var b strings.Builder
	for st, ms := range bd {
		if ms == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * ms / total
		}
		fmt.Fprintf(&b, "stage %-12s ms=%.3f share=%.1f%%\n", Stage(st), ms, share)
	}
	return b.String()
}
