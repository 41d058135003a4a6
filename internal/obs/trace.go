package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage identifies one step of the per-frame pipeline. The order is the
// pipeline order: a frame is decoded from the synthetic generator, faults
// are injected, the image is rescaled to the test scale, the backbone +
// detection head run, the scale regressor predicts the next frame's scale,
// Seq-NMS links detections across frames, and evaluation scores the
// output.
type Stage int

const (
	StageDecode Stage = iota
	StageFaultInject
	StageRescale
	StageDetect
	StageRegress
	StageSeqNMS
	StageEval
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "fault-inject", "rescale", "detect", "regress", "seqnms", "eval",
}

// String returns the stage's canonical short name, used in trace files,
// metric names ("stage/<name>/ms") and the bench report's stage map.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// StageNames returns the canonical stage names in pipeline order.
func StageNames() []string {
	out := make([]string, NumStages)
	for i := range stageNames {
		out[i] = stageNames[i]
	}
	return out
}

// Span is one traced stage execution for one frame. Stream and Frame
// identify the frame (-1/-1 marks a whole-dataset aggregate such as the
// eval pass); StartMS and DurMS are milliseconds on the tracer's clock —
// simclock virtual time in the default deterministic mode, wall time in
// wall mode.
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
// In the default virtual-time mode every span duration comes from the
// simclock cost model, so a trace is a pure function of the inputs —
// byte-identical across runs and worker counts — and safe to pin as a
// golden file. In wall-clock mode (NewWallTracer, the -trace-wall flag)
// SinceMS returns real elapsed time for the stages that do real compute;
// the resulting trace is a profiling aid for hardware and is explicitly
// not deterministic.
//
// Recording is mutex-guarded so per-worker goroutines can add spans
// concurrently; determinism comes from Format sorting spans by
// (stream, frame, stage, start) before rendering, which erases arrival
// order. Workers that buffer locally and Add in bulk get the same result.
type Tracer struct {
	mu    sync.Mutex
	wall  bool
	spans []Span
}

// NewTracer creates a deterministic virtual-time tracer.
func NewTracer() *Tracer { return &Tracer{} }

// NewWallTracer creates a wall-clock tracer for profiling on hardware.
// Its traces are NOT deterministic; never pin them as goldens.
func NewWallTracer() *Tracer { return &Tracer{wall: true} }

// Wall reports whether the tracer is in wall-clock mode (false for nil).
func (t *Tracer) Wall() bool { return t != nil && t.wall }

// Record appends one span. No-op on a nil tracer.
func (t *Tracer) Record(stream, frame int, stage Stage, startMS, durMS float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stream: stream, Frame: frame, Stage: stage, StartMS: startMS, DurMS: durMS})
	t.mu.Unlock()
}

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
// Aggregate spans (Stream/Frame == -1) render the ids as "agg". In
// virtual-time mode the output is byte-identical across runs and worker
// counts. Nil tracer renders "".
func (t *Tracer) Format() string {
	var b strings.Builder
	for _, s := range t.Spans() {
		id := fmt.Sprintf("s%03d/%02d", s.Stream, s.Frame)
		if s.Stream < 0 && s.Frame < 0 {
			id = "agg    "
		}
		fmt.Fprintf(&b, "span %s %-12s start=%.3f dur=%.3f\n", id, s.Stage, s.StartMS, s.DurMS)
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

// ObserveStages records each stage's total milliseconds from the tracer
// into the registry as "stage/<name>/ms" histograms (one observation per
// stage per call). Used by commands that want the stage breakdown to show
// up in a metrics snapshot next to everything else.
func (t *Tracer) ObserveStages(m *Metrics) {
	if t == nil || m == nil {
		return
	}
	bd := t.Breakdown()
	for st, ms := range bd {
		if ms == 0 {
			continue
		}
		m.Observe("stage/"+Stage(st).String()+"/ms", ms)
	}
}

// --- wall-clock helpers -------------------------------------------------
//
// Instrumented code uses these so the same call sites serve both modes:
// in virtual mode Now/SinceMS cost nothing and return zero, and Dur picks
// the modelled duration; in wall mode SinceMS measures real elapsed time
// and Dur prefers it.

// Now returns a wall reference for SinceMS, or the zero Time in virtual
// mode (including on a nil tracer) so the deterministic path never reads
// the real clock.
func (t *Tracer) Now() time.Time {
	if t == nil || !t.wall {
		return time.Time{}
	}
	return time.Now()
}

// SinceMS returns wall milliseconds elapsed since ref (a Now() result), or
// 0 in virtual mode.
func (t *Tracer) SinceMS(ref time.Time) float64 {
	if t == nil || !t.wall || ref.IsZero() {
		return 0
	}
	return float64(time.Since(ref)) / float64(time.Millisecond)
}

// Dur selects the span duration for the tracer's mode: the modelled
// virtual duration normally, the measured wall duration in wall mode
// (falling back to the modelled value when no measurement was taken,
// e.g. for stages whose cost is purely modelled).
func (t *Tracer) Dur(virtualMS, wallMS float64) float64 {
	if t != nil && t.wall && wallMS > 0 {
		return wallMS
	}
	return virtualMS
}
