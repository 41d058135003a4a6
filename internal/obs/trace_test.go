package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"adascale/internal/parallel"
)

// synthSpans builds a deterministic span set: frames per stream, one span
// per pipeline stage per frame, durations derived from the ids.
func synthSpans(streams, frames int) []Span {
	var out []Span
	clock := 0.0
	for s := 0; s < streams; s++ {
		for f := 0; f < frames; f++ {
			for st := Stage(0); st < NumStages; st++ {
				d := float64(s+1) + float64(f)/10 + float64(st)/100
				out = append(out, Span{Stream: s, Frame: f, Stage: st, StartMS: clock, DurMS: d})
				clock += d
			}
		}
	}
	return out
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Add([]Span{{Stage: StageDetect}})
	if tr.Spans() != nil || tr.Len() != 0 || tr.Format() != "" {
		t.Fatal("nil tracer not a no-op")
	}
	if bd := tr.Breakdown(); bd != [NumStages]float64{} {
		t.Fatal("nil tracer breakdown non-zero")
	}
}

func TestTracerFormatSortsArrivalOrder(t *testing.T) {
	spans := synthSpans(2, 3)
	fwd, rev := NewTracer(), NewTracer()
	for i := range spans {
		fwd.Add(spans[i : i+1])
		rev.Add(spans[len(spans)-1-i : len(spans)-i])
	}
	if fwd.Format() != rev.Format() {
		t.Fatal("trace text depends on recording order")
	}
	if got := fwd.Len(); got != len(spans) {
		t.Fatalf("Len = %d, want %d", got, len(spans))
	}
}

func TestTracerDeterministicAcrossWorkerCounts(t *testing.T) {
	// Per-worker buffering with bulk Add — the merge path every parallel
	// runner uses — must yield byte-identical traces at any worker count.
	produce := func(workers int) string {
		tr := NewTracer()
		type buf struct{ spans []Span }
		defer parallel.SetWorkers(0)
		parallel.SetWorkers(workers)
		parallel.MapWorkers(8, func() *buf { return &buf{} },
			func(b *buf, i int) int {
				local := synthSpans(1, 2)
				for j := range local {
					local[j].Stream = i
				}
				tr.Add(local)
				return i
			})
		return tr.Format()
	}
	ref := produce(1)
	if ref == "" {
		t.Fatal("empty trace")
	}
	for _, w := range []int{2, 4} {
		if got := produce(w); got != ref {
			t.Fatalf("trace diverged at workers=%d", w)
		}
	}
}

func TestTracerOrderingUnderPoolPanicRebuild(t *testing.T) {
	// A persistent pool whose jobs sometimes panic (forcing worker-state
	// rebuilds) must still produce the canonical trace: panicking jobs
	// record nothing, surviving jobs' spans sort identically to a serial
	// run. This pins the per-worker span merge against the pool's
	// panic-recovery path.
	run := func(workers int) (string, int64) {
		tr := NewTracer()
		pool := parallel.NewPool(workers, func() int { return 0 })
		done := make(chan struct{}, 16)
		var panics atomic.Int64
		for i := 0; i < 16; i++ {
			pool.Submit(func(int) {
				defer func() { done <- struct{}{} }()
				if i%5 == 2 {
					panics.Add(1)
					panic(fmt.Sprintf("poisoned frame %d", i))
				}
				local := synthSpans(1, 1)
				for j := range local {
					local[j].Stream = i
				}
				tr.Add(local)
			})
		}
		for i := 0; i < 16; i++ {
			<-done
		}
		pool.Close()
		return tr.Format(), panics.Load()
	}
	ref, panics := run(1)
	if panics != 3 {
		t.Fatalf("panics = %d, want 3", panics)
	}
	if got, _ := run(4); got != ref {
		t.Fatal("trace diverged between pool workers 1 and 4 under panic-rebuild")
	}
	for i := 0; i < 16; i++ {
		want := fmt.Sprintf("span s%03d/00", i)
		if (i%5 == 2) == strings.Contains(ref, want) {
			t.Fatalf("span presence wrong for job %d:\n%s", i, ref)
		}
	}
}

func TestTracerFormatShape(t *testing.T) {
	tr := NewTracer()
	tr.Add([]Span{{3, 7, StageSeqNMS, 123.456, 1.5}, {0, 12, StageFaultInject, 0, 0}})
	got := tr.Format()
	want := "span s000/12 fault-inject start=0.000 dur=0.000\n" +
		"span s003/07 seqnms       start=123.456 dur=1.500\n"
	if got != want {
		t.Fatalf("format:\n got %q\nwant %q", got, want)
	}
}

func TestTracerBreakdown(t *testing.T) {
	tr := NewTracer()
	tr.Add([]Span{{0, 0, StageDetect, 0, 60}, {0, 1, StageDetect, 0, 20}, {0, 0, StageRegress, 0, 20}})
	bd := tr.Breakdown()
	if bd[StageDetect] != 80 || bd[StageRegress] != 20 || bd[StageDecode] != 0 {
		t.Fatalf("breakdown = %v", bd)
	}
	text := tr.FormatBreakdown()
	for _, want := range []string{"stage detect", "ms=80.000", "share=80.0%", "stage regress", "share=20.0%"} {
		if !strings.Contains(text, want) {
			t.Fatalf("breakdown text missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "decode") {
		t.Fatalf("breakdown renders a stage that never ran:\n%s", text)
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"decode", "fault-inject", "rescale", "detect", "regress", "seqnms"}
	if len(want) != int(NumStages) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, n := range want {
		if got := Stage(i).String(); got != n {
			t.Fatalf("Stage(%d).String() = %q, want %q", i, got, n)
		}
	}
	if got := Stage(99).String(); got != "stage(99)" {
		t.Fatalf("out-of-range stage = %q", got)
	}
}
