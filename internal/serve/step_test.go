package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/obs"
)

// TestSubmitPanicContract pins the one copy of the compute job's panic
// contract: a frame that panics inside Compute (the first worker state has
// no detector) still delivers a Result, with Err set; the pool counts the
// panic and rebuilds the worker's state; and the next submission is served
// by the rebuilt state.
func TestSubmitPanicContract(t *testing.T) {
	ds, sys := system(t)
	f := &ds.Val[0].Frames[0]
	c := Core{Metrics: obs.NewMetrics()}
	var built atomic.Int32
	c.startPool(1, func() worker {
		w := worker{det: sys.Detector.Clone(), reg: sys.Regressor.Clone()}
		if built.Add(1) == 1 {
			w.det = nil
		}
		return w
	})
	defer c.Close()

	var ln Lane
	if res := <-c.Submit(&ln, f, 600); res.Err == nil || res.R != nil {
		t.Fatalf("poisoned submission delivered %+v, want an error and no result", res)
	}
	// One worker: the second job is accepted only after the first job's
	// panic hook has fired and the state has been rebuilt.
	res := <-c.Submit(&ln, f, 600)
	if res.Err != nil || res.R == nil {
		t.Fatalf("submission after the rebuild delivered %+v, want a result", res)
	}
	if res.R.Features != nil {
		t.Fatal("Compute left the feature map on the result; it must be recycled")
	}
	if got := c.Metrics.Counter("pool/panic_rebuild"); got != 1 {
		t.Fatalf("pool/panic_rebuild = %d, want 1", got)
	}
	if got := built.Load(); got != 2 {
		t.Fatalf("worker state built %d times, want 2 (start + rebuild)", got)
	}

	// A closed pool degrades the frame instead of losing it or blocking.
	c.Close()
	if res := <-c.Submit(&ln, f, 600); res.Err == nil {
		t.Fatal("submission to a closed pool delivered no error")
	}
}

// TestAbandonedDispatchNeverCrossesFrames: a dispatch the driver abandons
// still delivers, but into the channel it abandoned; the lane's next Submit
// gets a fresh channel, on which only its own frame's result arrives.
func TestAbandonedDispatchNeverCrossesFrames(t *testing.T) {
	ds, sys := system(t)
	a, b := &ds.Val[0].Frames[0], &ds.Val[0].Frames[1]
	c := Core{Metrics: obs.NewMetrics()}
	c.StartPool(sys.Detector, sys.Regressor, 1)
	defer c.Close()
	var ln Lane
	stale := c.Submit(&ln, a, 600)
	ln.Abandon()
	fresh := c.Submit(&ln, b, 128)
	if stale == fresh {
		t.Fatal("the lane reused the abandoned dispatch's channel")
	}
	if res := <-fresh; res.R == nil || res.R.Frame != b || res.R.Scale != 128 {
		t.Fatalf("the fresh channel delivered %+v, want frame b at scale 128", res)
	}
	if res := <-stale; res.R == nil || res.R.Frame != a {
		t.Fatalf("the abandoned dispatch delivered %+v, want frame a's result", res)
	}
}

// TestSubmitSettleAllocatesOnlyOutput: once the pool, the detector's pools
// and the registry are warm, a frame's whole trip through the step —
// Submit, the worker's compute, receive, Settle — allocates only the output's
// own detection slice. Settle hands the detector's result back, the job and
// the lane's channel are reused, and every metric key is prebuilt.
func TestSubmitSettleAllocatesOnlyOutput(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector): a zero-allocation pin through it cannot hold")
	}
	ds, sys := system(t)
	f := &ds.Val[0].Frames[0]
	c := Core{Metrics: obs.NewMetrics()}
	c.StartPool(sys.Detector, sys.Regressor, 1)
	defer c.Close()
	ln := c.NewLane(0, adascale.NewResilientSession(sys.Regressor.Kernels, adascale.DefaultResilientConfig()))
	var out adascale.FrameOutput
	step := func() {
		plan := ln.Sess.Plan(f)
		out, _ = c.Settle(&ln, f, plan, <-c.Submit(&ln, f, plan.Scale), 0, 1, 1, 0)
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if len(out.Detections) == 0 {
		t.Fatal("the frame has no detections; the test needs an output slice to count")
	}
	if a := testing.AllocsPerRun(50, step); a != 1 {
		t.Fatalf("a warm Submit → receive → Settle allocates %v times, want 1 (the output's detections)", a)
	}
}

// poolRetains reports whether a sync.Pool hands back what was just Put. Under
// the race detector it deliberately drops a quarter of all Puts.
func poolRetains() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 64; i++ {
		p.Put(p.Get())
	}
	return news == 1
}

// TestModelOnlyRunAllocsPerFrame: without compute, everything a Run
// allocates is per-Run set-up — the in-flight record, the outputs, the queue
// and every metric key are allocated once per stream, and a model-only frame
// settles through a prebuilt fallback key — so serving four times the frames
// (des_serve's 16 streams at 4 frames/s) costs at most perFrame more a frame.
// Before, a frame cost 2.0: its in-flight record, its "fallback/empty"
// string, and the outputs' growth.
func TestModelOnlyRunAllocsPerFrame(t *testing.T) {
	const streams, perFrame = 16, 0.05
	ds, sys := system(t)
	srv := newServer(t, sys, Config{
		Workers: 4, QueueDepth: 8, SLOMS: 200, Resilient: adascale.DefaultResilientConfig(), ModelOnly: true,
	})
	run := func(frames int) float64 {
		ld := load(t, ds, streams, 4, frames, 3)
		return testing.AllocsPerRun(3, func() { srv.Run(ld) })
	}
	short, long := run(50), run(200)
	if got := (long - short) / (streams * 150); got > perFrame {
		t.Fatalf("a model-only Run allocates %.0f times at 50 frames a stream, %.0f at 200: %.2f a frame, want <= %v", short, long, got, perFrame)
	}
}

// TestStepKeysCostNoAllocations pins the per-stream metric keys to
// admission time: with the keys on, offering a frame that evicts another
// and settling a frame that misses its SLO — the calls that touch all three
// of stream/<id>/dropped, served and slo_miss — allocate exactly what they
// allocate under Compact, where the keys do not exist.
func TestStepKeysCostNoAllocations(t *testing.T) {
	ds, sys := system(t)
	tf := TimedFrame{Frame: &ds.Val[0].Frames[0]}
	measure := func(compact bool) (offer, settle float64) {
		c := Core{Metrics: obs.NewMetrics(), Compact: compact}
		ln := c.NewLane(7, adascale.NewResilientSession(sys.Regressor.Kernels, adascale.DefaultResilientConfig()))
		var q FrameQueue
		c.Offer(&ln, &q, tf, 1)
		offer = testing.AllocsPerRun(200, func() {
			if c.Offer(&ln, &q, tf, 1) == nil {
				t.Fatal("a full queue evicted nothing")
			}
		})
		settle = testing.AllocsPerRun(200, func() {
			plan := ln.Sess.Plan(tf.Frame)
			if _, miss := c.Settle(&ln, tf.Frame, plan, Result{}, 0, 75, 90, 50); !miss {
				t.Fatal("a 90 ms frame met a 50 ms SLO")
			}
		})
		if !compact {
			for key, want := range map[string]int{
				"stream/7/served": ln.Served, "stream/7/slo_miss": ln.SLOMisses, "stream/7/dropped": ln.Dropped,
			} {
				if got := c.Metrics.Counter(key); want == 0 || got != int64(want) {
					t.Fatalf("%s = %d, lane ledger says %d", key, got, want)
				}
			}
		}
		return offer, settle
	}
	offer, settle := measure(false)
	compactOffer, compactSettle := measure(true)
	if offer != 0 || compactOffer != 0 {
		t.Fatalf("Offer allocates %v per frame (%v compact), want 0", offer, compactOffer)
	}
	if settle != compactSettle {
		t.Fatalf("Settle allocates %v per frame with per-stream keys, %v without", settle, compactSettle)
	}
}

// TestCompactTracedRunHasNoStreamKeys: CompactMetrics suppresses every
// per-stream key, the per-stream stage histograms a tracer adds included,
// while the aggregate stage histograms stay.
func TestCompactTracedRunHasNoStreamKeys(t *testing.T) {
	ds, sys := system(t)
	srv := newServer(t, sys, Config{
		Workers: 2, QueueDepth: 4, SLOMS: 30, Resilient: adascale.DefaultResilientConfig(),
		ModelOnly: true, CompactMetrics: true, Tracer: obs.NewTracer(),
	})
	snap := srv.Run(load(t, ds, 3, 10, 8, 77)).Metrics.Snapshot()
	if strings.Contains(snap, "stream/") {
		t.Fatalf("a compact run recorded per-stream keys:\n%s", snap)
	}
	if !strings.Contains(snap, "hist    stage/decode/ms") {
		t.Fatalf("a compact traced run lost its aggregate stage histograms:\n%s", snap)
	}
}
