package serve

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/obs"
)

// TestSubmitPanicContract pins the one copy of the compute job's panic
// contract at workers 1 and 4: a frame that panics inside Compute (every
// starting worker state has no detector) still delivers a Result, with Err
// set, and pool/panic_rebuild already counts it when that Result is
// received (the k-th poisoned Result reads k); the pool rebuilds the
// worker's state, and later submissions are served by rebuilt states.
func TestSubmitPanicContract(t *testing.T) {
	ds, sys := system(t)
	f := &ds.Val[0].Frames[0]
	for _, workers := range []int{1, 4} {
		c := NewCore(obs.NewMetrics(), nil)
		var built atomic.Int32
		c.startPool(workers, func() worker {
			w := worker{det: sys.Detector.Clone(), reg: sys.Regressor.Clone()}
			if built.Add(1) <= int32(workers) {
				w.det = nil
			}
			return w
		})

		var ln Lane
		poisoned := 0
		for n := 0; poisoned < workers; n++ {
			if n == 64 {
				t.Fatalf("workers=%d: %d poisoned Results in 64 submissions, want %d", workers, poisoned, workers)
			}
			res := <-c.Submit(&ln, f, 600)
			if res.Err == nil {
				res.R.Release()
				continue
			}
			if res.R != nil {
				t.Fatalf("workers=%d: poisoned submission delivered a result", workers)
			}
			poisoned++
			if got := c.Metrics.Counter("pool/panic_rebuild"); got != int64(poisoned) {
				t.Fatalf("workers=%d: pool/panic_rebuild = %d at poisoned Result %d", workers, got, poisoned)
			}
		}
		res := <-c.Submit(&ln, f, 600)
		if res.Err != nil || res.R == nil {
			t.Fatalf("workers=%d: submission after the rebuilds delivered %+v, want a result", workers, res)
		}
		if res.R.Features != nil {
			t.Fatal("Compute left the feature map on the result; it must be recycled")
		}

		// A closed pool degrades the frame instead of losing it or blocking.
		c.Close()
		if got := built.Load(); got != int32(2*workers) {
			t.Fatalf("workers=%d: worker state built %d times, want %d (start + rebuild)", workers, got, 2*workers)
		}
		if res := <-c.Submit(&ln, f, 600); res.Err == nil {
			t.Fatal("submission to a closed pool delivered no error")
		}
	}
}

// TestAbandonedDispatchNeverCrossesFrames: a dispatch the driver abandons
// still delivers, but into the channel it abandoned; the lane's next Submit
// gets a fresh channel, on which only its own frame's result arrives.
func TestAbandonedDispatchNeverCrossesFrames(t *testing.T) {
	ds, sys := system(t)
	a, b := &ds.Val[0].Frames[0], &ds.Val[0].Frames[1]
	c := NewCore(obs.NewMetrics(), nil)
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
	c := NewCore(obs.NewMetrics(), nil)
	c.StartPool(sys.Detector, sys.Regressor, 1)
	defer c.Close()
	ln := Lane{Sess: adascale.NewResilientSession(sys.Detector.Cost(), sys.Regressor.Kernels, adascale.DefaultResilientConfig())}
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
// allocates is per-Run set-up — the in-flight record, the outputs and the
// queue are allocated once per stream, each metric key once per Run (every
// name is a prebuilt constant), and a model-only frame settles through a
// prebuilt fallback key — so serving four times the frames (des_serve's 16
// streams at 4 frames/s) costs at most perFrame more a frame. Before, a
// frame cost 2.0: its in-flight record, its "fallback/empty" string, and the
// outputs' growth.
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

// TestStepKeysCostNoAllocations: once the step's handles are resolved,
// offering a frame that evicts another and settling a frame that misses its
// SLO — the calls that touch the most metrics — allocate nothing, and
// neither does a whole model-only frame, Offer through Settle: every metric
// is a handle the Core resolved once, and the per-scale, per-fault and
// per-rung tables are filled in place, not rebuilt per frame.
func TestStepKeysCostNoAllocations(t *testing.T) {
	ds, sys := system(t)
	tf := TimedFrame{Frame: &ds.Val[0].Frames[0]}
	c := NewCore(obs.NewMetrics(), nil)
	ln := Lane{ID: 7, Sess: adascale.NewResilientSession(sys.Detector.Cost(), sys.Regressor.Kernels, adascale.DefaultResilientConfig())}
	var q FrameQueue
	c.Offer(&ln, &q, tf, 1)
	offer := testing.AllocsPerRun(200, func() {
		if c.Offer(&ln, &q, tf, 1) == nil {
			t.Fatal("a full queue evicted nothing")
		}
	})
	settle := testing.AllocsPerRun(200, func() {
		plan := ln.Sess.Plan(tf.Frame)
		if _, miss := c.Settle(&ln, tf.Frame, plan, Result{}, 0, 75, 90, 50); !miss {
			t.Fatal("a 90 ms frame met a 50 ms SLO")
		}
	})
	frame := testing.AllocsPerRun(200, func() {
		c.Offer(&ln, &q, tf, 1)
		c.ObserveQueue(&q)
		next := q.Pop()
		c.ObserveWait(0)
		c.Settle(&ln, next.Frame, ln.Sess.Plan(next.Frame), Result{}, 0, 75, 90, 50)
	})
	if offer != 0 || settle != 0 || frame != 0 {
		t.Fatalf("Offer allocates %v per frame, Settle %v and a model-only frame %v, want 0", offer, settle, frame)
	}
}

// TestMetricNamesIndependentOfStreamCount: the registry's key set depends
// only on the code — a Run's metric names at 64 streams are its names at 4,
// traced and untraced, with and without a system fault plan. The load
// overloads two workers for long enough that every stream count reaches the
// same drops, SLO misses, fault recoveries and deadline-capped scales.
func TestMetricNamesIndependentOfStreamCount(t *testing.T) {
	ds, sys := system(t)
	names := func(streams int, traced, chaos bool) []string {
		ld := load(t, ds, streams, 30, 80, 9)
		cfg := Config{Workers: 2, QueueDepth: 2, SLOMS: 30, Resilient: adascale.DefaultResilientConfig(), ModelOnly: true}
		if traced {
			cfg.Tracer = obs.NewTracer()
		}
		if chaos {
			plan, err := faults.GenSystemPlan(faults.ScaledSystemConfig(3, 41, LastArrivalMS(ld), cfg.Workers))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = plan
		}
		var out []string
		for _, line := range strings.Split(newServer(t, sys, cfg).Run(ld).Metrics.Snapshot(), "\n") {
			if f := strings.Fields(line); len(f) > 1 {
				out = append(out, f[1])
			}
		}
		return out
	}
	for _, traced := range []bool{false, true} {
		for _, chaos := range []bool{false, true} {
			if few, many := names(4, traced, chaos), names(64, traced, chaos); !slices.Equal(few, many) {
				t.Fatalf("traced=%v chaos=%v: metric names differ with the stream count:\n4:  %v\n64: %v", traced, chaos, few, many)
			}
		}
	}
}
