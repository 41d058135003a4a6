package serve

import (
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

	if res := <-c.Submit(f, 600); res.Err == nil || res.R != nil {
		t.Fatalf("poisoned submission delivered %+v, want an error and no result", res)
	}
	// One worker: the second job is accepted only after the first job's
	// panic hook has fired and the state has been rebuilt.
	res := <-c.Submit(f, 600)
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
	if res := <-c.Submit(f, 600); res.Err == nil {
		t.Fatal("submission to a closed pool delivered no error")
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
