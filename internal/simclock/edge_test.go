package simclock

import (
	"math"
	"testing"
)

// TestBudgetDeadlineBoundary pins the strict-inequality contract: a rolling
// mean exactly at the deadline is still on budget; only crossing it trips
// Exceeded. The resilient runner downshifts scale on Exceeded, so an
// off-by-epsilon here would make a perfectly-paced stream degrade for no
// reason.
func TestBudgetDeadlineBoundary(t *testing.T) {
	cases := []struct {
		name     string
		charges  []float64
		exceeded bool
		headroom float64
	}{
		{"no charges", nil, false, 40},
		{"under", []float64{30, 30}, false, 10},
		{"exactly at deadline", []float64{40, 40, 40}, false, 0},
		{"just over", []float64{40, 40, 40.003}, true, -0.001},
		{"spike averaged away", []float64{10, 10, 10, 100}, false, 7.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBudget(40, 8)
			for _, ms := range tc.charges {
				b.Charge(ms)
			}
			if got := b.Exceeded(); got != tc.exceeded {
				t.Fatalf("Exceeded = %v, want %v (mean %v)", got, tc.exceeded, b.MeanMS())
			}
			if got := b.Headroom(); math.Abs(got-tc.headroom) > 1e-9 {
				t.Fatalf("Headroom = %v, want %v", got, tc.headroom)
			}
		})
	}
}

// TestBudgetWindowEviction: once the ring is full, each Charge evicts the
// oldest entry, so the mean tracks only the last `window` frames.
func TestBudgetWindowEviction(t *testing.T) {
	b := newBudget(100, 2)
	b.Charge(10)
	b.Charge(10)
	if got := b.MeanMS(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("mean before eviction = %v, want 10", got)
	}
	b.Charge(40) // evicts the first 10 → window holds {10, 40}
	if got := b.MeanMS(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("mean after eviction = %v, want 25", got)
	}
	b.Charge(40) // window holds {40, 40}
	if got := b.MeanMS(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("mean after second eviction = %v, want 40", got)
	}
}

// TestBudgetResetAfterExhaustion: Reset must return an exceeded budget to
// its just-constructed state so a session reused for a new stream is not
// penalised for the previous stream's charges.
func TestBudgetResetAfterExhaustion(t *testing.T) {
	b := newBudget(20, 4)
	for i := 0; i < 6; i++ {
		b.Charge(90)
	}
	if !b.Exceeded() {
		t.Fatal("budget should be exhausted before Reset")
	}
	b.Reset()
	if b.Exceeded() {
		t.Fatal("Exceeded survived Reset")
	}
	if got := b.MeanMS(); got != 0 {
		t.Fatalf("MeanMS after Reset = %v, want 0", got)
	}
	if got := b.Headroom(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("Headroom after Reset = %v, want the full deadline 20", got)
	}
	// And the ring must work normally again after the reset.
	b.Charge(5)
	if got := b.MeanMS(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("first post-Reset charge gives mean %v, want 5", got)
	}
}

// TestBudgetDisabledDeadline: deadline <= 0 means "no enforcement" — never
// exceeded, infinite headroom — regardless of what gets charged.
func TestBudgetDisabledDeadline(t *testing.T) {
	for _, deadline := range []float64{0, -7} {
		b := newBudget(deadline, 4)
		b.Charge(1e9)
		if b.Exceeded() {
			t.Fatalf("deadline %v: Exceeded with enforcement disabled", deadline)
		}
		if got := b.Headroom(); !math.IsInf(got, 1) {
			t.Fatalf("deadline %v: Headroom = %v, want +Inf", deadline, got)
		}
		if got := b.MeanMS(); math.Abs(got-1e9) > 1e-3 {
			t.Fatalf("deadline %v: accounting stopped: mean %v", deadline, got)
		}
	}
}
