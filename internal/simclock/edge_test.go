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
			var b Budget
			for _, ms := range tc.charges {
				b.Charge(ms)
			}
			if got := b.Exceeded(40); got != tc.exceeded {
				t.Fatalf("Exceeded = %v, want %v (mean %v)", got, tc.exceeded, b.MeanMS())
			}
			if got := b.Headroom(40); math.Abs(got-tc.headroom) > 1e-9 {
				t.Fatalf("Headroom = %v, want %v", got, tc.headroom)
			}
		})
	}
}

// TestBudgetWindowEviction: once the ring is full, each Charge evicts the
// oldest entry, so the mean tracks only the last BudgetWindow frames.
func TestBudgetWindowEviction(t *testing.T) {
	var b Budget
	for i := 0; i < BudgetWindow; i++ {
		b.Charge(10)
	}
	if got := b.MeanMS(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("mean before eviction = %v, want 10", got)
	}
	b.Charge(40) // evicts the first 10 → window holds {10 ×7, 40}
	if got := b.MeanMS(); math.Abs(got-13.75) > 1e-9 {
		t.Fatalf("mean after eviction = %v, want 13.75", got)
	}
	for i := 1; i < BudgetWindow; i++ {
		b.Charge(40) // window holds {40 ×8} once every 10 is evicted
	}
	if got := b.MeanMS(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("mean after the whole window is evicted = %v, want 40", got)
	}
}

// TestBudgetDisabledDeadline: deadline <= 0 means "no enforcement" — never
// exceeded, infinite headroom — regardless of what gets charged.
func TestBudgetDisabledDeadline(t *testing.T) {
	for _, deadline := range []float64{0, -7} {
		var b Budget
		b.Charge(1e9)
		if b.Exceeded(deadline) {
			t.Fatalf("deadline %v: Exceeded with enforcement disabled", deadline)
		}
		if got := b.Headroom(deadline); !math.IsInf(got, 1) {
			t.Fatalf("deadline %v: Headroom = %v, want +Inf", deadline, got)
		}
		if got := b.MeanMS(); math.Abs(got-1e9) > 1e-3 {
			t.Fatalf("deadline %v: accounting stopped: mean %v", deadline, got)
		}
	}
}
