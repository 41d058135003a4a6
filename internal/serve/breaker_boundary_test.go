package serve

import "testing"

// Regression pin for the half-open transition boundary. The breaker's open
// window is the half-open interval [openedAt, openedAt+cooldown): a frame
// dispatched at exactly cooldown expiry is admitted as the probe — the same
// virtual tick, not the one after. These tests pin that contract at
// cooldown-1 / cooldown / cooldown+1 for the first open window, the doubled
// re-open window after a failed probe, and the escalation cap, so any future
// off-by-one in shouldShed/onFailure shows up as a table diff rather than a
// subtle golden drift.

// String names the state in failure messages.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// openBreaker returns a breaker driven into the open state at openAtMS.
func openBreaker(t *testing.T, threshold int, cooldownMS, openAtMS float64) *breaker {
	t.Helper()
	b := newBreaker(threshold, cooldownMS)
	for i := 0; i < threshold; i++ {
		opened := b.onFailure(openAtMS)
		if want := i == threshold-1; opened != want {
			t.Fatalf("onFailure #%d: opened = %v, want %v", i+1, opened, want)
		}
	}
	if b.state != breakerOpen {
		t.Fatalf("after %d failures state = %v, want open", threshold, b.state)
	}
	return &b
}

func TestBreakerCooldownBoundary(t *testing.T) {
	const (
		threshold = 2
		cooldown  = 300.0
		openAt    = 100.0
	)
	cases := []struct {
		name      string
		probeAt   float64
		wantShed  bool
		wantState breakerState
	}{
		{"cooldown-1: still shedding", openAt + cooldown - 1, true, breakerOpen},
		{"cooldown: probe admitted same tick", openAt + cooldown, false, breakerHalfOpen},
		{"cooldown+1: probe admitted", openAt + cooldown + 1, false, breakerHalfOpen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := openBreaker(t, threshold, cooldown, openAt)
			if got := b.shouldShed(tc.probeAt); got != tc.wantShed {
				t.Errorf("shouldShed(%v) = %v, want %v", tc.probeAt, got, tc.wantShed)
			}
			if b.state != tc.wantState {
				t.Errorf("state after shouldShed(%v) = %v, want %v", tc.probeAt, b.state, tc.wantState)
			}
		})
	}
}

// TestBreakerDoubledCooldownBoundary drives a failed probe and checks the
// re-opened window is exactly [failAt, failAt+2*cooldown) — shedding at
// 2*cooldown-1, probing again at exactly 2*cooldown.
func TestBreakerDoubledCooldownBoundary(t *testing.T) {
	const (
		threshold = 2
		cooldown  = 300.0
		openAt    = 100.0
	)
	cases := []struct {
		name      string
		offset    float64 // relative to the probe-failure instant
		wantShed  bool
		wantState breakerState
	}{
		{"2*cooldown-1: still shedding", 2*cooldown - 1, true, breakerOpen},
		{"2*cooldown: second probe same tick", 2 * cooldown, false, breakerHalfOpen},
		{"2*cooldown+1: second probe", 2*cooldown + 1, false, breakerHalfOpen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := openBreaker(t, threshold, cooldown, openAt)
			probeAt := openAt + cooldown
			if b.shouldShed(probeAt) {
				t.Fatalf("shouldShed(%v) = true, want probe admission", probeAt)
			}
			// The probe fails: the circuit re-opens immediately with a
			// doubled cooldown and no new open-transition count.
			if opened := b.onFailure(probeAt); !opened {
				t.Fatalf("onFailure on failed probe: opened = false, want true")
			}
			if b.curCooldown != 2*cooldown {
				t.Fatalf("curCooldown after failed probe = %v, want %v", b.curCooldown, 2*cooldown)
			}
			at := probeAt + tc.offset
			if got := b.shouldShed(at); got != tc.wantShed {
				t.Errorf("shouldShed(%v) = %v, want %v", at, got, tc.wantShed)
			}
			if b.state != tc.wantState {
				t.Errorf("state after shouldShed(%v) = %v, want %v", at, b.state, tc.wantState)
			}
		})
	}
}

// TestBreakerCooldownCapAndReset checks the escalation cap (8x) and that a
// successful probe resets the cooldown to its base value — so the next open
// window after recovery is the short one again.
func TestBreakerCooldownCapAndReset(t *testing.T) {
	const (
		threshold = 2
		cooldown  = 300.0
	)
	b := openBreaker(t, threshold, cooldown, 0)
	now := 0.0
	// Fail probes until the doubling saturates: 300 -> 600 -> 1200 -> 2400,
	// then pinned at the 8x cap.
	for i := 0; i < 5; i++ {
		now += b.curCooldown
		if b.shouldShed(now) {
			t.Fatalf("probe %d: shouldShed(%v) = true, want probe admission", i, now)
		}
		b.onFailure(now)
	}
	if want := 8 * cooldown; b.curCooldown != want {
		t.Fatalf("curCooldown after repeated probe failures = %v, want cap %v", b.curCooldown, want)
	}
	// The capped window still obeys the same boundary.
	if !b.shouldShed(now + 8*cooldown - 1) {
		t.Errorf("shouldShed(cap-1) = false, want shedding")
	}
	if b.shouldShed(now + 8*cooldown) {
		t.Errorf("shouldShed(cap) = true, want probe admission at exactly cap")
	}
	// A successful probe closes the circuit and resets the escalation.
	if closed := b.onSuccess(); !closed {
		t.Fatalf("onSuccess on half-open: closed = false, want true")
	}
	if b.state != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.state)
	}
	if b.curCooldown != cooldown {
		t.Errorf("curCooldown after close = %v, want base %v", b.curCooldown, cooldown)
	}
}
