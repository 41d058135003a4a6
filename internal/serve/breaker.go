package serve

// The per-stream circuit breaker: when a stream's detector path keeps
// failing (worker kills, node blackouts, watchdog reassignments), the
// breaker opens and the stream sheds to propagation-only mode — frames are
// served from the session's last-good detections at DFF-propagation cost
// (flow warp + bookkeeping, no detector pass), so the stream keeps
// emitting output and draining its queue while the expensive path is
// down. After a cooldown the breaker goes half-open and probes one frame
// through the detector: success closes it, another failure re-opens it
// with a doubled cooldown (capped). All transitions happen on the
// scheduler's virtual clock, so breaker behaviour is deterministic.

// breakerState is the classic three-state machine.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one stream's circuit state. The zero value is unusable; build
// with newBreaker.
type breaker struct {
	threshold   int     // consecutive failures that open the circuit; <= 0 disables
	cooldownMS  float64 // initial open interval
	maxCooldown float64 // escalation cap
	state       breakerState
	fails       int     // consecutive detector-path failures
	openUntilMS float64 // when an open circuit goes half-open
	curCooldown float64 // current (escalated) cooldown
}

// newBreaker builds a breaker; threshold <= 0 produces a disabled breaker
// that never sheds (the "naive failover" comparison mode).
func newBreaker(threshold int, cooldownMS float64) breaker {
	return breaker{
		threshold:   threshold,
		cooldownMS:  cooldownMS,
		maxCooldown: 8 * cooldownMS,
		curCooldown: cooldownMS,
	}
}

// shouldShed reports whether a frame dispatched at nowMS must bypass the
// detector. An expired open circuit transitions to half-open here, so the
// very next dispatch is the probe.
func (b *breaker) shouldShed(nowMS float64) bool {
	if b.threshold <= 0 {
		return false
	}
	if b.state == breakerOpen {
		if nowMS >= b.openUntilMS {
			b.state = breakerHalfOpen
			return false
		}
		return true
	}
	return false
}

// onFailure records one dispatch failure at nowMS and returns whether the
// circuit transitioned into open. A failure during half-open (the probe
// died) re-opens immediately with a doubled cooldown; in closed state the
// circuit opens once the consecutive-failure threshold is reached; a
// failure while already open (e.g. a blackout killing a shed dispatch)
// extends the open window without counting a new transition.
func (b *breaker) onFailure(nowMS float64) (opened bool) {
	if b.threshold <= 0 {
		return false
	}
	b.fails++
	switch b.state {
	case breakerHalfOpen:
		b.curCooldown *= 2
		if b.curCooldown > b.maxCooldown {
			b.curCooldown = b.maxCooldown
		}
	case breakerClosed:
		if b.fails < b.threshold {
			return false
		}
	case breakerOpen:
		b.openUntilMS = nowMS + b.curCooldown
		return false
	}
	b.state = breakerOpen
	b.openUntilMS = nowMS + b.curCooldown
	return true
}

// onSuccess records one successful detector-path completion and returns
// whether a half-open circuit closed.
func (b *breaker) onSuccess() (closed bool) {
	b.fails = 0
	if b.state == breakerHalfOpen {
		b.state = breakerClosed
		b.curCooldown = b.cooldownMS
		return true
	}
	return false
}
