package serve

import (
	"fmt"

	"adascale/internal/faults"
	"adascale/internal/rng"
)

// The supervision layer: everything the scheduler needs to survive the
// system fault plan (faults.SystemPlan). It tracks virtual worker health
// (alive / stalled / dead-rebuilding), owns the per-stream circuit
// breakers and derives deterministic retry backoff; on node blackout the
// scheduler migrates every stream (checkpoint/restore of its resilient
// session). The supervisor holds no clock of its own — every decision is a
// pure function of the event loop's virtual time and the seeded plan, so
// chaos runs are byte-identical across runs and real core counts.

// SupervisorConfig tunes the circuit breakers. The zero value means "all
// defaults". Only a fault plan (Config.Chaos) fails dispatches, so without
// one no breaker ever opens and the settings change nothing.
type SupervisorConfig struct {
	// BreakerThreshold is the consecutive-failure count that opens a
	// stream's circuit breaker. 0 means 2; negative disables the breaker
	// entirely (the naive-failover comparison mode: every retry goes back
	// through the detector path).
	BreakerThreshold int

	// BreakerCooldownMS is the initial open interval (doubled per failed
	// half-open probe, capped at 8×). 0 means 300.
	BreakerCooldownMS float64
}

const (
	// maxRetries bounds redispatch attempts per frame; once exhausted the
	// frame is abandoned into the degradation ladder (propagated output,
	// never silently lost).
	maxRetries = 4

	// retryBaseMS is the first retry delay; attempt k waits
	// min(retryBaseMS·2^(k-1), retryMaxMS) plus deterministic jitter in
	// [0, retryBaseMS).
	retryBaseMS = 20

	// retryMaxMS caps the exponential backoff.
	retryMaxMS = 8 * retryBaseMS

	// rebuildMS is how long a killed worker takes to rebuild before
	// accepting work again.
	rebuildMS = 60
)

// watchdogMS is the stalled-dispatch threshold: a dispatch still in flight
// this long after starting is presumed stalled and reassigned. It is 4 ×
// the SLO if one is set, else 400; place stretches it to twice the frame's
// modelled service time, so a tight SLO never reassigns a healthy frame.
func watchdogMS(sloMS float64) float64 {
	if sloMS > 0 {
		return 4 * sloMS
	}
	return 400
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 2
	}
	if c.BreakerCooldownMS <= 0 {
		c.BreakerCooldownMS = 300
	}
	return c
}

// Validate reports configuration errors.
func (c *SupervisorConfig) Validate() error {
	if c.BreakerCooldownMS < 0 {
		return &ConfigError{Field: "Supervisor.BreakerCooldownMS", Reason: fmt.Sprintf("negative cooldown %v", c.BreakerCooldownMS)}
	}
	return nil
}

// vworker is one virtual worker's health state; every frame on the pool
// holds one. A worker accepts new work only when idle, alive and unstalled.
type vworker struct {
	deadUntilMS  float64 // rebuilding after a kill / blackout until then
	stallUntilMS float64 // frozen by a stall fault until then
	dispID       int     // the in-flight dispatch's ID; 0 = idle
	stream       int     // session index of the in-flight dispatch
}

// supervisor is the per-Run supervision state.
type supervisor struct {
	watchdogMS float64
	events     []faults.SystemEvent // the fault plan's
	workers    []vworker
	breakers   []breaker
	satUntil   float64 // queue-saturation window end (virtual ms)
}

// reset makes s the supervision state of a new Run (nil plan: empty), its
// worker and breaker slices recycled from the last.
func (s *supervisor) reset(plan *faults.SystemPlan, cfg SupervisorConfig, sloMS float64, workers, sessions int) {
	var events []faults.SystemEvent
	if plan != nil {
		events = plan.Events
	}
	cfg = cfg.withDefaults()
	*s = supervisor{
		watchdogMS: watchdogMS(sloMS),
		events:     events,
		workers:    resize(s.workers, workers),
		breakers:   resize(s.breakers, sessions),
	}
	clear(s.workers)
	for i := range s.breakers {
		s.breakers[i] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldownMS)
	}
}

// freeWorker returns the lowest-index idle, alive, unstalled worker at
// nowMS, or -1 when the node has no serving capacity.
func (s *supervisor) freeWorker(nowMS float64) int {
	for i := range s.workers {
		w := &s.workers[i]
		if w.dispID == 0 && nowMS >= w.deadUntilMS && nowMS >= w.stallUntilMS {
			return i
		}
	}
	return -1
}

// queueDepth returns the effective per-stream queue depth at nowMS: one in a
// saturation window (a deeper queue keeps its length: Push evicts one frame).
func (s *supervisor) queueDepth(nowMS float64, configured int) int {
	if nowMS < s.satUntil {
		return 1
	}
	return configured
}

// backoffMS returns the retry delay for a stream's attempt (1-based):
// exponential base doubling capped at retryMaxMS, plus deterministic
// jitter in [0, retryBaseMS) drawn from the (stream, attempt) hash —
// decorrelated retries without a shared RNG, so the schedule is identical
// at any worker count.
func (s *supervisor) backoffMS(stream, attempt int) float64 {
	d := float64(retryBaseMS)
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= retryMaxMS {
			d = retryMaxMS
			break
		}
	}
	return d + float64(jitter01(stream, attempt)*retryBaseMS)
}

// jitter01 hashes (stream, attempt) to [0, 1) with a splitmix64
// finaliser.
func jitter01(stream, attempt int) float64 {
	z := uint64(stream)*0xD1B54A32D192ED03 + uint64(attempt)*0x8CB92BA72F3D8DD7 + 0xBAC0FF
	return float64(rng.Mix64(z)>>11) / float64(1<<53)
}
