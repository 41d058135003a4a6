package serve

import (
	"fmt"

	"adascale/internal/adascale"
	"adascale/internal/faults"
)

// The supervision layer: everything the scheduler needs to survive the
// system fault plan (faults.SystemPlan). It tracks virtual worker health
// (alive / stalled / dead-rebuilding), owns the per-stream circuit
// breakers, derives deterministic retry backoff, and performs stream
// migration (checkpoint/restore of the resilient session) on node
// blackout. The supervisor holds no clock of its own — every decision is a
// pure function of the event loop's virtual time and the seeded plan, so
// chaos runs are byte-identical across runs and real core counts.

// SupervisorConfig tunes the recovery machinery of a chaos-enabled server.
// The zero value means "all defaults"; it is only consulted when
// Config.Chaos is set.
type SupervisorConfig struct {
	// MaxRetries bounds redispatch attempts per frame; once exhausted the
	// frame is abandoned into the degradation ladder (propagated output,
	// never silently lost). 0 means 4.
	MaxRetries int

	// RetryBaseMS is the first retry delay; attempt k waits
	// min(RetryBaseMS·2^(k-1), RetryMaxMS) plus deterministic jitter in
	// [0, RetryBaseMS). 0 means 20.
	RetryBaseMS float64

	// RetryMaxMS caps the exponential backoff. 0 means 8 × RetryBaseMS.
	RetryMaxMS float64

	// RetrySeed drives the jitter stream (pure function of stream ID and
	// attempt, so it is identical across runs and worker counts).
	RetrySeed int64

	// WatchdogMS is the stalled-dispatch threshold: a dispatch still in
	// flight this long after starting is presumed stalled and reassigned.
	// 0 means 4 × the SLO if one is set, else 400; negative disables.
	WatchdogMS float64

	// RebuildMS is how long a killed worker takes to rebuild before
	// accepting work again. 0 means 60.
	RebuildMS float64

	// BreakerThreshold is the consecutive-failure count that opens a
	// stream's circuit breaker. 0 means 2; negative disables the breaker
	// entirely (the naive-failover comparison mode: every retry goes back
	// through the detector path).
	BreakerThreshold int

	// BreakerCooldownMS is the initial open interval (doubled per failed
	// half-open probe, capped at 8×). 0 means 300.
	BreakerCooldownMS float64
}

func (c SupervisorConfig) withDefaults(sloMS float64) SupervisorConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.RetryBaseMS <= 0 {
		c.RetryBaseMS = 20
	}
	if c.RetryMaxMS <= 0 {
		c.RetryMaxMS = 8 * c.RetryBaseMS
	}
	if c.WatchdogMS == 0 {
		if sloMS > 0 {
			c.WatchdogMS = 4 * sloMS
		} else {
			c.WatchdogMS = 400
		}
	}
	if c.RebuildMS <= 0 {
		c.RebuildMS = 60
	}
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
	switch {
	case c.MaxRetries < 0:
		return &ConfigError{Field: "Supervisor.MaxRetries", Reason: fmt.Sprintf("negative retry bound %d", c.MaxRetries)}
	case c.RetryBaseMS < 0 || c.RetryMaxMS < 0:
		return &ConfigError{Field: "Supervisor.RetryBaseMS", Reason: fmt.Sprintf("negative backoff (%v, %v)", c.RetryBaseMS, c.RetryMaxMS)}
	case c.RebuildMS < 0:
		return &ConfigError{Field: "Supervisor.RebuildMS", Reason: fmt.Sprintf("negative rebuild interval %v", c.RebuildMS)}
	case c.BreakerCooldownMS < 0:
		return &ConfigError{Field: "Supervisor.BreakerCooldownMS", Reason: fmt.Sprintf("negative cooldown %v", c.BreakerCooldownMS)}
	}
	return nil
}

// vworker is one virtual serving slot's health state. The scheduler's
// virtual in-service count is the number of workers with a non-zero
// dispatch; a worker accepts new work only when idle, alive and unstalled.
type vworker struct {
	deadUntilMS  float64 // rebuilding after a kill / blackout until then
	stallUntilMS float64 // frozen by a stall fault until then
	dispID       int     // the in-flight dispatch's ID; 0 = idle
	stream       int     // session index of the in-flight dispatch
}

// supervisor is the per-Run supervision state.
type supervisor struct {
	cfg      SupervisorConfig
	plan     *faults.SystemPlan
	kernels  []int                    // regressor kernels, for rebuilding sessions on migration
	rcfg     adascale.ResilientConfig // the exact session config Run used
	workers  []vworker
	breakers []breaker
	satUntil float64 // queue-saturation window end (virtual ms)
}

// newSupervisor builds the supervision state for one Run.
func newSupervisor(plan *faults.SystemPlan, cfg SupervisorConfig, sloMS float64,
	kernels []int, rcfg adascale.ResilientConfig, workers, sessions int) *supervisor {
	s := &supervisor{
		cfg:      cfg.withDefaults(sloMS),
		plan:     plan,
		kernels:  kernels,
		rcfg:     rcfg,
		workers:  make([]vworker, workers),
		breakers: make([]breaker, sessions),
	}
	for i := range s.breakers {
		s.breakers[i] = newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldownMS)
	}
	return s
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

// queueDepth returns the effective per-stream queue capacity at nowMS —
// collapsed to one frame inside a saturation window.
func (s *supervisor) queueDepth(nowMS float64, configured int) int {
	if nowMS < s.satUntil {
		return 1
	}
	return configured
}

// backoffMS returns the retry delay for a stream's attempt (1-based):
// exponential base doubling capped at RetryMaxMS, plus deterministic
// jitter in [0, RetryBaseMS) drawn from the (seed, stream, attempt) hash —
// decorrelated retries without a shared RNG, so the schedule is identical
// at any worker count.
func (s *supervisor) backoffMS(stream, attempt int) float64 {
	d := s.cfg.RetryBaseMS
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= s.cfg.RetryMaxMS {
			d = s.cfg.RetryMaxMS
			break
		}
	}
	return d + jitter01(s.cfg.RetrySeed, stream, attempt)*s.cfg.RetryBaseMS
}

// jitter01 hashes (seed, stream, attempt) to [0, 1) with a splitmix64
// finaliser.
func jitter01(seed int64, stream, attempt int) float64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03 + uint64(attempt)*0x8CB92BA72F3D8DD7 + 0xBAC0FF
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// migrate replaces a session's resilient state machine with a fresh one
// restored from its checkpoint — the single-process stand-in for replaying
// the stream on a replacement node. The checkpoint round-trip is exact
// (pinned by test), so a migrated stream continues precisely where the
// dead node left it.
func (s *supervisor) migrate(sess *session) {
	cp := sess.Sess.Checkpoint()
	fresh := adascale.NewResilientSession(s.kernels, s.rcfg)
	fresh.Restore(cp)
	sess.Sess = fresh
}
