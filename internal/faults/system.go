// System-level fault plans. faults.go perturbs *frames* (what the sensor
// delivers); this file perturbs the *serving system itself*: workers that
// panic and need rebuilding, workers that stall mid-dispatch, whole-node
// blackouts, and queue-memory saturation windows. A plan is a seeded,
// sorted schedule of such events on the virtual clock — the serving
// supervisor (internal/serve) replays it inside its discrete-event loop,
// so a chaos run is a pure function of (dataset seed, load seed, plan
// seed, config) and its outputs and metric snapshots are byte-identical
// across runs and real worker counts, exactly like a fault-free run.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// SystemEventKind enumerates the system fault kinds a plan can schedule.
type SystemEventKind uint8

const (
	// SysWorkerKill kills one virtual worker: its in-flight dispatch is
	// lost and the worker is unavailable until the supervisor's rebuild
	// interval elapses.
	SysWorkerKill SystemEventKind = iota

	// SysWorkerStall freezes one virtual worker for DurationMS: an
	// in-flight dispatch is delayed by the stall (the watchdog may reassign
	// it first) and the worker accepts no new work until the stall ends.
	SysWorkerStall

	// SysNodeBlackout takes every worker down for DurationMS: all in-flight
	// dispatches are lost and each admitted stream is migrated — its
	// session checkpoint restored into a fresh session, as a replacement
	// node would.
	SysNodeBlackout

	// SysQueueSaturate models upstream memory pressure for DurationMS:
	// every stream's effective queue depth is one frame, so no queue grows
	// during the window and each arrival to a non-empty queue evicts its
	// oldest frame (drop-oldest evicts one frame per arrival: a backlog
	// queued before the window is shed frame by frame, not cut at once).
	SysQueueSaturate

	// NumSystemEventKinds sizes per-kind counter arrays.
	NumSystemEventKinds
)

// String names the event kind for metrics and reports.
func (k SystemEventKind) String() string {
	switch k {
	case SysWorkerKill:
		return "worker-kill"
	case SysWorkerStall:
		return "worker-stall"
	case SysNodeBlackout:
		return "node-blackout"
	case SysQueueSaturate:
		return "queue-saturate"
	default:
		return fmt.Sprintf("system-event(%d)", uint8(k))
	}
}

// SystemEvent is one scheduled occurrence in a plan.
type SystemEvent struct {
	// AtMS is the event's instant on the serving layer's virtual clock.
	AtMS float64

	// Kind selects the fault.
	Kind SystemEventKind

	// Worker is the targeted virtual worker index (kill/stall); -1 for
	// node-wide events (blackout, saturation).
	Worker int

	// DurationMS is the fault window for stall, blackout and saturation
	// events; 0 for kills (the recovery time is the supervisor's rebuild
	// interval, a property of the system, not of the fault).
	DurationMS float64
}

// SystemPlan is a deterministic schedule of system faults, sorted by
// (AtMS, Kind, Worker).
type SystemPlan struct {
	Seed   int64
	Events []SystemEvent
}

// Count returns the number of events per kind.
func (p *SystemPlan) Count() (counts [NumSystemEventKinds]int) {
	for _, e := range p.Events {
		counts[e.Kind]++
	}
	return counts
}

// String summarises the plan for logs.
func (p *SystemPlan) String() string {
	c := p.Count()
	return fmt.Sprintf("system plan (seed %d): %d kills, %d stalls, %d blackouts, %d saturations",
		p.Seed, c[SysWorkerKill], c[SysWorkerStall], c[SysNodeBlackout], c[SysQueueSaturate])
}

// SystemConfig parameterises plan generation.
type SystemConfig struct {
	// Seed drives every draw; the same seed and config produce the
	// identical plan.
	Seed int64

	// HorizonMS is the virtual-time window events are placed in — usually
	// the workload's last arrival plus some slack. Events beyond the
	// horizon are never generated.
	HorizonMS float64

	// Workers is the virtual worker index space kills and stalls target.
	Workers int

	// KillsPerSec and StallsPerSec are Poisson rates (events per virtual
	// second) for worker kills and stalls.
	KillsPerSec, StallsPerSec float64

	// Blackouts is the number of node blackout windows, spread evenly over
	// the horizon with seeded jitter.
	Blackouts int

	// Saturations is the number of queue-saturation windows.
	Saturations int
}

const (
	stallMS    = 250 // mean stall duration
	blackoutMS = 400 // each blackout's duration
	saturateMS = 300 // each queue-saturation window's duration
)

// Validate reports configuration errors.
func (c *SystemConfig) Validate() error {
	switch {
	case c.HorizonMS <= 0 || math.IsNaN(c.HorizonMS) || math.IsInf(c.HorizonMS, 0):
		return fmt.Errorf("faults: system plan needs a positive finite horizon, got %v ms", c.HorizonMS)
	case c.Workers <= 0:
		return fmt.Errorf("faults: system plan needs a positive worker count, got %d", c.Workers)
	// NaN fails every comparison, and GenSystemPlan's Poisson loop never
	// ends at an infinite rate (every gap is 0): each must be finite.
	case !(c.KillsPerSec >= 0 && c.KillsPerSec <= math.MaxFloat64):
		return fmt.Errorf("faults: kill rate %v is not a finite value >= 0", c.KillsPerSec)
	case !(c.StallsPerSec >= 0 && c.StallsPerSec <= math.MaxFloat64):
		return fmt.Errorf("faults: stall rate %v is not a finite value >= 0", c.StallsPerSec)
	case c.Blackouts < 0 || c.Saturations < 0:
		return fmt.Errorf("faults: negative window count (blackouts %d, saturations %d)",
			c.Blackouts, c.Saturations)
	}
	return nil
}

// ScaledSystemConfig returns the standard mixed chaos condition at the
// given intensity: rate 1 is the moderate default (≈0.8 kills and 0.5
// stalls per virtual second, one blackout, one saturation window per two
// seconds of horizon, capped at two each); rate 0 is a plan with no
// events; rate 2 doubles the event rates. The chaos sweep in
// internal/experiments sweeps this knob.
func ScaledSystemConfig(rate float64, seed int64, horizonMS float64, workers int) SystemConfig {
	windows := 0
	if rate > 0 {
		windows = int(math.Min(2, math.Ceil(rate)))
	}
	return SystemConfig{
		Seed:         seed,
		HorizonMS:    horizonMS,
		Workers:      workers,
		KillsPerSec:  0.8 * rate,
		StallsPerSec: 0.5 * rate,
		Blackouts:    windows,
		Saturations:  windows,
	}
}

// GenSystemPlan builds the deterministic event schedule for the config.
func GenSystemPlan(cfg SystemConfig) (*SystemPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(injectSeed(cfg.Seed, 0x5F5)))
	plan := &SystemPlan{Seed: cfg.Seed}

	// Kills and stalls: Poisson processes over the horizon, each event
	// targeting a uniformly drawn worker.
	poisson := func(perSec float64, emit func(atMS float64)) {
		if perSec <= 0 {
			return
		}
		for t := rng.ExpFloat64() * 1000 / perSec; t < cfg.HorizonMS; t += rng.ExpFloat64() * 1000 / perSec {
			emit(t)
		}
	}
	poisson(cfg.KillsPerSec, func(atMS float64) {
		plan.Events = append(plan.Events, SystemEvent{
			AtMS: atMS, Kind: SysWorkerKill, Worker: rng.Intn(cfg.Workers),
		})
	})
	poisson(cfg.StallsPerSec, func(atMS float64) {
		plan.Events = append(plan.Events, SystemEvent{
			AtMS: atMS, Kind: SysWorkerStall, Worker: rng.Intn(cfg.Workers),
			DurationMS: stallMS * (0.5 + float64(rng.Float64())),
		})
	})

	// Blackouts and saturations: evenly spaced windows with ±10% jitter,
	// so repeated sweeps hit comparable phases of the workload.
	windows := func(n int, kind SystemEventKind, durMS float64) {
		for i := 0; i < n; i++ {
			at := cfg.HorizonMS * (float64(i+1) / float64(n+1)) * (0.9 + float64(0.2*rng.Float64()))
			if at >= cfg.HorizonMS {
				at = cfg.HorizonMS * 0.99
			}
			plan.Events = append(plan.Events, SystemEvent{
				AtMS: at, Kind: kind, Worker: -1, DurationMS: durMS,
			})
		}
	}
	windows(cfg.Blackouts, SysNodeBlackout, blackoutMS)
	windows(cfg.Saturations, SysQueueSaturate, saturateMS)

	sort.Slice(plan.Events, func(a, b int) bool {
		x, y := plan.Events[a], plan.Events[b]
		if x.AtMS != y.AtMS {
			return x.AtMS < y.AtMS
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Worker < y.Worker
	})
	return plan, nil
}
