// Package faults is the fault-injection harness for the video pipeline: a
// deterministic, seeded injector that perturbs a synth.Snippet stream with
// configurable per-frame fault processes — dropped frames, duplicated
// (stale) frames, sensor blackout and overexposure, additive noise bursts,
// and timestamp jitter. Every perturbed frame is tagged with a synth.Fault
// record, so downstream accounting (adascale.Health) is exact, and the
// original snippets are never mutated: Inject returns an independent copy.
//
// Determinism contract: the same seed and config produce a bit-identical
// perturbed stream. Each snippet draws from its own generator seeded by
// (config seed, snippet ID), so injection fans out across the worker pool
// with ID-ordered output identical at any worker count — the same
// construction synth.Generate uses.
package faults

import (
	"fmt"
	"math/rand"

	"adascale/internal/parallel"
	"adascale/internal/rng"
	"adascale/internal/synth"
)

// Config parameterises the injector: one independent per-frame Bernoulli
// process per fault kind. Rates are probabilities in [0, 1] and their sum
// must not exceed 1 (the kinds are mutually exclusive on a frame).
type Config struct {
	Seed int64

	// Per-frame fault probabilities.
	Drop, Stale, Blackout, Overexpose, Noise, Jitter float64
}

const (
	// maxSeverity bounds the severity drawn for partial faults
	// (overexposure, noise).
	maxSeverity = 1

	// maxJitterMS bounds the arrival latency drawn for jitter faults.
	maxJitterMS = 25

	// burstMax is the maximum number of extra consecutive frames a
	// blackout or noise fault extends over (real sensor faults are bursty,
	// not i.i.d.).
	burstMax = 2
)

// Mixed returns a config that splits the given total per-frame fault rate
// evenly across all six fault kinds — the standard mixed-fault condition
// of the robustness sweep.
func Mixed(rate float64, seed int64) Config {
	r := rate / 6
	return Config{
		Seed: seed,
		Drop: r, Stale: r, Blackout: r, Overexpose: r, Noise: r, Jitter: r,
	}
}

// TotalRate returns the summed per-frame fault probability.
func (c *Config) TotalRate() float64 {
	return c.Drop + c.Stale + c.Blackout + c.Overexpose + c.Noise + c.Jitter
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	for _, r := range []float64{c.Drop, c.Stale, c.Blackout, c.Overexpose, c.Noise, c.Jitter} {
		// Written so that NaN, which fails every comparison, fails it too.
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("faults: rate %v out of [0, 1]", r)
		}
	}
	if t := c.TotalRate(); t > 1 {
		return fmt.Errorf("faults: total fault rate %v exceeds 1", t)
	}
	return nil
}

// Inject returns a perturbed copy of the snippets; the input is not
// mutated. Frame 0 of every snippet stays clean (a snippet boundary
// re-syncs the sensor), which also guarantees a stale frame always has an
// earlier delivered frame to re-deliver.
func Inject(snippets []synth.Snippet, cfg Config) ([]synth.Snippet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := parallel.Map(len(snippets), func(i int) synth.Snippet {
		return injectSnippet(&snippets[i], cfg)
	})
	return out, nil
}

// injectSnippet perturbs one snippet from its own deterministic stream.
func injectSnippet(sn *synth.Snippet, cfg Config) synth.Snippet {
	rng := rand.New(rand.NewSource(injectSeed(cfg.Seed, sn.ID)))
	out := synth.Snippet{ID: sn.ID, Frames: append([]synth.Frame(nil), sn.Frames...)}

	// delivered is the index (into out.Frames) of the last frame the
	// sensor actually delivered — the content a stale frame re-delivers.
	delivered := 0
	burst := 0 // extra frames the current burst fault still covers
	var burstFault synth.Fault

	for i := 1; i < len(out.Frames); i++ {
		var fault synth.Fault
		if burst > 0 {
			burst--
			fault = burstFault
		} else {
			kind := drawKind(rng, &cfg)
			if kind == synth.FaultNone {
				delivered = i
				continue
			}
			fault = synth.Fault{Kind: kind}
			switch kind {
			case synth.FaultOverexpose, synth.FaultNoise, synth.FaultBlackout:
				fault.Severity = (0.3 + float64(0.7*rng.Float64())) * maxSeverity
				if kind != synth.FaultOverexpose {
					burst = rng.Intn(burstMax + 1)
					burstFault = fault
				}
			case synth.FaultJitter:
				fault.JitterMS = (0.2 + float64(0.8*rng.Float64())) * maxJitterMS
			}
		}
		applyFault(out.Frames, i, delivered, fault)
		if fault.Kind != synth.FaultDrop {
			delivered = i
		}
	}
	return out
}

// applyFault rewrites frame i of frames in place according to fault.
// delivered is the index of the last frame the sensor delivered.
func applyFault(frames []synth.Frame, i, delivered int, fault synth.Fault) {
	f := &frames[i]
	truth := f.Objects
	switch fault.Kind {
	case synth.FaultDrop, synth.FaultBlackout:
		// Nothing usable was sensed: no objects, and Render paints black.
		f.Objects = nil
		f.Truth = truth
	case synth.FaultStale:
		// The transport re-delivered the content of the last delivered
		// frame: copy it wholesale (sensed objects, clutter, blur, render
		// seeds), then restore this frame's identity and real scene.
		fault.SourceIndex = frames[delivered].Index
		src := frames[delivered] // struct copy carries the unexported seeds
		src.SnippetID, src.Index = f.SnippetID, f.Index
		src.Fault, src.Truth = nil, nil
		if src.Objects != nil {
			src.Objects = append([]synth.Object(nil), src.Objects...)
		}
		*f = src
		f.Truth = truth
	}
	fc := fault
	f.Fault = &fc
}

// drawKind draws at most one fault kind for a frame from the per-kind
// Bernoulli rates (mutually exclusive by construction: one uniform draw
// walks the cumulative rate intervals).
func drawKind(rng *rand.Rand, cfg *Config) synth.FaultKind {
	u := rng.Float64()
	for _, c := range []struct {
		rate float64
		kind synth.FaultKind
	}{
		{cfg.Drop, synth.FaultDrop},
		{cfg.Stale, synth.FaultStale},
		{cfg.Blackout, synth.FaultBlackout},
		{cfg.Overexpose, synth.FaultOverexpose},
		{cfg.Noise, synth.FaultNoise},
		{cfg.Jitter, synth.FaultJitter},
	} {
		if u < c.rate {
			return c.kind
		}
		u -= c.rate
	}
	return synth.FaultNone
}

// injectSeed mixes the config seed and snippet ID (splitmix64 finaliser)
// into an independent per-snippet stream, distinct from the generation and
// runner streams.
func injectSeed(base int64, id int) int64 {
	z := uint64(base)*0xD1B54A32D192ED03 + uint64(id)*0x9E3779B97F4A7C15 + 0xFA17
	return int64(rng.Mix64(z) & 0x7FFFFFFFFFFFFFFF)
}
