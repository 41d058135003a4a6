package serve

import (
	"fmt"
	"math"

	"adascale/internal/adascale"
	"adascale/internal/rng"
	"adascale/internal/synth"
)

// This file is the deterministic load generator: it turns a generated
// snippet corpus into per-stream open-loop arrival schedules, so a
// serving experiment is a pure function of (dataset seed, load seed,
// config) — two runs produce the same frames at the same virtual times
// and therefore the same metrics snapshot, byte for byte.

// TimedFrame is one frame with its open-loop arrival time on the server's
// virtual clock.
type TimedFrame struct {
	Frame *synth.Frame

	// ArrivalMS is when the frame reaches the server (virtual ms). The
	// generator is open-loop: arrivals do not wait for the server, which
	// is what makes overload produce queue growth and drops rather than
	// politely slowing the camera down.
	ArrivalMS float64
}

// Stream is one video session's workload: an ordered arrival schedule.
type Stream struct {
	ID     int
	Frames []TimedFrame

	// Checkpoint, when non-nil, seeds the stream's resilient session from
	// a prior run's ladder state instead of a fresh session — how the
	// cluster layer (internal/cluster) carries a stream's scale schedule,
	// last-good detections and deadline budget across epoch windows and
	// node migrations. GenLoad leaves it nil (fresh streams).
	Checkpoint *adascale.SessionCheckpoint
}

// LoadConfig parameterises the generator.
type LoadConfig struct {
	// Streams is the number of concurrent sessions to generate.
	Streams int

	// FPS is the mean per-stream arrival rate (frames/second). Arrivals
	// are Poisson-ish: exponential inter-arrival times with mean 1000/FPS
	// drawn from a per-stream seeded generator.
	FPS float64

	// FramesPerStream is the number of frames each stream offers.
	FramesPerStream int

	// Seed drives every arrival draw. Each stream draws from its own
	// generator seeded by (Seed, stream ID), so streams are independent
	// and the schedule is identical for any worker count.
	Seed int64
}

// Validate reports configuration errors.
func (c *LoadConfig) Validate() error {
	switch {
	case c.Streams <= 0:
		return fmt.Errorf("serve: load config needs at least one stream, got %d", c.Streams)
	case c.FPS <= 0 || math.IsNaN(c.FPS) || math.IsInf(c.FPS, 0):
		// The NaN/Inf arms matter: NaN fails every comparison, so a plain
		// `<= 0` check would wave a NaN rate through and poison every
		// arrival time downstream (found by FuzzLoadgen).
		return fmt.Errorf("serve: load config needs a positive finite FPS, got %v", c.FPS)
	case c.FramesPerStream <= 0:
		return fmt.Errorf("serve: load config needs frames per stream, got %d", c.FramesPerStream)
	}
	return nil
}

// LastArrivalMS is the latest frame arrival in the load (0 if it has no
// frames): the horizon a fault or cluster plan must cover.
func LastArrivalMS(streams []Stream) float64 {
	last := 0.0
	for _, st := range streams {
		for _, f := range st.Frames {
			last = max(last, f.ArrivalMS)
		}
	}
	return last
}

// GenLoad builds the per-stream arrival schedules. Stream i cycles through
// the snippet list starting at snippet i (so concurrent streams exercise
// different content), flattening frames in order; frames are referenced,
// not copied. Inter-arrival times are exponential with mean 1000/FPS.
func GenLoad(snippets []synth.Snippet, cfg LoadConfig) ([]Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(snippets) == 0 {
		return nil, fmt.Errorf("serve: no snippets to generate load from")
	}
	streams := make([]Stream, cfg.Streams)
	// One generator reseeded per stream: rng's Seed is O(1) where a fresh
	// math/rand source per stream costs 4.9 KB and its whole state.
	r := rng.New(0)
	for id := range streams {
		r.Seed(loadSeed(cfg.Seed, id))
		frames := make([]TimedFrame, 0, cfg.FramesPerStream)
		clock := 0.0
		sn, idx := id%len(snippets), 0
		for len(frames) < cfg.FramesPerStream {
			if idx >= len(snippets[sn].Frames) {
				sn, idx = (sn+1)%len(snippets), 0
				continue
			}
			clock += r.ExpFloat64() * 1000 / cfg.FPS
			frames = append(frames, TimedFrame{Frame: &snippets[sn].Frames[idx], ArrivalMS: clock})
			idx++
		}
		streams[id] = Stream{ID: id, Frames: frames}
	}
	return streams, nil
}

// loadSeed mixes the load seed and stream ID (splitmix64 finaliser) into
// an independent per-stream arrival process, distinct from the dataset
// generation and fault-injection streams.
func loadSeed(base int64, id int) int64 {
	z := uint64(base)*0xBF58476D1CE4E5B9 + uint64(id)*0x9E3779B97F4A7C15 + 0x5EED
	return int64(rng.Mix64(z) & 0x7FFFFFFFFFFFFFFF)
}
