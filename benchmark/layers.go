package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"adascale"
)

// The layer ladder of a traced run: each layer's file times calls into that
// layer's public functions, outside in, on the workload's own frames at the
// scales the workload was observed to test. Every call is a span; a metric
// is the median over the calls unless it says otherwise.

// probeInput is one (frame, scale) pair the workload served.
type probeInput struct {
	f     *adascale.Frame
	scale int
}

type prober struct {
	e     *env
	rec   *recorder
	pairs []probeInput
	out   map[string]float64

	renders []float64 // synth.render ms per pair, for the rfcn probe
}

// probeInputs pairs validation frames (in the seed's order) with scales
// drawn evenly from the observed histogram's quantiles.
func probeInputs(e *env, scales map[int]int, n int) []probeInput {
	var ladder []int
	for s := range scales {
		ladder = append(ladder, s)
	}
	sort.Ints(ladder)
	total := 0
	for _, s := range ladder {
		total += scales[s]
	}
	quantile := func(q float64) int {
		if total == 0 {
			return maxScale
		}
		want, seen := int(q*float64(total)), 0
		for _, s := range ladder {
			seen += scales[s]
			if seen > want {
				return s
			}
		}
		return ladder[len(ladder)-1]
	}
	var frames []*adascale.Frame
	for i := range e.val {
		for j := range e.val[i].Frames {
			frames = append(frames, &e.val[i].Frames[j])
		}
	}
	pairs := make([]probeInput, n)
	for i := range pairs {
		// Stride through the split so the pairs span snippets, and through
		// the histogram so they span its quantiles.
		pairs[i] = probeInput{
			f:     frames[(i*len(frames)/n)%len(frames)],
			scale: quantile((float64(i) + 0.5) / float64(n)),
		}
	}
	return pairs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedEach calls fn once per probe pair under a span each and returns the
// durations in ms.
func (p *prober) timedEach(name string, fn func(i int, in probeInput)) []float64 {
	out := make([]float64, len(p.pairs))
	for i, in := range p.pairs {
		id := p.rec.begin(name, 0, i)
		fn(i, in)
		out[i] = ms(p.rec.end(id))
	}
	return out
}

// minus subtracts the later slices from the first, index by index: the
// part of each call the named inner calls do not account for.
func minus(whole []float64, parts ...[]float64) []float64 {
	out := append([]float64(nil), whole...)
	for _, part := range parts {
		for i := range out {
			out[i] -= part[i]
		}
	}
	return out
}

// timed is the median of timedEach.
func (p *prober) timed(name string, fn func(i int, in probeInput)) float64 {
	return median(p.timedEach(name, fn))
}

// timedN calls fn n times under one span and returns ms per call; for
// operations too short to time singly.
func (p *prober) timedN(name string, n int, fn func()) float64 {
	id := p.rec.begin(name, 0, n)
	for i := 0; i < n; i++ {
		fn()
	}
	return ms(p.rec.end(id)) / float64(n)
}

// allocsPerCall counts heap allocations per call of fn over the probe
// pairs, on this goroutine with the collector's own allocations excluded
// by reading the counter around the whole loop.
func (p *prober) allocsPerCall(fn func(in probeInput)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, in := range p.pairs {
		fn(in)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(p.pairs))
}

// runProbes runs the whole ladder, outside in where a probe reuses an outer
// layer's figure, and returns the per-layer metrics.
func runProbes(e *env, rec *recorder, scales map[int]int) (map[string]float64, error) {
	p := &prober{e: e, rec: rec, pairs: probeInputs(e, scales, e.sz.probeIters), out: map[string]float64{}}
	for _, layer := range []struct {
		name  string
		probe func(*prober) error
	}{
		{"tensor", probeTensor}, {"nn", probeNN}, {"synth", probeSynth}, {"rfcn", probeRFCN},
		{"detect", probeDetect}, {"regressor", probeRegressor}, {"adascale", probeAdaScale},
		{"parallel", probeParallel}, {"server", probeServer}, {"obs", probeObs},
		{"serve", probeServe}, {"cluster", probeCluster}, {"seqnms+eval", probeSeqNMSEval},
		{"simclock", probeSimclock}, {"bench", probeBench},
	} {
		if err := layer.probe(p); err != nil {
			return nil, fmt.Errorf("%s probe: %w", layer.name, err)
		}
	}
	return p.out, nil
}
