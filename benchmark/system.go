package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"adascale"
)

// corpusSeed fixes the generated corpus and therefore the trained system,
// and planSeed the cluster event plan. A workload must offer the same amount
// of work at every seed, or the spread between seeds swamps any bound: the
// work a frame costs depends on its content (the regressor picks the scale),
// and a corpus drawn from -seed moved throughput by 40 % between seeds; a
// ten-event cluster plan's mix of joins and blackouts decides how many
// sessions each node scans, and plans drawn from -seed moved cluster_model by
// 38 %. -seed instead drives everything about the load that leaves the
// amount of work alone: the order of the snippets, which content each HTTP
// stream starts on, every arrival process and phase, and the HTTP server's
// frame seed.
const (
	corpusSeed = 1
	planSeed   = 1 // 3 joins, 3 leaves, 2 blackouts, 2 migrations in 1.5 virtual seconds
)

// sizes fixes how much work the workloads do. The full sizes are the
// benchmark; the smoke sizes only prove every path runs (unit test, -smoke).
type sizes struct {
	train, val int
	pinned     bool    // the corpus is the one the pinned quality values were taken on
	setupReps  int     // set-ups timed per run; setup_s is their median
	refReps    int     // repetitions of the reference kernel per timing
	idleEvents int     // wake-ups per timing of the idle reference
	oneSegment bool    // measure a single segment whatever -seconds says
	warmS      float64 // unmeasured lead-in of the HTTP workloads
	prefix     int     // http_closed frames per stream checked against the reference session

	fanStreams, fanPerPost int
	fanFPS                 float64

	desStreams, desFrames int
	desFPS                float64

	clNodes, clStreams, clFrames int
	clFPS                        float64

	probeIters int // timed calls per layer probe
	probeSched int // streams of the large scheduler-only probe
	probeRing  int // keys of the ring-assignment probe
	probeObs   int // samples of the registry render/merge probes
}

func (sz sizes) warmUp() time.Duration { return time.Duration(sz.warmS * float64(time.Second)) }

var fullSizes = sizes{
	train: 16, val: 48, pinned: true, setupReps: 2, refReps: refReps, idleEvents: 16, warmS: 1, prefix: 64,
	fanStreams: 32, fanPerPost: 4, fanFPS: 8,
	desStreams: 16, desFrames: 40, desFPS: 4,
	clNodes: 16, clStreams: 12000, clFrames: 30, clFPS: 30,
	probeIters: 24, probeSched: 10000, probeRing: 30000, probeObs: 100000,
}

var smokeSizes = sizes{
	train: 3, val: 4, setupReps: 1, refReps: 1, idleEvents: 2, oneSegment: true, warmS: 0.05, prefix: 4,
	fanStreams: 4, fanPerPost: 2, fanFPS: 20,
	desStreams: 3, desFrames: 4, desFPS: 8,
	clNodes: 3, clStreams: 12, clFrames: 4, clFPS: 30,
	probeIters: 2, probeSched: 50, probeRing: 200, probeObs: 500,
}

// env is the system under test plus the seeded view of it the workloads
// share.
type env struct {
	seed  int64
	nproc int
	sz    sizes

	cfg    adascale.DatasetConfig
	sys    *adascale.System
	corpus []adascale.Snippet // the validation split as generated
	val    []adascale.Snippet // the validation split in this seed's order
}

// mix derives an independent seed for one purpose (splitmix64 finaliser).
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// buildEnv generates the corpus and trains the system (the paper's Fig. 2
// methodology), then orders the validation snippets by the seed.
func buildEnv(seed int64, sz sizes) (*env, error) {
	cfg := adascale.VIDLike(corpusSeed)
	ds, err := adascale.Generate(cfg, sz.train, sz.val)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	e := &env{
		seed:   seed,
		nproc:  runtime.GOMAXPROCS(0),
		sz:     sz,
		cfg:    cfg,
		sys:    adascale.Build(ds, adascale.DefaultBuildConfig()),
		corpus: ds.Val,
		val:    append([]adascale.Snippet(nil), ds.Val...),
	}
	rand.New(rand.NewSource(mix(seed, 1))).Shuffle(len(e.val), func(i, j int) {
		e.val[i], e.val[j] = e.val[j], e.val[i]
	})
	return e, nil
}

// valFrames counts the validation frames.
func (e *env) valFrames() int {
	n := 0
	for i := range e.val {
		n += len(e.val[i].Frames)
	}
	return n
}

// timedSetup runs setup reps times and returns the last result with the
// median duration, in reference seconds and raw. The earlier results are
// closed as soon as they are timed; a single set-up varies by ±10 % on a
// shared two-core box, which is why setup_s is a median. The reference
// kernel is timed around each set-up, as it is around each segment.
func timedSetup[T any](reps int, cal *calibrator, setup func() (T, error), discard func(T)) (last T, ref, raw float64, err error) {
	var refs, raws []float64
	kernelBefore := cal.sample()
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, 0, err
		}
		secs := time.Since(t0).Seconds()
		kernelAfter := cal.sample()
		raws = append(raws, secs)
		refs = append(refs, secs/cal.speed(kernelBefore, kernelAfter))
		kernelBefore = kernelAfter
		last = v
	}
	return last, median(refs), median(raws), nil
}
