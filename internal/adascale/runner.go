package adascale

import (
	"fmt"
	"math/rand"

	"adascale/internal/parallel"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// SnippetRunner runs one testing protocol over one snippet.
type SnippetRunner func(*synth.Snippet) []FrameOutput

// RunnerFactory yields an independent SnippetRunner per worker. The
// parallel dataset runner calls the factory once per worker goroutine, so a
// factory that clones its detector/regressor makes the whole fan-out safe:
// the nn layers cache activations between calls and must not be shared.
type RunnerFactory func() SnippetRunner

// SharedRunner adapts a goroutine-safe runner (one that touches no mutable
// state) into a RunnerFactory without cloning anything.
func SharedRunner(run SnippetRunner) RunnerFactory {
	return func() SnippetRunner { return run }
}

// FixedRunner returns a factory for RunFixed at the given scale. Each
// worker gets its own detector clone.
func FixedRunner(det *rfcn.Detector, scale int) RunnerFactory {
	return func() SnippetRunner {
		d := det.Clone()
		return func(sn *synth.Snippet) []FrameOutput { return RunFixed(d, sn, scale) }
	}
}

// AdaScaleRunner returns a factory for Algorithm 1. Each worker gets its
// own detector and regressor clones (both drive stateful layers).
func AdaScaleRunner(det *rfcn.Detector, reg *regressor.Regressor) RunnerFactory {
	return func() SnippetRunner {
		d, r := det.Clone(), reg.Clone()
		return func(sn *synth.Snippet) []FrameOutput { return RunAdaScale(d, r, sn) }
	}
}

// MultiShotRunner returns a factory for MS/MS testing over scales.
func MultiShotRunner(det *rfcn.Detector, scales []int) RunnerFactory {
	s := append([]int(nil), scales...)
	return func() SnippetRunner {
		d := det.Clone()
		return func(sn *synth.Snippet) []FrameOutput { return RunMultiShot(d, sn, s) }
	}
}

// RandomRunner returns a factory for MS/Random testing. Unlike RunRandom's
// shared stream, the scale draws are seeded per snippet (mixed from seed
// and the snippet ID), so the output is identical for any worker count or
// snippet schedule.
func RandomRunner(det *rfcn.Detector, scales []int, seed int64) RunnerFactory {
	s := append([]int(nil), scales...)
	return func() SnippetRunner {
		d := det.Clone()
		return func(sn *synth.Snippet) []FrameOutput {
			rng := rand.New(rand.NewSource(snippetSeed(seed, sn.ID)))
			return RunRandom(d, sn, s, rng)
		}
	}
}

// snippetSeed mixes a base seed and a snippet ID (splitmix64 finaliser)
// into an independent per-snippet stream.
func snippetSeed(base int64, id int) int64 {
	z := uint64(base) + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// RunDataset fans the snippets of a split across the worker pool (see
// internal/parallel; the -workers flag and parallel.SetWorkers bound it)
// and concatenates the per-snippet outputs in snippet order. Snippets are
// independent by construction — all detector randomness derives from
// per-frame seeds — so the output stream is identical to RunDatasetSerial
// for any worker count.
func RunDataset(snippets []synth.Snippet, factory RunnerFactory) []FrameOutput {
	perSnippet := parallel.MapWorkers(len(snippets), factory,
		func(run SnippetRunner, i int) []FrameOutput { return run(&snippets[i]) })
	out := make([]FrameOutput, 0, totalFrames(snippets))
	for _, outs := range perSnippet {
		out = append(out, outs...)
	}
	return out
}

// SnippetError reports a snippet whose runner panicked during
// RunDatasetPartial; the run continued without it.
type SnippetError struct {
	// Index is the snippet's position in the input slice; ID its synth ID.
	Index int
	ID    int
	Err   error
}

// Error implements the error interface.
func (e SnippetError) Error() string {
	return fmt.Sprintf("snippet %d (index %d): %v", e.ID, e.Index, e.Err)
}

// RunDatasetPartial is RunDataset with graceful degradation: a snippet
// whose runner panics is recovered into a SnippetError (the last rung of
// the degradation ladder) and its frames are emitted as explicit
// FallbackPanic placeholders — no detections, but full accounting — so one
// poisoned snippet cannot take down a whole evaluation. Errors come back
// sorted by snippet index. With no panics the output is byte-identical to
// RunDataset.
func RunDatasetPartial(snippets []synth.Snippet, factory RunnerFactory) ([]FrameOutput, []SnippetError) {
	perSnippet, itemErrs := parallel.MapWorkersPartial(len(snippets), factory,
		func(run SnippetRunner, i int) []FrameOutput { return run(&snippets[i]) })
	errs := make([]SnippetError, len(itemErrs))
	for k, ie := range itemErrs {
		errs[k] = SnippetError{Index: ie.Index, ID: snippets[ie.Index].ID, Err: ie.Err}
		// Replace the zero-value slot with per-frame placeholders so the
		// output stream still accounts for every frame of the dataset.
		sn := &snippets[ie.Index]
		outs := make([]FrameOutput, len(sn.Frames))
		for j := range sn.Frames {
			f := &sn.Frames[j]
			var h Health
			if f.Fault != nil {
				h.Fault = f.Fault.Kind
			}
			h.Fallback = FallbackPanic
			outs[j] = FrameOutput{Frame: f, Scale: InitialScale, Health: h}
		}
		perSnippet[ie.Index] = outs
	}
	out := make([]FrameOutput, 0, totalFrames(snippets))
	for _, outs := range perSnippet {
		out = append(out, outs...)
	}
	return out, errs
}

// RunDatasetSerial applies a per-snippet runner across a split on the
// calling goroutine and concatenates the outputs — the reference the
// determinism tests compare the parallel runner against.
func RunDatasetSerial(snippets []synth.Snippet, run SnippetRunner) []FrameOutput {
	out := make([]FrameOutput, 0, totalFrames(snippets))
	for i := range snippets {
		out = append(out, run(&snippets[i])...)
	}
	return out
}

// totalFrames pre-sizes dataset-runner outputs: one output per frame.
func totalFrames(snippets []synth.Snippet) int {
	n := 0
	for i := range snippets {
		n += len(snippets[i].Frames)
	}
	return n
}
