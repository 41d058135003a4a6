package adascale

import (
	"adascale/internal/obs"
	"adascale/internal/simclock"
	"adascale/internal/synth"
)

// This file connects the pipeline's cost accounting to the obs tracing
// layer. Every FrameOutput already carries the modelled cost of its frame
// (DetectorMS, OverheadMS, SeqNMSMS); frameSpans decomposes those numbers
// into per-stage spans on a per-snippet virtual clock, so a trace is a
// pure function of the outputs — byte-identical across runs and worker
// counts — and the stage durations sum to the frame's TotalMS within ulps.
//
// Spans are built in one place per driver: TracedRunner derives them post
// hoc from the finished outputs of any offline method, and the serving
// step (serve.Core.Settle) calls ResilientSession.FrameSpans at dispatch.
// Both record the modelled durations only; measured wall time is the
// repository benchmark's.

// frameSpans appends one frame's pipeline-stage spans to buf, advancing
// the snippet-local virtual clock, and returns the grown buffer and new
// clock. Stages that cost nothing on this frame are omitted, except
// fault-inject, which is recorded at zero duration whenever a fault was
// observed (injection is modelled as free but the trace should show it).
func frameSpans(buf []obs.Span, stream, frame int, clockMS float64, o FrameOutput, cost *simclock.Model) ([]obs.Span, float64) {
	decodeMS, rescaleMS, backboneMS := cost.SplitDetectMS(o.DetectorMS)
	add := func(st obs.Stage, durMS float64) {
		buf = append(buf, obs.Span{Stream: stream, Frame: frame, Stage: st, StartMS: clockMS, DurMS: durMS})
		clockMS += durMS
	}
	if decodeMS > 0 {
		add(obs.StageDecode, decodeMS)
	}
	if o.Health.Fault != synth.FaultNone {
		add(obs.StageFaultInject, 0)
	}
	if rescaleMS > 0 {
		add(obs.StageRescale, rescaleMS)
	}
	if backboneMS > 0 {
		add(obs.StageDetect, backboneMS)
	}
	if o.OverheadMS > 0 {
		add(obs.StageRegress, o.OverheadMS)
	}
	if o.SeqNMSMS > 0 {
		add(obs.StageSeqNMS, o.SeqNMSMS)
	}
	return buf, clockMS
}

// FrameSpans returns the spans of a frame this session finished, starting
// at startMS on the caller's clock — the entry point for callers that own
// their own notion of time, like the serving scheduler, whose frames start
// at true event-loop timestamps rather than on a snippet-local clock.
func (s *ResilientSession) FrameSpans(stream, frame int, startMS float64, o FrameOutput) []obs.Span {
	spans, _ := frameSpans(nil, stream, frame, startMS, o, s.cost)
	return spans
}

// TracedRunner wraps a factory so every runner it produces records
// pipeline-stage spans into tr, derived from each snippet's finished
// outputs and the cost model of the factory's detector (stream = snippet
// ID, frame = index within the snippet, clock starting at 0 per snippet).
// Each worker buffers its snippet's spans locally and merges them with one
// Add, so the tracer's canonical order — and therefore Format() — is
// identical at any worker count. A nil tracer returns the factory unchanged.
func TracedRunner(cost *simclock.Model, factory RunnerFactory, tr *obs.Tracer) RunnerFactory {
	if tr == nil {
		return factory
	}
	return func() SnippetRunner {
		run := factory()
		return func(sn *synth.Snippet) []FrameOutput {
			outs := run(sn)
			spans := make([]obs.Span, 0, 4*len(outs))
			clock := 0.0
			for i := range outs {
				spans, clock = frameSpans(spans, sn.ID, i, clock, outs[i], cost)
			}
			tr.Add(spans)
			return outs
		}
	}
}
