// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic substrate: Table 1a/1b (main
// results), Table 2 (S_train ablation), Table 3 (regressor architecture
// ablation), Fig. 5 (precision-recall curves), Fig. 6 (normalised TP/FP),
// Fig. 7 (speed/accuracy Pareto with DFF and Seq-NMS), Fig. 9 (scale
// dynamics), Fig. 10 (regressed-scale distributions), and the Fig. 1/8
// qualitative examples. Each experiment returns a structured result and
// can print the paper-style rows.
package experiments

import (
	"fmt"
	"io"

	"adascale/internal/adascale"
	"adascale/internal/eval"
	"adascale/internal/obs"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// Config sizes an experiment bundle.
type Config struct {
	// Dataset selects "vid" (default) or "ytbb".
	Dataset string

	// TrainSnippets / ValSnippets size the corpus; zero values pick
	// defaults that run in tens of seconds on a laptop CPU.
	TrainSnippets, ValSnippets int

	Seed int64
}

// Bundle holds the dataset and trained systems shared across experiments.
// Systems per S_train set and per regressor architecture are built lazily
// and memoised.
type Bundle struct {
	Cfg Config
	DS  *synth.Dataset

	// SS is the single-scale baseline detector (trained at 600 only).
	SS *rfcn.Detector

	// Trace, when non-nil, records pipeline-stage spans for every method
	// any experiment evaluates (each runner factory is wrapped with
	// adascale.TracedRunner). The caller owns the tracer's lifecycle —
	// the bench harness resets it between experiments to attribute stage
	// time per experiment.
	Trace *obs.Tracer

	systems map[string]*adascale.System
}

// Prepare generates the dataset and the SS baseline.
func Prepare(cfg Config) (*Bundle, error) {
	if cfg.TrainSnippets == 0 {
		cfg.TrainSnippets = 60
	}
	if cfg.ValSnippets == 0 {
		cfg.ValSnippets = 30
	}
	var dcfg synth.Config
	switch cfg.Dataset {
	case "", "vid":
		cfg.Dataset = "vid"
		dcfg = synth.VIDLike(cfg.Seed)
	case "ytbb":
		dcfg = synth.MiniYTBBLike(cfg.Seed)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q (want vid or ytbb)", cfg.Dataset)
	}
	ds, err := synth.Generate(dcfg, cfg.TrainSnippets, cfg.ValSnippets)
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Cfg:     cfg,
		DS:      ds,
		SS:      rfcn.NewSS(&ds.Config),
		systems: map[string]*adascale.System{},
	}, nil
}

// System returns (building and memoising on first use) the trained AdaScale
// system for the given S_train set and regressor kernel set.
func (b *Bundle) System(trainScales, kernels []int) *adascale.System {
	key := fmt.Sprintf("%v|%v", trainScales, kernels)
	if sys, ok := b.systems[key]; ok {
		return sys
	}
	bc := adascale.DefaultBuildConfig()
	bc.TrainScales = trainScales
	bc.Kernels = kernels
	sys := adascale.Build(b.DS, bc)
	b.systems[key] = sys
	return sys
}

// DefaultSystem returns the paper's default configuration: S_train =
// {600,480,360,240}, kernels {1,3}.
func (b *Bundle) DefaultSystem() *adascale.System {
	return b.System([]int{600, 480, 360, 240}, regressor.DefaultKernels)
}

// Classes returns the dataset's class names.
func (b *Bundle) Classes() []string {
	names := make([]string, len(b.DS.Config.Classes))
	for i, c := range b.DS.Config.Classes {
		names[i] = c.Name
	}
	return names
}

// MethodRow is one evaluated method: mAP, modelled runtime, per-class AP.
type MethodRow struct {
	Name       string
	MAP        float64
	RuntimeMS  float64
	MeanScale  float64
	PerClassAP []float64

	outputs []adascale.FrameOutput
	result  *eval.Result
}

// Outputs exposes the raw per-frame outputs (for follow-on analyses).
func (m *MethodRow) Outputs() []adascale.FrameOutput { return m.outputs }

// Result exposes the full evaluation (PR curves, TP/FP counts).
func (m *MethodRow) Result() *eval.Result { return m.result }

// ToEval converts pipeline outputs into evaluation inputs.
func ToEval(outputs []adascale.FrameOutput) []eval.FrameDetections {
	out := make([]eval.FrameDetections, len(outputs))
	for i, o := range outputs {
		out[i] = eval.FrameDetections{Detections: o.Detections, GroundTruth: o.Frame.GroundTruth()}
	}
	return out
}

// evaluateMethod runs a per-snippet runner factory over the validation
// split (in parallel, one runner per worker) and scores it.
func (b *Bundle) evaluateMethod(name string, factory adascale.RunnerFactory) MethodRow {
	return b.evaluateMethodOn(name, b.DS.Val, factory)
}

// evaluateMethodOn is evaluateMethod over an arbitrary snippet set — the
// robustness sweep scores the same runners on fault-injected copies of the
// validation split. Every detector here carries b.SS's cost model.
func (b *Bundle) evaluateMethodOn(name string, snippets []synth.Snippet, factory adascale.RunnerFactory) MethodRow {
	outputs := adascale.RunDataset(snippets, adascale.TracedRunner(b.SS.Cost(), factory, b.Trace))
	res := eval.Evaluate(ToEval(outputs), len(b.DS.Config.Classes))
	per := make([]float64, len(res.PerClass))
	for i, c := range res.PerClass {
		per[i] = c.AP
	}
	return MethodRow{
		Name:       name,
		MAP:        res.MAP,
		RuntimeMS:  adascale.MeanRuntimeMS(outputs),
		MeanScale:  adascale.MeanScale(outputs),
		PerClassAP: per,
		outputs:    outputs,
		result:     res,
	}
}

// StandardMethods evaluates the five methods of Sec. 4.3 on the validation
// split: SS/SS, MS/SS, MS/MS, MS/Random and MS/AdaScale.
func (b *Bundle) StandardMethods() []MethodRow {
	sys := b.DefaultSystem()
	return []MethodRow{
		b.evaluateMethod("SS/SS", adascale.FixedRunner(b.SS, 600)),
		b.evaluateMethod("MS/SS", adascale.FixedRunner(sys.Detector, 600)),
		b.evaluateMethod("MS/MS", adascale.MultiShotRunner(sys.Detector, []int{600, 480, 360, 240})),
		b.evaluateMethod("MS/Random", adascale.RandomRunner(sys.Detector, regressor.SReg, b.Cfg.Seed+101)),
		b.evaluateMethod("MS/AdaScale", adascale.AdaScaleRunner(sys.Detector, sys.Regressor)),
	}
}

// classIndex returns the index of the named class, or -1.
func (b *Bundle) classIndex(name string) int {
	for i, c := range b.DS.Config.Classes {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// printRuler writes a separator line sized to the preceding header.
func printRuler(w io.Writer, n int) {
	line := make([]byte, n)
	for i := range line {
		line[i] = '-'
	}
	fmt.Fprintf(w, "%s\n", line)
}

// scalesString renders a scale set compactly, e.g. "{600,480,360,240}".
func scalesString(scales []int) string {
	s := "{"
	for i, v := range scales {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", v)
	}
	return s + "}"
}
