package experiments

import (
	"fmt"
	"io"

	"adascale/internal/adascale"
	"adascale/internal/detect"
	"adascale/internal/dff"
	"adascale/internal/seqnms"
	"adascale/internal/simclock"
	"adascale/internal/synth"
)

// ParetoPoint is one system on the Fig. 7 speed/accuracy plane.
type ParetoPoint struct {
	Name      string
	MAP       float64
	RuntimeMS float64
	FPS       float64
}

// Fig7Result is the paper's comparison with prior video-acceleration work:
// R-FCN, DFF and Seq-NMS, each with and without AdaScale.
type Fig7Result struct {
	Points []ParetoPoint
}

// Fig7 evaluates the six Pareto points of the paper's Fig. 7.
func (b *Bundle) Fig7() *Fig7Result {
	sys := b.DefaultSystem()
	dffCfg := dff.DefaultConfig()

	methods := []struct {
		name    string
		factory adascale.RunnerFactory
	}{
		{name: "R-FCN", factory: adascale.FixedRunner(b.SS, 600)},
		{name: "R-FCN+AdaScale", factory: adascale.AdaScaleRunner(sys.Detector, sys.Regressor)},
		{name: "DFF", factory: dff.Runner(sys.Detector, 600, dffCfg)},
		{name: "DFF+AdaScale", factory: dff.AdaptiveRunner(sys.Detector, sys.Regressor, dffCfg)},
		{name: "SeqNMS", factory: withSeqNMS(b.SS.Cost(), adascale.FixedRunner(b.SS, 600))},
		{name: "SeqNMS+AdaScale", factory: withSeqNMS(sys.Detector.Cost(), adascale.AdaScaleRunner(sys.Detector, sys.Regressor))},
	}

	res := &Fig7Result{}
	for _, m := range methods {
		row := b.evaluateMethod(m.name, m.factory)
		res.Points = append(res.Points, ParetoPoint{
			Name:      m.name,
			MAP:       row.MAP,
			RuntimeMS: row.RuntimeMS,
			FPS:       1000 / row.RuntimeMS,
		})
	}
	return res
}

// withSeqNMS composes Seq-NMS post-processing onto a base runner factory,
// costed by the base detector's model. Seq-NMS itself touches no shared
// state, so wrapping preserves the base factory's per-worker isolation.
func withSeqNMS(cost *simclock.Model, base adascale.RunnerFactory) adascale.RunnerFactory {
	return func() adascale.SnippetRunner {
		run := base()
		return func(sn *synth.Snippet) []adascale.FrameOutput {
			return applySeqNMS(run(sn), cost.SeqNMSMS)
		}
	}
}

// applySeqNMS reruns Seq-NMS over one snippet's outputs and charges its
// amortised per-frame post-processing cost, perFrameMS.
func applySeqNMS(outputs []adascale.FrameOutput, perFrameMS float64) []adascale.FrameOutput {
	frames := make([][]detect.Detection, len(outputs))
	for i, o := range outputs {
		frames[i] = o.Detections
	}
	rescored := seqnms.Apply(frames, seqnms.Options{})
	out := make([]adascale.FrameOutput, len(outputs))
	copy(out, outputs)
	for i := range out {
		out[i].Detections = rescored[i]
		// Charged to the dedicated SeqNMSMS field (not OverheadMS) so the
		// tracer attributes it as the seqnms stage; TotalMS is unchanged.
		out[i].SeqNMSMS += perFrameMS
	}
	return out
}

// Print writes the Pareto points.
func (f *Fig7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 7: mAP and speed comparison with prior work")
	header := fmt.Sprintf("%-18s %8s %12s %8s", "system", "mAP", "runtime(ms)", "FPS")
	fmt.Fprintln(w, header)
	printRuler(w, len(header))
	for _, p := range f.Points {
		fmt.Fprintf(w, "%-18s %8.1f %12.1f %8.1f\n", p.Name, p.MAP*100, p.RuntimeMS, p.FPS)
	}
	speedup := func(a, b string) float64 {
		var fa, fb float64
		for _, p := range f.Points {
			if p.Name == a {
				fa = p.FPS
			}
			if p.Name == b {
				fb = p.FPS
			}
		}
		if fb == 0 {
			return 0
		}
		return fa / fb
	}
	fmt.Fprintf(w, "AdaScale extra speedup: DFF %.2fx (paper 1.25x), SeqNMS %.2fx (paper 1.61x)\n\n",
		speedup("DFF+AdaScale", "DFF"), speedup("SeqNMS+AdaScale", "SeqNMS"))
}
