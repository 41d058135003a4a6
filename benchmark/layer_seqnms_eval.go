package main

import (
	"adascale"
	"adascale/internal/detect"
	"adascale/internal/eval"
	"adascale/internal/seqnms"
)

// probeSeqNMSEval times the two post-processing stages only offline_eval
// runs: Seq-NMS rescoring of one snippet's detections, and VOC evaluation
// of the snippets probed.
func probeSeqNMSEval(p *prober) error {
	det, reg := p.e.sys.Detector.Clone(), p.e.sys.Regressor.Clone()
	n := min(len(p.e.val), 8)
	perSnippet := make([][][]detect.Detection, n)
	var frames []eval.FrameDetections
	for i := 0; i < n; i++ {
		for _, o := range adascale.RunAdaScale(det, reg, &p.e.val[i]) {
			perSnippet[i] = append(perSnippet[i], o.Detections)
			frames = append(frames, eval.FrameDetections{Detections: o.Detections, GroundTruth: o.Frame.GroundTruth()})
		}
	}
	apply := make([]float64, n)
	for i := range perSnippet {
		id := p.rec.begin("seqnms.apply", 0, i)
		seqnms.Apply(perSnippet[i], seqnms.Options{})
		apply[i] = ms(p.rec.end(id))
	}
	p.out["seqnms.apply_ms_per_snippet"] = median(apply)
	p.out["eval.evaluate_ms"] = p.timedN("eval.evaluate", 3, func() { eval.Evaluate(frames, len(p.e.cfg.Classes)) })
	return nil
}
