package main

import (
	"fmt"
	"math"
	"sort"

	"adascale"
)

// offline_eval is the paper's own use of the system: Algorithm 1 over the
// whole validation split, Seq-NMS rescoring, VOC evaluation (regenerate
// Table 1). It is compute-bound through rfcn/nn/tensor/regressor with no
// serving stack, so kernel work shows here and serving-loop work must not.
// One segment is one pass over the split with workers = nproc.

// pinnedOfflineMAP is the quality gate: the corpus is fixed, so the mAP of
// a pass is the same number at every seed, and a change that moves it has
// changed the detector's arithmetic, not its speed.
const pinnedOfflineMAP = 0.6375375676647604

type offlineEval struct {
	e *env
}

func prepareOfflineEval(e *env) (instance, error) {
	adascale.SetWorkers(e.nproc)
	return &offlineEval{e: e}, nil
}

// seqNMSed wraps a runner so each snippet's detections are rescored by
// Seq-NMS on the worker that produced them. With a recorder, the runner and
// the rescoring are spans under the pass.
func seqNMSed(base adascale.RunnerFactory, rec *recorder, pass *int) adascale.RunnerFactory {
	return func() adascale.SnippetRunner {
		run := base()
		return func(sn *adascale.Snippet) []adascale.FrameOutput {
			id := rec.begin("adascale.run_snippet", *pass, sn.ID)
			outs := run(sn)
			rec.end(id)
			id = rec.begin("seqnms.apply", *pass, sn.ID)
			perFrame := make([][]adascale.Detection, len(outs))
			for i := range outs {
				perFrame[i] = outs[i].Detections
			}
			rescored := adascale.ApplySeqNMS(perFrame, adascale.SeqNMSOptions{})
			for i := range outs {
				outs[i].Detections = rescored[i]
			}
			rec.end(id)
			return outs
		}
	}
}

// canonical reorders a pass's outputs (concatenated in the seed's snippet
// order) by snippet ID, so evaluation sees the same sequence at every seed.
func (o *offlineEval) canonical(outs []adascale.FrameOutput) []adascale.FrameOutput {
	bySnippet := make(map[int][]adascale.FrameOutput, len(o.e.val))
	ids := make([]int, len(o.e.val))
	at := 0
	for i := range o.e.val {
		n := len(o.e.val[i].Frames)
		ids[i] = o.e.val[i].ID
		bySnippet[ids[i]] = outs[at : at+n]
		at += n
	}
	sort.Ints(ids)
	ordered := make([]adascale.FrameOutput, 0, len(outs))
	for _, id := range ids {
		ordered = append(ordered, bySnippet[id]...)
	}
	return ordered
}

func (o *offlineEval) measure(seconds float64, rec *recorder) (*window, error) {
	var digests []uint64
	var maps []float64
	scales := map[int]int{}
	badScale, scalesOK := 0, true
	want := o.e.valFrames()

	pass := 0
	factory := seqNMSed(adascale.AdaScaleRunner(o.e.sys.Detector, o.e.sys.Regressor), rec, &pass)
	w, err := runSegments(o.e, seconds, 0, false, func(i int) (int, []float64, error) {
		pass = rec.begin("offline_eval.pass", 0, i)
		outs := adascale.RunDataset(o.e.val, factory)
		id := rec.begin("eval.evaluate", pass, i)
		ordered := o.canonical(outs)
		res := adascale.Evaluate(adascale.ToEval(ordered), len(o.e.cfg.Classes))
		rec.end(id)
		rec.end(pass)
		if len(outs) != want {
			return 0, nil, fmt.Errorf("offline_eval: pass served %d frames, want %d", len(outs), want)
		}
		if i >= 0 {
			digests = append(digests, digestOutputs(ordered))
			maps = append(maps, res.MAP)
			if bad, ok := countScales(scales, outs); !ok && scalesOK {
				badScale, scalesOK = bad, false
			}
		}
		return len(outs), nil, nil
	})
	if err != nil {
		return nil, err
	}
	w.scales = scales
	w.attempted = w.servedFrames()
	w.sameDigests("offline_eval.digest_equal_across_segments", digests)
	w.verify("offline_eval.scales_within_s_reg", scalesOK, fmt.Sprintf("scale %d outside [%d, %d]", badScale, minScale, maxScale))
	if o.e.sz.pinned {
		w.verify("offline_eval.quality_map_pinned", math.Abs(maps[0]-pinnedOfflineMAP) < 1e-12,
			fmt.Sprintf("mAP %.16f, pinned %.16f", maps[0], pinnedOfflineMAP))
	}
	w.quality = maps[0]
	return w, nil
}

func (o *offlineEval) finish(*window) {}
