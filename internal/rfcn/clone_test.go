package rfcn

import (
	"testing"
)

// TestCloneProducesIdenticalOutputs: a clone must reproduce the original's
// detections and features exactly (the parallel dataset runner relies on
// clones being behaviourally indistinguishable).
func TestCloneProducesIdenticalOutputs(t *testing.T) {
	ds := testDataset(t, 31, 2, 1)
	det := New(&ds.Config, []int{600, 480, 360, 240})
	clone := det.Clone()

	for _, scale := range []int{600, 360} {
		for i := range ds.Val[0].Frames {
			f := &ds.Val[0].Frames[i]
			a := det.DetectWithFeatures(f, scale)
			b := clone.DetectWithFeatures(f, scale)
			ap, bp := a.PlainDetections(), b.PlainDetections()
			if len(ap) != len(bp) {
				t.Fatalf("frame %d scale %d: %d vs %d detections", i, scale, len(ap), len(bp))
			}
			for j := range ap {
				if ap[j] != bp[j] {
					t.Fatalf("frame %d scale %d detection %d differs", i, scale, j)
				}
			}
			ad, bd := a.Features.Data(), b.Features.Data()
			if len(ad) != len(bd) {
				t.Fatalf("feature sizes differ: %d vs %d", len(ad), len(bd))
			}
			for j := range ad {
				if ad[j] != bd[j] {
					t.Fatalf("frame %d scale %d feature %d: %v vs %v", i, scale, j, ad[j], bd[j])
				}
			}
		}
	}
}

// TestCloneIsIndependent: mutating a clone's backbone weights must not leak
// into the original (and vice versa) — the isolation the per-worker clones
// depend on.
func TestCloneIsIndependent(t *testing.T) {
	ds := testDataset(t, 32, 2, 1)
	det := New(&ds.Config, []int{600, 480, 360, 240})
	f := &ds.Val[0].Frames[0]
	before := det.DetectWithFeatures(f, 480)

	clone := det.Clone()
	w := clone.backbone.conv2.Weight.W.Data()
	for i := range w {
		w[i] += 7
	}
	clone.TrainScales[0] = -1

	after := det.DetectWithFeatures(f, 480)
	bp, ap := before.PlainDetections(), after.PlainDetections()
	if len(bp) != len(ap) {
		t.Fatal("mutating the clone changed the original's detections")
	}
	for j := range bp {
		if bp[j] != ap[j] {
			t.Fatal("mutating the clone changed the original's detections")
		}
	}
	bd, ad := before.Features.Data(), after.Features.Data()
	for j := range bd {
		if bd[j] != ad[j] {
			t.Fatal("mutating the clone changed the original's features")
		}
	}
	if det.TrainScales[0] == -1 {
		t.Fatal("TrainScales is shared between clone and original")
	}
}
