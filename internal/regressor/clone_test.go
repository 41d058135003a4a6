package regressor

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"adascale/internal/tensor"
)

// TestCloneProducesIdenticalPredictions: a cloned regressor must predict
// exactly what the original predicts on the same features.
func TestCloneProducesIdenticalPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := New(rng, DefaultKernels)
	c := r.Clone()
	for i := 0; i < 5; i++ {
		feats := randFeatures(rng, 4+i, 5+i)
		if got, want := c.Forward(feats), r.Forward(feats); got != want {
			t.Fatalf("clone predicts %v, original %v", got, want)
		}
	}
}

// TestCloneIsIndependent: training the clone must leave the original's
// weights (and therefore its predictions) untouched, and vice versa.
func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	r := New(rng, DefaultKernels)
	feats := randFeatures(rng, 6, 6)
	want := r.Forward(feats)

	c := r.Clone()
	labels := []Label{
		{Target: 0.8, Features: randFeatures(rng, 6, 6)},
		{Target: -0.5, Features: randFeatures(rng, 6, 6)},
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	c.Fit(labels, cfg)

	if got := r.Forward(feats); got != want {
		t.Fatalf("training the clone moved the original: %v -> %v", want, got)
	}
	if c.Forward(feats) == want {
		t.Fatal("training the clone did not change the clone (suspicious sharing)")
	}

	// The clone must not share Param objects with the original.
	rp, cp := r.Params(), c.Params()
	if len(rp) != len(cp) {
		t.Fatalf("param counts differ: %d vs %d", len(rp), len(cp))
	}
	for i := range rp {
		if rp[i] == cp[i] {
			t.Fatalf("param %d (%s) is shared between clone and original", i, rp[i].Name)
		}
	}
}

// TestCloneHasNoSharedActivationState: interleaving forward/backward on the
// original and the clone must not corrupt either — the property the
// per-worker clones in the parallel runner rely on.
func TestCloneHasNoSharedActivationState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := New(rng, DefaultKernels)
	c := r.Clone()

	fa := randFeatures(rng, 5, 7)
	fb := randFeatures(rng, 9, 3)

	wantA, wantB := r.Forward(fa), r.Forward(fb)
	gotA := c.Forward(fa)
	// Interleave: original forwards fb while the clone still holds fa's
	// cached activations, then both backprop.
	if got := r.Forward(fb); got != wantB {
		t.Fatalf("original disturbed by clone activity: %v vs %v", got, wantB)
	}
	c.Backward(0.1)
	r.Backward(0.2)
	if gotA != wantA {
		t.Fatalf("clone prediction %v, want %v", gotA, wantA)
	}
}

// TestTrainingStepAllocatesNothing: once every layer's scratch has grown to
// the largest feature map, a training sample — Forward then Backward, at
// whichever of the S_reg sizes comes next — allocates nothing. (It was 105
// allocations a sample, four 8×H×W activations per branch among them.)
func TestTrainingStepAllocatesNothing(t *testing.T) {
	if !syncPoolRetains() {
		t.Skip("sync.Pool drops items under the race detector; ConvInto's plan is reallocated")
	}
	rng := rand.New(rand.NewSource(14))
	r := New(rng, DefaultKernels)
	feats := []*tensor.Tensor{randFeatures(rng, 19, 34), randFeatures(rng, 4, 8), randFeatures(rng, 12, 20)}
	step := func() {
		for _, f := range feats {
			r.Backward(r.Forward(f) - 0.5)
		}
	}
	step()
	if got := testing.AllocsPerRun(20, step); got != 0 {
		t.Fatalf("a warmed training step allocates %v times per %d samples, want 0", got, len(feats))
	}
}

// syncPoolRetains reports whether a sync.Pool hands back what was just Put;
// under the race detector it deliberately drops a quarter of all Puts.
func syncPoolRetains() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 64; i++ {
		p.Put(p.Get())
	}
	return news == 1
}

// TestCloneRetainsNoTrainingScratch: a trained regressor holds activation
// and weight-gradient scratch sized for the largest feature map it saw; a
// clone — what every serving worker runs — must reach nothing but the
// parameters, their gradients and a few words of head scratch.
func TestCloneRetainsNoTrainingScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := New(rng, DefaultKernels)
	r.Fit([]Label{
		{Target: 0.3, Features: randFeatures(rng, 19, 34)},
		{Target: -0.2, Features: randFeatures(rng, 8, 14)},
	}, DefaultTrainConfig())

	params := 0
	for _, p := range r.Params() {
		params += p.W.Size()
	}
	if got := reachableElems(reflect.ValueOf(r), map[uintptr]bool{}); got < 2*params+8*19*34 {
		t.Fatalf("trained regressor reaches %d slice elements: the walk misses its scratch", got)
	}
	c := r.Clone()
	if got, most := reachableElems(reflect.ValueOf(c), map[uintptr]bool{}), 2*params+64; got > most {
		t.Fatalf("clone reaches %d slice elements, want <= %d (2×%d parameters)", got, most, params)
	}
}

// reachableElems sums the capacities of every numeric or bool slice
// reachable from v, unexported fields included, counting shared storage once.
func reachableElems(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() || (v.Kind() == reflect.Ptr && seen[v.Pointer()]) {
			return 0
		}
		if v.Kind() == reflect.Ptr {
			seen[v.Pointer()] = true
		}
		return reachableElems(v.Elem(), seen)
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += reachableElems(v.Field(i), seen)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += reachableElems(v.Index(i), seen)
		}
		return n
	case reflect.Slice:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		switch v.Type().Elem().Kind() {
		case reflect.Float32, reflect.Float64, reflect.Bool, reflect.Int:
			return v.Cap()
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += reachableElems(v.Index(i), seen)
		}
		return n
	}
	return 0
}
