package detect

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBoxGeometry(t *testing.T) {
	b := Box{X1: 10, Y1: 20, X2: 40, Y2: 80}
	if b.W() != 30 || b.H() != 60 || b.Area() != 1800 {
		t.Fatalf("W/H/Area = %v/%v/%v", b.W(), b.H(), b.Area())
	}
	cx, cy := b.Center()
	if cx != 25 || cy != 50 {
		t.Fatalf("Center = %v,%v", cx, cy)
	}
	if b.Shortest() != 30 {
		t.Fatalf("Shortest = %v", b.Shortest())
	}
	s := b.Scaled(0.5)
	if s.X1 != 5 || s.Y2 != 40 {
		t.Fatalf("Scaled = %v", s)
	}
	sh := b.Shifted(1, -2)
	if sh.X1 != 11 || sh.Y1 != 18 {
		t.Fatalf("Shifted = %v", sh)
	}
	deg := Box{X1: 5, Y1: 5, X2: 5, Y2: 10}
	if deg.W() != 0 || deg.Area() != 0 {
		t.Fatal("degenerate box must have zero width/area")
	}
}

func TestIoUKnownValues(t *testing.T) {
	a := Box{0, 0, 10, 10}
	if got := IoU(a, a); got != 1 {
		t.Fatalf("self IoU = %v", got)
	}
	b := Box{10, 10, 20, 20}
	if got := IoU(a, b); got != 0 {
		t.Fatalf("disjoint IoU = %v", got)
	}
	c := Box{5, 0, 15, 10} // overlap 50, union 150
	if got := IoU(a, c); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("half-overlap IoU = %v", got)
	}
	if got := IoU(Box{}, a); got != 0 {
		t.Fatalf("degenerate IoU = %v", got)
	}
}

func randBox(rng *rand.Rand) Box {
	x1, y1 := rng.Float64()*100, rng.Float64()*100
	return Box{X1: x1, Y1: y1, X2: x1 + rng.Float64()*50 + 0.1, Y2: y1 + rng.Float64()*50 + 0.1}
}

// Properties: IoU is symmetric, bounded in [0,1], and 1 only for identical
// boxes (among non-degenerate boxes).
func TestIoUProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randBox(rng), randBox(rng)
		ab, ba := IoU(a, b), IoU(b, a)
		if ab != ba {
			return false
		}
		if ab < 0 || ab > 1 {
			return false
		}
		if IoU(a, a) != 1 {
			return false
		}
		// Shift far away → zero overlap.
		if IoU(a, b.Shifted(1000, 1000)) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: IoU is scale invariant — scaling both boxes by f preserves it.
func TestIoUScaleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randBox(rng), randBox(rng)
		s := 0.1 + rng.Float64()*5
		return math.Abs(IoU(a, b)-IoU(a.Scaled(s), b.Scaled(s))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNMSSuppressesOverlaps(t *testing.T) {
	dets := []Detection{
		{Box: Box{0, 0, 10, 10}, Class: 1, Score: 0.9},
		{Box: Box{1, 1, 11, 11}, Class: 1, Score: 0.8}, // overlaps the first
		{Box: Box{50, 50, 60, 60}, Class: 1, Score: 0.7},
	}
	out := NMS(dets, 0.3, 300)
	if len(out) != 2 {
		t.Fatalf("NMS kept %d, want 2", len(out))
	}
	if out[0].Score != 0.9 || out[1].Score != 0.7 {
		t.Fatalf("NMS kept wrong boxes: %+v", out)
	}
}

func TestNMSClassWise(t *testing.T) {
	dets := []Detection{
		{Box: Box{0, 0, 10, 10}, Class: 1, Score: 0.9},
		{Box: Box{0, 0, 10, 10}, Class: 2, Score: 0.8}, // same box, other class
	}
	out := NMS(dets, 0.3, 300)
	if len(out) != 2 {
		t.Fatalf("class-wise NMS must keep both, got %d", len(out))
	}
}

func TestNMSTopK(t *testing.T) {
	var dets []Detection
	for i := 0; i < 10; i++ {
		dets = append(dets, Detection{
			Box:   Box{float64(i * 100), 0, float64(i*100 + 10), 10},
			Class: 1, Score: float64(i) / 10,
		})
	}
	out := NMS(dets, 0.3, 3)
	if len(out) != 3 {
		t.Fatalf("topK kept %d", len(out))
	}
	if out[0].Score < out[1].Score || out[1].Score < out[2].Score {
		t.Fatal("NMS output must be sorted by descending score")
	}
	all := NMS(dets, 0.3, 0)
	if len(all) != 10 {
		t.Fatalf("topK<=0 must keep all, got %d", len(all))
	}
}

// Properties of NMS: output is a subset of input, no two kept same-class
// boxes overlap above the threshold, and the best-scoring box always
// survives.
func TestNMSInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		dets := make([]Detection, n)
		for i := range dets {
			dets[i] = Detection{Box: randBox(rng), Class: rng.Intn(3), Score: rng.Float64()}
		}
		thr := 0.2 + rng.Float64()*0.6
		out := NMS(dets, thr, 0)
		if len(out) > n {
			return false
		}
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if out[i].Class == out[j].Class && IoU(out[i].Box, out[j].Box) > thr {
					return false
				}
			}
		}
		best := 0
		for i := range dets {
			if dets[i].Score > dets[best].Score {
				best = i
			}
		}
		found := false
		for _, d := range out {
			if d.Box == dets[best].Box && d.Score == dets[best].Score {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// byClassScore orders detections by class ascending, then score
// descending: the order nmsStructSort sorts the detections themselves in.
func byClassScore(a, b Detection) int {
	if c := cmp.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	return ByScore(a, b)
}

// nmsStructSort is NMSAppend as it was before it sorted keys: the oracle
// NMSAppend is held to. It sorts a copy of the detections by (class,
// -score), suppresses greedily within each class segment, then sorts the
// survivors by score and truncates to topK.
func nmsStructSort(dets []Detection, iouThreshold float64, topK int) []Detection {
	work := slices.Clone(dets)
	suppressed := make([]bool, len(work))
	slices.SortStableFunc(work, byClassScore)
	var kept []Detection
	for lo := 0; lo < len(work); {
		hi := lo + 1
		for hi < len(work) && work[hi].Class == work[lo].Class {
			hi++
		}
		for i := lo; i < hi; i++ {
			if suppressed[i] {
				continue
			}
			kept = append(kept, work[i])
			for j := i + 1; j < hi; j++ {
				if !suppressed[j] && IoU(work[i].Box, work[j].Box) > iouThreshold {
					suppressed[j] = true
				}
			}
		}
		lo = hi
	}
	slices.SortStableFunc(kept, ByScore)
	if topK > 0 && len(kept) > topK {
		kept = kept[:topK]
	}
	return kept
}

// sameDetections requires got and want to hold the same detections in the
// same order, every float compared by its bits (so NaN fields compare too).
func sameDetections(t *testing.T, name string, got, want []Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections, want %d", name, len(got), len(want))
	}
	bits := func(d Detection) [7]uint64 {
		return [7]uint64{math.Float64bits(d.Box.X1), math.Float64bits(d.Box.Y1), math.Float64bits(d.Box.X2), math.Float64bits(d.Box.Y2),
			uint64(d.Class), math.Float64bits(d.Score), uint64(d.GTIndex)}
	}
	for i := range want {
		if bits(got[i]) != bits(want[i]) {
			t.Fatalf("%s: detection %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestNMSMatchesStructSort holds NMSAppend's key sort to the struct sort it
// replaced, detection for detection, on the detector's output size and
// around the insertion-sort block, with few classes and scores so ties are
// everywhere, NaN scores among them, GTIndex recording each input position,
// appending after existing dst contents and truncating to topK.
func TestNMSMatchesStructSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 19, 20, 21, 97, 300} {
		for trial := 0; trial < 20; trial++ {
			dets := make([]Detection, n)
			for i := range dets {
				score := float64(rng.Intn(5)) / 4
				if rng.Intn(6) == 0 {
					score = math.NaN()
				}
				dets[i] = Detection{Box: randBox(rng), Class: rng.Intn(3), Score: score, GTIndex: i}
			}
			thr, topK := 0.1+rng.Float64()*0.6, rng.Intn(n+2)-1
			prefix := []Detection{{Class: -1, GTIndex: -1}}
			got := NMSAppend(slices.Clone(prefix), dets, thr, topK)
			sameDetections(t, fmt.Sprintf("n=%d trial %d", n, trial), got, append(prefix, nmsStructSort(dets, thr, topK)...))
		}
	}
}

// TestSortsMatchSortStable holds the comparators to the sort.Stable orders
// they replaced, swap for swap: lengths across the insertion-sort block (20)
// and several merge levels, few distinct classes and scores so ties are
// everywhere, NaN scores among them, and GTIndex recording each input
// position so any other arrangement of equal keys shows.
func TestSortsMatchSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orders := []struct {
		cmp  func(a, b Detection) int
		less func(a, b Detection) bool
	}{
		{byClassScore, func(a, b Detection) bool {
			if a.Class != b.Class {
				return a.Class < b.Class
			}
			return a.Score > b.Score
		}},
		{ByScore, func(a, b Detection) bool { return a.Score > b.Score }},
	}
	for _, n := range []int{0, 1, 2, 19, 20, 21, 40, 41, 97, 300} {
		for trial := 0; trial < 20; trial++ {
			dets := make([]Detection, n)
			for i := range dets {
				score := float64(rng.Intn(5)) / 4
				if rng.Intn(6) == 0 {
					score = math.NaN()
				}
				dets[i] = Detection{Class: rng.Intn(3), Score: score, GTIndex: i}
			}
			for k, o := range orders {
				got, want := slices.Clone(dets), slices.Clone(dets)
				slices.SortStableFunc(got, o.cmp)
				sort.SliceStable(want, func(i, j int) bool { return o.less(want[i], want[j]) })
				for i := range want {
					if got[i].GTIndex != want[i].GTIndex {
						t.Fatalf("order %d, n=%d trial %d: position %d holds input %d, sort.Stable puts %d there", k, n, trial, i, got[i].GTIndex, want[i].GTIndex)
					}
				}
			}
		}
	}
}

// TestNMSAppendSteadyStateAllocs: with a recycled dst, a warm NMSAppend —
// the detector's per-frame call — allocates nothing.
func TestNMSAppendSteadyStateAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector): a zero-allocation pin through it cannot hold")
	}
	rng := rand.New(rand.NewSource(3))
	dets := make([]Detection, 300)
	for i := range dets {
		dets[i] = Detection{Box: randBox(rng), Class: rng.Intn(5), Score: rng.Float64()}
	}
	kept := NMSAppend(nil, dets, 0.3, 300)
	if a := testing.AllocsPerRun(100, func() { kept = NMSAppend(kept[:0], dets, 0.3, 300) }); a != 0 {
		t.Fatalf("a warm NMSAppend of %d detections allocates %v times", len(dets), a)
	}
}

// poolRetains reports whether a sync.Pool hands back what was just Put. Under
// the race detector it deliberately drops a quarter of all Puts.
func poolRetains() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 64; i++ {
		p.Put(p.Get())
	}
	return news == 1
}

func TestAssignForeground(t *testing.T) {
	gts := []GroundTruth{
		{Box: Box{0, 0, 10, 10}, Class: 1},
		{Box: Box{100, 100, 120, 120}, Class: 2},
	}
	dets := []Detection{
		{Box: Box{0, 0, 10, 10}, Class: 1, Score: 0.9},       // exact match → gt 0
		{Box: Box{101, 101, 121, 121}, Class: 2, Score: 0.8}, // near match → gt 1
		{Box: Box{500, 500, 510, 510}, Class: 1, Score: 0.7}, // background
		{Box: Box{0, 0, 40, 40}, Class: 1, Score: 0.6},       // IoU 100/1600 < 0.5 → background
	}
	got := AssignForeground(dets, gts)
	want := []int{0, 1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assign[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAssignForegroundPicksBestOverlap(t *testing.T) {
	gts := []GroundTruth{
		{Box: Box{0, 0, 10, 10}},
		{Box: Box{2, 2, 12, 12}},
	}
	det := []Detection{{Box: Box{2, 2, 11, 11}}}
	got := AssignForeground(det, gts)
	if got[0] != 1 {
		t.Fatalf("expected assignment to the higher-IoU gt, got %d", got[0])
	}
}

func TestAssignForegroundEmpty(t *testing.T) {
	if got := AssignForeground(nil, nil); len(got) != 0 {
		t.Fatal("empty inputs must give empty output")
	}
	got := AssignForeground([]Detection{{Box: Box{0, 0, 1, 1}}}, nil)
	if got[0] != -1 {
		t.Fatal("no ground truth → background")
	}
}
