package simclock

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDetectMSCalibration(t *testing.T) {
	// The paper's reference point: R-FCN at scale 600 runs in 75 ms.
	if got := Paper1080Ti().DetectMS(1280, 720, 600); math.Abs(got-75) > 1e-9 {
		t.Fatalf("DetectMS(600) = %v, want 75", got)
	}
}

func TestDetectMSMonotoneInScale(t *testing.T) {
	m := Paper1080Ti()
	f := func(seed int64) bool {
		a := 128 + int(uint64(seed)%400)
		b := a + 1 + int(uint64(seed)>>32%50)
		return m.DetectMS(1280, 720, a) < m.DetectMS(1280, 720, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectMSFloorsAtBase(t *testing.T) {
	m := Paper1080Ti()
	if got := m.DetectMS(1280, 720, 1); got < m.BaseMS {
		t.Fatalf("runtime %v below fixed overhead", got)
	}
}

func TestDetectMSLongSideCap(t *testing.T) {
	// An extreme panorama hits the 2000-px cap, so raising the requested
	// scale beyond the cap point must not increase cost.
	m := Paper1080Ti()
	capped := m.DetectMS(8000, 500, 480)
	more := m.DetectMS(8000, 500, 500)
	if more > capped+1e-9 {
		t.Fatalf("cost grew past the longest-side cap: %v → %v", capped, more)
	}
}

// TestRegressorMS pins Table 3's ordering — {1} < {1,3} < {1,3,5}, the
// paper's {1,3} module at 2 ms — and that a set of more than three kernels
// costs what three do.
func TestRegressorMS(t *testing.T) {
	m := Paper1080Ti()
	if m.RegressorMS(nil) != 0 {
		t.Fatal("no regressor, no overhead")
	}
	k1 := m.RegressorMS([]int{1})
	k13 := m.RegressorMS([]int{1, 3})
	k135 := m.RegressorMS([]int{1, 3, 5})
	if !(k1 < k13 && k13 < k135) {
		t.Fatalf("kernel overheads not increasing: %v %v %v", k1, k13, k135)
	}
	if k13 != 2.0 {
		t.Fatalf("paper's {1,3} module costs 2 ms, got %v", k13)
	}
	if k4 := m.RegressorMS([]int{1, 3, 5, 7}); k4 != k135 {
		t.Fatalf("a 4-kernel set costs %v, want the 3-kernel set's %v", k4, k135)
	}
}

// TestSplitDetectMSSum pins how exactly the stage split adds up: decode +
// rescale + backbone is within one ulp of the detector cost it splits (not
// always equal: the rescale share is rounded before the backbone takes the
// rest), and no part is negative.
func TestSplitDetectMSSum(t *testing.T) {
	m := Paper1080Ti()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		ms := 300 * r.Float64()
		decode, rescale, backbone := m.SplitDetectMS(ms)
		if decode < 0 || rescale < 0 || backbone < 0 {
			t.Fatalf("split of %v has a negative part: %v %v %v", ms, decode, rescale, backbone)
		}
		sum := decode + rescale + backbone
		if ulp := math.Nextafter(ms, math.Inf(1)) - ms; math.Abs(sum-ms) > ulp {
			t.Fatalf("split of %v sums to %v, %v ulp away", ms, sum, math.Abs(sum-ms)/ulp)
		}
	}
}

func TestBudgetRollingMean(t *testing.T) {
	const deadline = 50
	var b Budget
	if b.Exceeded(deadline) {
		t.Fatal("empty budget must not report exceeded")
	}
	for i := 0; i < BudgetWindow; i++ {
		b.Charge(40)
	}
	if got := b.MeanMS(); math.Abs(got-40) > 1e-12 {
		t.Fatalf("mean = %v, want 40", got)
	}
	if b.Exceeded(deadline) {
		t.Fatal("40 ms mean under a 50 ms deadline must not exceed")
	}
	// Two expensive frames push the window mean over the deadline
	// ((6·40 + 2·90) / 8 = 52.5)...
	b.Charge(90)
	b.Charge(90)
	if !b.Exceeded(deadline) {
		t.Fatalf("mean %v over deadline 50 must report exceeded", b.MeanMS())
	}
	// ...and cheap frames roll them back out of the window.
	for i := 0; i < BudgetWindow; i++ {
		b.Charge(10)
	}
	if b.Exceeded(deadline) {
		t.Fatalf("window should have recovered, mean = %v", b.MeanMS())
	}
	if got := b.Headroom(deadline); math.Abs(got-40) > 1e-12 {
		t.Fatalf("headroom = %v, want 40", got)
	}
}

func TestBudgetDisabled(t *testing.T) {
	var b Budget
	b.Charge(1e9)
	if b.Exceeded(0) {
		t.Fatal("deadline 0 disables enforcement")
	}
	if !math.IsInf(b.Headroom(0), 1) {
		t.Fatalf("disabled budget headroom = %v, want +Inf", b.Headroom(0))
	}
}
