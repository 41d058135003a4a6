package main

import "testing"

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{99, 99}, {95, 95}, {90, 90}, {100, 100}, {1, 1}, {50, 50.5}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// The tail a run may report is the highest percentile with at least ten
// samples beyond it; below forty samples only the median qualifies.
func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {7, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {1280, 99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%v, want p%v", c.n, got, c.want)
		}
		if p := supportedTail(c.n); p > 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("supportedTail(%d) = p%v leaves only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{3, 9, 1})
	if s.Median != 3 || s.Min != 1 || s.Max != 9 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}
