package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestMetricsCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	if m.Counter("missing") != 0 || m.Gauge("missing") != 0 {
		t.Fatal("unset counter/gauge not zero")
	}
	m.Inc("frames/served", 3)
	m.Inc("frames/served", 2)
	if got := m.Counter("frames/served"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	m.Set("time/final_ms", 12.5)
	if got := m.Gauge("time/final_ms"); got != 12.5 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
	m.SetMax("queue/peak_depth", 3)
	m.SetMax("queue/peak_depth", 1)
	m.SetMax("queue/peak_depth", 7)
	if got := m.Gauge("queue/peak_depth"); got != 7 {
		t.Fatalf("SetMax gauge = %v, want 7", got)
	}
	// SetMax must also establish a gauge whose first value is negative.
	m.SetMax("neg", -4)
	if got := m.Gauge("neg"); got != -4 {
		t.Fatalf("SetMax first value = %v, want -4", got)
	}
}

func TestMetricsSnapshotDeterministic(t *testing.T) {
	build := func(order []string) *Metrics {
		m := NewMetrics()
		for _, k := range order {
			m.Inc("c/"+k, 1)
			m.Set("g/"+k, 2)
			m.Observe("h/"+k, 3)
		}
		return m
	}
	a := build([]string{"x", "a", "m"}).Snapshot()
	b := build([]string{"m", "x", "a"}).Snapshot()
	if a != b {
		t.Fatalf("snapshot depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"counter c/a", "gauge   g/m", "hist    h/x", "p99="} {
		if !strings.Contains(a, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, a)
		}
	}
	// Sections appear in fixed counter → gauge → hist order.
	ci, gi, hi := strings.Index(a, "counter"), strings.Index(a, "gauge"), strings.Index(a, "hist")
	if !(ci < gi && gi < hi) {
		t.Fatalf("sections out of order in:\n%s", a)
	}
	if NewMetrics().Snapshot() != "" {
		t.Fatal("empty registry renders a non-empty snapshot")
	}
}

func TestMetricsConcurrentAccess(t *testing.T) {
	// Hammer every method from many goroutines; under -race this pins the
	// registry's locking. The final state must equal the serial sum.
	m := NewMetrics()
	var wg sync.WaitGroup
	const goroutines, perG = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Inc("c", 1)
				m.Set("g", float64(i))
				m.SetMax("peak", float64(g*perG+i))
				m.Observe("h", float64(i))
				_ = m.Counter("c")
				_ = m.Gauge("g")
				_ = m.Quantile("h", 0.5)
				_ = m.Mean("h")
				_ = m.Count("h")
				_ = m.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := m.Counter("c"); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := m.Count("h"); got != goroutines*perG {
		t.Fatalf("hist count = %d, want %d", got, goroutines*perG)
	}
	if got := m.Gauge("peak"); got != goroutines*perG-1 {
		t.Fatalf("peak = %v, want %d", got, goroutines*perG-1)
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Inc("frames/served", 3)
	a.Set("time/final_ms", 100)
	a.SetMax("queue/peak_depth", 2)
	a.Observe("latency/ms", 10)
	b.Inc("frames/served", 4)
	b.Inc("frames/dropped", 1)
	b.Set("time/final_ms", 80)
	b.SetMax("queue/peak_depth", 5)
	b.Observe("latency/ms", 30)
	b.Observe("queue/wait_ms", 7)

	a.Merge(b)
	if got := a.Counter("frames/served"); got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	if got := a.Counter("frames/dropped"); got != 1 {
		t.Fatalf("merged new counter = %d, want 1", got)
	}
	// Gauges merge as high-water marks: the larger side wins regardless of
	// which registry held it.
	if got := a.Gauge("time/final_ms"); got != 100 {
		t.Fatalf("merged gauge = %v, want 100 (max)", got)
	}
	if got := a.Gauge("queue/peak_depth"); got != 5 {
		t.Fatalf("merged peak gauge = %v, want 5 (max)", got)
	}
	if got := a.Count("latency/ms"); got != 2 {
		t.Fatalf("merged hist count = %d, want 2", got)
	}
	if got := a.Quantile("latency/ms", 1.0); got != 30 {
		t.Fatalf("merged hist max = %v, want 30", got)
	}
	if got := a.Count("queue/wait_ms"); got != 1 {
		t.Fatalf("merged new hist count = %d, want 1", got)
	}
	// The source registry must not be mutated by the merge.
	if b.Counter("frames/served") != 4 || b.Count("latency/ms") != 1 {
		t.Fatal("Merge mutated its source registry")
	}
	// Self-merge and nil-merge are no-ops, not double counts.
	a.Merge(a)
	a.Merge(nil)
	if got := a.Counter("frames/served"); got != 7 {
		t.Fatalf("self/nil merge changed counter to %d, want 7", got)
	}
}
