package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestMetricsCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	if m.Counter("missing") != 0 || m.GaugeOf("missing").v != 0 {
		t.Fatal("unset counter/gauge not zero")
	}
	m.Inc("frames/served", 3)
	m.Inc("frames/served", 2)
	if got := m.Counter("frames/served"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	m.Set("time/final_ms", 12.5)
	if got := m.GaugeOf("time/final_ms").v; got != 12.5 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
	peak := m.GaugeOf("queue/peak_depth")
	peak.SetMax(3)
	peak.SetMax(1)
	peak.SetMax(7)
	if got := m.GaugeOf("queue/peak_depth").v; got != 7 {
		t.Fatalf("SetMax gauge = %v, want 7", got)
	}
	// SetMax must also establish a gauge whose first value is negative.
	m.GaugeOf("neg").SetMax(-4)
	if got := m.GaugeOf("neg").v; got != -4 {
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
	// registry's locking. Handle writers serialise among themselves and with
	// every reader through one writers' lock, as a driver does (the event
	// loop's single goroutine, the HTTP engine's mutex, which a scrape
	// takes); string-keyed writers and the resolvers need only the
	// registry's own. The final state must equal the serial sum.
	m := NewMetrics()
	var writers sync.Mutex
	var wg sync.WaitGroup
	const goroutines, perG = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Inc("c", 1)
				m.Set("g", float64(i))
				m.Observe("h", float64(i))

				writers.Lock()
				_ = m.Counter("c")
				_ = m.Quantile("h", 0.5)
				_ = m.Mean("h")
				_ = m.Snapshot()
				writers.Unlock()
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			c, peak, h := m.CounterOf("handle/c"), m.GaugeOf("handle/peak"), m.HistogramOf("handle/h")
			merged := NewMetrics()
			for i := 0; i < perG; i++ {
				writers.Lock()
				c.Add(1)
				peak.SetMax(float64(g*perG + i))
				h.Observe(float64(i))
				writers.Unlock()

				writers.Lock()
				_ = m.Prometheus("x")
				merged.Merge(m)
				writers.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, name := range []string{"c", "handle/c"} {
		if got := m.Counter(name); got != goroutines*perG {
			t.Fatalf("counter %s = %d, want %d", name, got, goroutines*perG)
		}
	}
	for _, name := range []string{"h", "handle/h"} {
		if got := m.HistogramOf(name).n; got != goroutines*perG {
			t.Fatalf("hist %s count = %d, want %d", name, got, goroutines*perG)
		}
	}
	if got := m.GaugeOf("handle/peak").v; got != goroutines*perG-1 {
		t.Fatalf("handle/peak = %v, want %d", got, goroutines*perG-1)
	}
}

// TestMetricsHandles pins what a handle changes and what it must not: a
// handle shares its name's state with the string-keyed methods, resolving
// one adds no name to any output until it is written, Inc(name, 0) still
// creates its name, and SetMax and Merge keep their first-value, NaN and
// high-water rules whether or not the destination's handle was resolved
// ahead of its first write.
func TestMetricsHandles(t *testing.T) {
	m := NewMetrics()
	c, g, h := m.CounterOf("c"), m.GaugeOf("g"), m.HistogramOf("h")
	if m.CounterOf("c") != c || m.GaugeOf("g") != g || m.HistogramOf("h") != h {
		t.Fatal("resolving a name twice gave two handles")
	}
	dst := NewMetrics()
	dst.Merge(m)
	if m.Snapshot() != "" || m.Prometheus("x") != "" || dst.Snapshot() != "" {
		t.Fatalf("unwritten handles appear:\n%s%s%s", m.Snapshot(), m.Prometheus("x"), dst.Snapshot())
	}

	c.Add(2)
	m.Inc("c", 3)
	h.Observe(4)
	m.Observe("h", 6)
	if m.Counter("c") != 5 || m.HistogramOf("h").n != 2 || m.Mean("h") != 5 {
		t.Fatalf("handle and name disagree: c=%d h n=%d mean=%v", m.Counter("c"), m.HistogramOf("h").n, m.Mean("h"))
	}

	zero := NewMetrics()
	zero.Inc("sessions/rejected", 0)
	zero.CounterOf("handle/zero").Add(0)
	if got, want := zero.Snapshot(), "counter handle/zero              0\ncounter sessions/rejected        0\n"; got != want {
		t.Fatalf("zero increments: snapshot %q, want %q", got, want)
	}

	// SetMax takes its first value whatever it is: negative, or NaN, which
	// no later value then exceeds.
	g.SetMax(-4)
	g.SetMax(-9)
	if got := m.GaugeOf("g").v; got != -4 {
		t.Fatalf("SetMax first value = %v, want -4", got)
	}
	nan := m.GaugeOf("nan")
	nan.SetMax(math.NaN())
	nan.SetMax(5)
	if got := m.GaugeOf("nan").v; !math.IsNaN(got) {
		t.Fatalf("SetMax after a first NaN = %v, want NaN", got)
	}

	// Merge keeps the high-water mark; a destination handle resolved but
	// never written holds no value to compare against.
	into := NewMetrics()
	peak := into.GaugeOf("g")
	into.Merge(m)
	if got := into.GaugeOf("g").v; got != -4 {
		t.Fatalf("merged into an unwritten handle: %v, want -4", got)
	}
	peak.SetMax(-7)
	into.Merge(m)
	if got := into.GaugeOf("g").v; got != -4 {
		t.Fatalf("merge max = %v, want -4", got)
	}
	if want := m.Snapshot(); !strings.Contains(want, "gauge   nan                      NaN") {
		t.Fatalf("NaN gauge missing from:\n%s", want)
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Inc("frames/served", 3)
	a.Set("time/final_ms", 100)
	a.GaugeOf("queue/peak_depth").SetMax(2)
	a.Observe("latency/ms", 10)
	b.Inc("frames/served", 4)
	b.Inc("frames/dropped", 1)
	b.Set("time/final_ms", 80)
	b.GaugeOf("queue/peak_depth").SetMax(5)
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
	if got := a.GaugeOf("time/final_ms").v; got != 100 {
		t.Fatalf("merged gauge = %v, want 100 (max)", got)
	}
	if got := a.GaugeOf("queue/peak_depth").v; got != 5 {
		t.Fatalf("merged peak gauge = %v, want 5 (max)", got)
	}
	if got := a.HistogramOf("latency/ms").n; got != 2 {
		t.Fatalf("merged hist count = %d, want 2", got)
	}
	if got := a.Quantile("latency/ms", 1.0); got != 30 {
		t.Fatalf("merged hist max = %v, want 30", got)
	}
	if got := a.HistogramOf("queue/wait_ms").n; got != 1 {
		t.Fatalf("merged new hist count = %d, want 1", got)
	}
	// The source registry must not be mutated by the merge.
	if b.Counter("frames/served") != 4 || b.HistogramOf("latency/ms").n != 1 {
		t.Fatal("Merge mutated its source registry")
	}
	// Self-merge and nil-merge are no-ops, not double counts.
	a.Merge(a)
	a.Merge(nil)
	if got := a.Counter("frames/served"); got != 7 {
		t.Fatalf("self/nil merge changed counter to %d, want 7", got)
	}
}

// TestMetricsReuseAfterReset: a registry that recorded a wider run and was
// reset records the next run bit for bit like a new registry: the same
// snapshot, exposition, means and quantiles, and the same registry when
// merged into a third one — names recorded only before the reset, and
// handles resolved but not written since, stay out of every output. A
// second run of the same shape then records without allocating.
func TestMetricsReuseAfterReset(t *testing.T) {
	record := func(m *Metrics, wide bool) {
		served, lat := m.CounterOf("frames/served"), m.HistogramOf("latency/ms")
		m.GaugeOf("queue/peak_depth") // resolved, written only when wide
		for i := 0; i < 200; i++ {
			served.Add(1)
			lat.Observe(0.1 + float64(i)*1.37)
		}
		m.Observe("queue/wait_ms", -1)
		m.Observe("queue/wait_ms", math.NaN())
		m.Set("time/final_ms", 274.1)
		if wide {
			m.Inc("frames/dropped", 7)
			m.GaugeOf("queue/peak_depth").SetMax(9)
			lat.Observe(1e-6)
			lat.Observe(1e9)
			m.Observe("retry/backoff_ms", 31)
		}
	}
	fresh, reused := NewMetrics(), NewMetrics()
	record(fresh, false)
	record(reused, true)
	reused.Reset()
	record(reused, false)
	if a, b := fresh.Snapshot(), reused.Snapshot(); a != b {
		t.Fatalf("snapshots differ:\n--- new ---\n%s--- reset ---\n%s", a, b)
	}
	if a, b := fresh.Prometheus("x"), reused.Prometheus("x"); a != b {
		t.Fatalf("expositions differ:\n--- new ---\n%s--- reset ---\n%s", a, b)
	}
	for _, k := range []string{"latency/ms", "queue/wait_ms"} {
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
			if a, b := fresh.Quantile(k, q), reused.Quantile(k, q); a != b {
				t.Fatalf("%s q%v: new %v, reset %v", k, q, a, b)
			}
		}
		if a, b := fresh.Mean(k), reused.Mean(k); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s mean: new %b, reset %b", k, a, b)
		}
	}
	base := func() *Metrics { m := NewMetrics(); m.Observe("latency/ms", 3.3); m.Inc("frames/served", 1); return m }
	intoFresh, intoReused := base(), base()
	intoFresh.Merge(fresh)
	intoReused.Merge(reused)
	if a, b := intoFresh.Snapshot(), intoReused.Snapshot(); a != b {
		t.Fatalf("merged snapshots differ:\n--- new ---\n%s--- reset ---\n%s", a, b)
	}
	if a, b := intoFresh.Mean("latency/ms"), intoReused.Mean("latency/ms"); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("merged mean: new %b, reset %b", a, b)
	}
	if n := testing.AllocsPerRun(5, func() { reused.Reset(); record(reused, false) }); n != 0 {
		t.Fatalf("a reset registry allocates %v times to record the same run again, want 0", n)
	}
}

// BenchmarkMetrics prices one per-frame sample each way: through a resolved
// handle (what the serving step does) and by name (a map lookup, a string
// hash and the registry lock).
func BenchmarkMetrics(b *testing.B) {
	m := NewMetrics()
	c, g, h := m.CounterOf("frames/served"), m.GaugeOf("queue/peak_depth"), m.HistogramOf("latency/ms")
	for _, bc := range []struct {
		name   string
		sample func(v float64)
	}{
		{"inc/handle", func(float64) { c.Add(1) }},
		{"inc/name", func(float64) { m.Inc("frames/served", 1) }},
		{"setmax/handle", g.SetMax},
		{"observe/handle", h.Observe},
		{"observe/name", func(v float64) { m.Observe("latency/ms", v) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.sample(float64(i&63) + 0.5)
			}
		})
	}
}
