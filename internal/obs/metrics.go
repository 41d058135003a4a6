// Package obs is the shared observability layer: the dependency-free
// metrics registry (counters, gauges, bounded log-linear histograms with a
// deterministic text snapshot), the per-frame stage tracer, and the
// profiling hooks (net/http/pprof wiring, CPU/heap dumps) every subsystem
// and command shares.
//
// The registry began life inside internal/serve; it was promoted here so
// the offline runners, the experiments layer and the benchmark harness can
// record into the same structures the serving scheduler uses. The snapshot
// is write-only: no library code parses it back, and its text format is
// pinned byte for byte by the committed golden snapshots under
// internal/regress/testdata. The tracer only collects the spans its
// producers build (adascale.TracedRunner offline, serve.Core.Settle when
// serving) and renders them; every span is a modelled simclock duration,
// never a wall measurement.
//
// Everything in this package is deterministic by construction when fed
// deterministic inputs: snapshots render sections in fixed order with
// names sorted and floats fixed-precision, and traces sort spans by
// (stream, frame, stage) before rendering, so the registry's and tracer's
// output is a pure function of what was recorded, never of goroutine
// interleaving.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Metrics is the dependency-free metrics registry: counters, gauges and
// histograms keyed by slash-delimited names ("frames/served",
// "scale/600", "latency/ms"). Recorded in virtual simulation time,
// the registry's final state — and therefore Snapshot() — is
// byte-identical across runs and worker counts, which is what makes
// throughput/SLO experiments reproducible.
//
// A histogram keeps bucket counts, not samples (see hist): its count,
// minimum, maximum and mean are exact, every quantile it reports is at most
// 1/32 (3.1 %) below the exact nearest-rank sample, and its memory is set by
// the range of values observed — a few KB for a latency distribution —
// however many frames are served.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*hist
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*hist{},
	}
}

// Inc adds d to the named counter (creating it at 0).
func (m *Metrics) Inc(name string, d int64) {
	m.mu.Lock()
	m.counters[name] += d
	m.mu.Unlock()
}

// Counter returns the named counter's value (0 if never incremented).
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Set sets the named gauge.
func (m *Metrics) Set(name string, v float64) {
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// SetMax raises the named gauge to v if v is greater (peak tracking).
func (m *Metrics) SetMax(name string, v float64) {
	m.mu.Lock()
	if cur, ok := m.gauges[name]; !ok || v > cur {
		m.gauges[name] = v
	}
	m.mu.Unlock()
}

// Gauge returns the named gauge's value (0 if never set).
func (m *Metrics) Gauge(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// Observe records one sample in the named histogram. NaN and ±Inf are
// tallied (Snapshot shows the tally when it is non-zero) and otherwise
// ignored: they enter no bucket, count, minimum, maximum or mean.
func (m *Metrics) Observe(name string, v float64) {
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &hist{}
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Merge folds another registry into this one: counters add, gauges keep
// the maximum (the gauges this codebase records — final virtual time,
// peak queue depth — are all high-water marks), and histograms add src's
// bucket counts — O(buckets), whatever number of samples they stand for.
// The cluster simulator uses it to roll per-node, per-epoch serving
// registries up into one cluster-wide registry; called in a deterministic
// (epoch, node) order on deterministic inputs, the merged registry — and
// its Snapshot — stays byte-identical across runs and worker counts. src
// is read under its own lock, held inside m's, and not mutated; two
// registries must not be merged into each other at the same time.
func (m *Metrics) Merge(src *Metrics) {
	if src == nil || src == m {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	for k, v := range src.counters {
		m.counters[k] += v
	}
	for k, v := range src.gauges {
		if cur, ok := m.gauges[k]; !ok || v > cur {
			m.gauges[k] = v
		}
	}
	for k, sh := range src.hists {
		h := m.hists[k]
		if h == nil {
			h = &hist{}
			m.hists[k] = h
		}
		h.merge(sh)
	}
}

// Count returns the number of finite samples in the named histogram.
func (m *Metrics) Count(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.hists[name]; h != nil {
		return h.n
	}
	return 0
}

// Quantile returns the q-quantile (nearest-rank, q in (0, 1]) of the named
// histogram to within its 1/32 relative bound, or 0 if it has no samples.
func (m *Metrics) Quantile(name string, q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.hists[name]; h != nil {
		return h.quantile(q)
	}
	return 0
}

// Mean returns the exact mean of the named histogram's samples (0 when
// empty).
func (m *Metrics) Mean(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.hists[name]; h != nil {
		return h.mean()
	}
	return 0
}

// Snapshot renders the whole registry as deterministic text: sections in
// fixed order, names sorted within each, fixed float formatting. Two runs
// with the same seed and config produce byte-identical snapshots.
func (m *Metrics) Snapshot() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	names := make([]string, 0, len(m.counters))
	for k := range m.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "counter %-24s %d\n", k, m.counters[k])
	}

	names = names[:0]
	for k := range m.gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "gauge   %-24s %.3f\n", k, m.gauges[k])
	}

	names = names[:0]
	for k := range m.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := m.hists[k]
		fmt.Fprintf(&b, "hist    %-24s n=%d mean=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
			k, h.n, h.mean(), h.min, h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.max)
		if h.nonfinite > 0 {
			fmt.Fprintf(&b, " nonfinite=%d", h.nonfinite)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
