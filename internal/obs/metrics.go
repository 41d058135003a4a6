// Package obs is the shared observability layer: the dependency-free
// metrics registry (counters, gauges, exact-quantile histograms with a
// deterministic text snapshot), the per-frame stage tracer, and the
// profiling hooks (net/http/pprof wiring, CPU/heap dumps) every subsystem
// and command shares.
//
// The registry began life inside internal/serve; it was promoted here so
// the offline runners, the experiments layer and the benchmark harness can
// record into the same structures the serving scheduler uses. The text
// snapshot format is a contract: the committed golden snapshots under
// internal/regress/testdata remained byte-identical across the move.
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
// sample histograms keyed by slash-delimited names ("frames/served",
// "stream/3/dropped", "latency/ms"). Recorded in virtual simulation time,
// the registry's final state — and therefore Snapshot() — is
// byte-identical across runs and worker counts, which is what makes
// throughput/SLO experiments reproducible.
//
// Histograms keep every observation (exact quantiles, deterministic
// snapshots); a serving simulation records a few samples per frame, so
// memory stays proportional to the frames served.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string][]float64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string][]float64{},
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

// Observe appends one sample to the named histogram.
func (m *Metrics) Observe(name string, v float64) {
	m.mu.Lock()
	m.hists[name] = append(m.hists[name], v)
	m.mu.Unlock()
}

// Merge folds another registry into this one: counters add, gauges keep
// the maximum (the gauges this codebase records — final virtual time,
// peak queue depth — are all high-water marks), and histograms append
// src's samples. The cluster simulator uses it to roll per-node,
// per-epoch serving registries up into one cluster-wide registry; called
// in a deterministic (epoch, node) order on deterministic inputs, the
// merged registry — and its Snapshot — stays byte-identical across runs
// and worker counts. src is read under its own lock and not mutated.
func (m *Metrics) Merge(src *Metrics) {
	if src == nil || src == m {
		return
	}
	src.mu.Lock()
	counters := make(map[string]int64, len(src.counters))
	for k, v := range src.counters {
		counters[k] = v
	}
	gauges := make(map[string]float64, len(src.gauges))
	for k, v := range src.gauges {
		gauges[k] = v
	}
	hists := make(map[string][]float64, len(src.hists))
	for k, v := range src.hists {
		hists[k] = append([]float64(nil), v...)
	}
	src.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range counters {
		m.counters[k] += v
	}
	for k, v := range gauges {
		if cur, ok := m.gauges[k]; !ok || v > cur {
			m.gauges[k] = v
		}
	}
	for k, v := range hists {
		m.hists[k] = append(m.hists[k], v...)
	}
}

// Count returns the number of samples in the named histogram.
func (m *Metrics) Count(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.hists[name])
}

// Quantile returns the q-quantile (nearest-rank, q in (0, 1]) of the named
// histogram, or 0 if it has no samples.
func (m *Metrics) Quantile(name string, q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return quantile(m.sortedLocked(name), q)
}

// Mean returns the mean of the named histogram's samples (0 when empty).
func (m *Metrics) Mean(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.hists[name]
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// sortedLocked returns an ascending copy of the histogram's samples; the
// caller holds m.mu.
func (m *Metrics) sortedLocked(name string) []float64 {
	s := append([]float64(nil), m.hists[name]...)
	sort.Float64s(s)
	return s
}

// quantile is nearest-rank over an ascending sample slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(float64(n)*q+0.999999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
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
		s := m.sortedLocked(k)
		if len(s) == 0 {
			continue
		}
		var sum float64
		for _, v := range s {
			sum += v
		}
		fmt.Fprintf(&b, "hist    %-24s n=%d mean=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
			k, len(s), sum/float64(len(s)), s[0],
			quantile(s, 0.50), quantile(s, 0.95), quantile(s, 0.99), s[len(s)-1])
	}
	return b.String()
}
