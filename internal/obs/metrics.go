// Package obs is the shared observability layer: the dependency-free
// metrics registry (counters, gauges, bounded log-linear histograms with a
// deterministic text snapshot), the per-frame stage tracer, and the
// profiling hooks (net/http/pprof wiring, CPU/heap dumps) every subsystem
// and command shares.
//
// The registry began life inside internal/serve; it was promoted here so
// the offline runners, the experiments layer and the benchmark harness can
// record into the same structures the serving scheduler uses. A hot path
// records through handles (Counter, Gauge, Histogram) it resolves once, so a
// sample costs no name lookup and no lock; the string-keyed methods (Inc,
// Set, Observe) are the cold path, for writes too rare to resolve and for
// callers on goroutines of their own. The snapshot is write-only:
// no library code parses it back, and its text format is pinned byte for
// byte by the committed golden snapshots under internal/regress/testdata.
// The tracer only collects the spans its producers build
// (adascale.TracedRunner offline, serve.Core.Settle when serving) and
// renders them; every span is a modelled simclock duration, never a wall
// measurement.
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
// A histogram keeps bucket counts, not samples (see Histogram): its count,
// minimum, maximum and mean are exact, every quantile it reports is at most
// 1/32 (3.1 %) below the exact nearest-rank sample, and its memory is set by
// the range of values observed — a few KB for a latency distribution —
// however many frames are served.
//
// Each name maps to one handle. CounterOf, GaugeOf and HistogramOf resolve
// it, creating it unrecorded; a name appears in Snapshot, Prometheus and
// Merge only once something has been recorded into it (Add(0) and Set(0)
// count), so resolving a handle ahead of use never changes the output.
//
// Locking: the maps, and everything the string-keyed methods, the readers
// (Snapshot, Prometheus, Merge, the getters) and the resolvers do, are
// guarded by the registry's lock. A handle records without it, so the
// caller serialises a handle's writes with each other and with every read of
// the registry: a registry written and read by one goroutine (the
// scheduler's event loop and its ticks) needs nothing more; one read while
// its handles are written (a scrape of a live server) is read under the
// writers' own lock. The string-keyed methods are safe from any goroutine,
// so a writer outside that discipline records through them.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// Handles not yet named, carved from blocks (handle).
	spareCounters []Counter
	spareGauges   []Gauge
	spareHists    []Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a handle on one registry counter (Metrics.CounterOf).
type Counter struct {
	v   int64
	set bool // recorded: the name is part of the registry's output
}

// Add adds d to the counter; Add(0) makes the name appear at 0.
func (c *Counter) Add(d int64) { c.v, c.set = c.v+d, true }

func (c *Counter) recorded() bool { return c.set }

// Gauge is a handle on one registry gauge (Metrics.GaugeOf).
type Gauge struct {
	v   float64
	set bool // recorded: the name is part of the registry's output
}

// Set sets the gauge.
func (g *Gauge) Set(v float64) { g.v, g.set = v, true }

// SetMax raises the gauge to v if v is greater (peak tracking); the first
// value recorded is taken whatever it is, NaN included.
func (g *Gauge) SetMax(v float64) {
	if !g.set || v > g.v {
		g.Set(v)
	}
}

func (g *Gauge) recorded() bool { return g.set }

// handleBlock is how many handles of a kind a registry allocates at once:
// a serving run names a few dozen, so they cost a few allocations, not one
// each.
const handleBlock = 16

// handle returns reg's handle for name, creating it unrecorded from spare.
// The caller holds the registry lock.
func handle[H any](reg map[string]*H, spare *[]H, name string) *H {
	h := reg[name]
	if h == nil {
		if len(*spare) == 0 {
			*spare = make([]H, handleBlock)
		}
		h, *spare = &(*spare)[0], (*spare)[1:]
		reg[name] = h
	}
	return h
}

// CounterOf resolves the named counter's handle.
func (m *Metrics) CounterOf(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return handle(m.counters, &m.spareCounters, name)
}

// GaugeOf resolves the named gauge's handle.
func (m *Metrics) GaugeOf(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	return handle(m.gauges, &m.spareGauges, name)
}

// HistogramOf resolves the named histogram's handle.
func (m *Metrics) HistogramOf(name string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return handle(m.hists, &m.spareHists, name)
}

// Inc adds d to the named counter (creating it at 0).
func (m *Metrics) Inc(name string, d int64) {
	m.mu.Lock()
	handle(m.counters, &m.spareCounters, name).Add(d)
	m.mu.Unlock()
}

// Counter returns the named counter's value (0 if never incremented).
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.counters[name]; c != nil {
		return c.v
	}
	return 0
}

// Set sets the named gauge.
func (m *Metrics) Set(name string, v float64) {
	m.mu.Lock()
	handle(m.gauges, &m.spareGauges, name).Set(v)
	m.mu.Unlock()
}

// Observe records one sample in the named histogram (Histogram.Observe).
func (m *Metrics) Observe(name string, v float64) {
	m.mu.Lock()
	handle(m.hists, &m.spareHists, name).Observe(v)
	m.mu.Unlock()
}

// Merge folds another registry into this one: counters add, gauges keep
// the maximum (the gauges this codebase records — final virtual time,
// peak queue depth — are all high-water marks), and histograms add src's
// bucket counts — O(buckets), whatever number of samples they stand for.
// Only recorded names are folded, so a handle src resolved but never wrote
// adds no name here. The cluster simulator uses it to roll per-node,
// per-epoch serving registries up into one cluster-wide registry; called in
// a deterministic (epoch, node) order on deterministic inputs, the merged
// registry — and its Snapshot — stays byte-identical across runs and worker
// counts. src is read under its own lock, held inside m's, and not mutated;
// two registries must not be merged into each other at the same time.
func (m *Metrics) Merge(src *Metrics) {
	if src == nil || src == m {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	for k, c := range src.counters {
		if c.recorded() {
			handle(m.counters, &m.spareCounters, k).Add(c.v)
		}
	}
	for k, g := range src.gauges {
		if g.recorded() {
			handle(m.gauges, &m.spareGauges, k).SetMax(g.v)
		}
	}
	for k, h := range src.hists {
		if h.recorded() {
			handle(m.hists, &m.spareHists, k).merge(h)
		}
	}
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

// appendRecorded appends the names of reg's recorded handles to names,
// sorted: the rows a rendering of the registry prints.
func appendRecorded[H interface{ recorded() bool }](names []string, reg map[string]H) []string {
	for k, h := range reg {
		if h.recorded() {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// Snapshot renders the whole registry as deterministic text: sections in
// fixed order, names sorted within each, fixed float formatting. Two runs
// with the same seed and config produce byte-identical snapshots.
func (m *Metrics) Snapshot() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	names := appendRecorded(make([]string, 0, len(m.counters)), m.counters)
	for _, k := range names {
		fmt.Fprintf(&b, "counter %-24s %d\n", k, m.counters[k].v)
	}

	names = appendRecorded(names[:0], m.gauges)
	for _, k := range names {
		fmt.Fprintf(&b, "gauge   %-24s %.3f\n", k, m.gauges[k].v)
	}

	names = appendRecorded(names[:0], m.hists)
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
