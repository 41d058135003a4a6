package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the Prometheus side of the registry: Snapshot() stays the
// deterministic internal contract (fixed-width text, committed goldens),
// Prometheus() renders the same registry in the text exposition format
// (version 0.0.4) a real scrape expects. Counters map to counters, gauges
// to gauges, and the histograms to summaries (quantile labels + _sum +
// _count): _sum and _count are exact, each quantile is the registry's
// bucketed one — at most 1/32 below the exact nearest-rank sample — and a
// scrape walks bucket counts, so it costs the same after a million samples
// as after a thousand. Rendering is deterministic: metrics sort by name,
// and values format with the shortest round-trip float representation, so
// a scrape of a virtual-time registry is as golden-testable as its
// Snapshot.

// promQuantiles are the summary quantiles exported per histogram, chosen
// to match the percentiles Snapshot() renders.
var promQuantiles = []float64{0.5, 0.95, 0.99}

// PromName sanitises a slash-delimited registry name ("frames/served",
// "chaos/worker-kill") into a legal Prometheus metric name under the
// given namespace: every character outside [a-zA-Z0-9_] becomes "_", and
// the namespace prefix keeps names starting with a digit legal.
func PromName(namespace, name string) string {
	var b strings.Builder
	b.WriteString(namespace)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value the way Prometheus clients do: the
// shortest representation that round-trips, deterministic for a given
// bit pattern.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Prometheus renders the whole registry in Prometheus text exposition
// format under the given namespace (e.g. "adascale"). Each metric carries
// its # HELP line (the original registry name, so a dashboard can be
// traced back to the snapshot vocabulary) and # TYPE line. The output is
// a pure function of the registry's state: names sorted, no timestamps.
func (m *Metrics) Prometheus(namespace string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	names := appendRecorded(make([]string, 0, len(m.counters)), m.counters)
	for _, k := range names {
		pn := PromName(namespace, k)
		fmt.Fprintf(&b, "# HELP %s counter %s\n", pn, k)
		fmt.Fprintf(&b, "# TYPE %s counter\n", pn)
		fmt.Fprintf(&b, "%s %d\n", pn, m.counters[k].v)
	}

	names = appendRecorded(names[:0], m.gauges)
	for _, k := range names {
		pn := PromName(namespace, k)
		fmt.Fprintf(&b, "# HELP %s gauge %s\n", pn, k)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(&b, "%s %s\n", pn, promFloat(m.gauges[k].v))
	}

	names = appendRecorded(names[:0], m.hists)
	for _, k := range names {
		h := m.hists[k]
		if h.n == 0 {
			continue
		}
		pn := PromName(namespace, k)
		fmt.Fprintf(&b, "# HELP %s summary %s\n", pn, k)
		fmt.Fprintf(&b, "# TYPE %s summary\n", pn)
		for _, q := range promQuantiles {
			fmt.Fprintf(&b, "%s{quantile=%q} %s\n", pn, promFloat(q), promFloat(h.quantile(q)))
		}
		fmt.Fprintf(&b, "%s_sum %s\n", pn, promFloat(h.sum))
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.n)
	}
	return b.String()
}
