package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the parse side of the metrics snapshot: Snapshot() renders
// the registry as deterministic text, ParseSnapshot reads that text back
// into a structured form whose String() re-renders it byte-identically.
// The round-trip does two jobs: downstream tooling (the regression gate,
// dashboards) can consume snapshots without scraping, and the conformance
// suite can assert the snapshot grammar never drifts — a snapshot that
// stops round-tripping is a snapshot some consumer just lost the ability
// to read.

// SnapshotCounter is one parsed counter line.
type SnapshotCounter struct {
	Name  string
	Value int64
}

// SnapshotGauge is one parsed gauge line.
type SnapshotGauge struct {
	Name  string
	Value float64
}

// SnapshotHist is one parsed histogram summary line. NonFinite is the
// trailing nonfinite= tally, rendered only when it is not zero.
type SnapshotHist struct {
	Name                          string
	N                             int
	Mean, Min, P50, P95, P99, Max float64
	NonFinite                     int
}

// ParsedSnapshot is the structured form of a Metrics.Snapshot text.
type ParsedSnapshot struct {
	Counters []SnapshotCounter
	Gauges   []SnapshotGauge
	Hists    []SnapshotHist
}

// Counter returns the named parsed counter's value (0 if absent).
func (p *ParsedSnapshot) Counter(name string) int64 {
	for _, c := range p.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named parsed gauge's value (0 if absent).
func (p *ParsedSnapshot) Gauge(name string) float64 {
	for _, g := range p.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// ParseSnapshot parses the text produced by Metrics.Snapshot. Unknown line
// shapes are errors: the snapshot format is a contract, and a consumer
// that skips lines it cannot read would hide a format drift.
func ParseSnapshot(s string) (*ParsedSnapshot, error) {
	p := &ParsedSnapshot{}
	for ln, line := range strings.Split(s, "\n") {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		bad := func(err error) error {
			return fmt.Errorf("obs: snapshot line %d %q: %w", ln+1, line, err)
		}
		switch {
		case fields[0] == "counter" && len(fields) == 3:
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, bad(err)
			}
			p.Counters = append(p.Counters, SnapshotCounter{Name: fields[1], Value: v})
		case fields[0] == "gauge" && len(fields) == 3:
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, bad(err)
			}
			p.Gauges = append(p.Gauges, SnapshotGauge{Name: fields[1], Value: v})
		case fields[0] == "hist" && (len(fields) == 9 || len(fields) == 10):
			h := SnapshotHist{Name: fields[1]}
			dsts := []struct {
				key string
				n   *int
				f   *float64
			}{
				{key: "n", n: &h.N}, {key: "mean", f: &h.Mean}, {key: "min", f: &h.Min},
				{key: "p50", f: &h.P50}, {key: "p95", f: &h.P95}, {key: "p99", f: &h.P99},
				{key: "max", f: &h.Max}, {key: "nonfinite", n: &h.NonFinite},
			}
			for i, d := range dsts[:len(fields)-2] {
				k, v, ok := strings.Cut(fields[2+i], "=")
				if !ok || k != d.key {
					return nil, bad(fmt.Errorf("want field %q", d.key))
				}
				if d.n != nil {
					iv, err := strconv.Atoi(v)
					if err != nil {
						return nil, bad(err)
					}
					*d.n = iv
					continue
				}
				fv, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, bad(err)
				}
				*d.f = fv
			}
			p.Hists = append(p.Hists, h)
		default:
			return nil, bad(fmt.Errorf("unrecognised snapshot line"))
		}
	}
	return p, nil
}

// String re-renders the parsed snapshot in the exact Snapshot() format.
// For any s produced by Metrics.Snapshot, ParseSnapshot(s).String() == s —
// the round-trip invariant the conformance suite pins.
func (p *ParsedSnapshot) String() string {
	var b strings.Builder
	for _, c := range p.Counters {
		fmt.Fprintf(&b, "counter %-24s %d\n", c.Name, c.Value)
	}
	for _, g := range p.Gauges {
		fmt.Fprintf(&b, "gauge   %-24s %.3f\n", g.Name, g.Value)
	}
	for _, h := range p.Hists {
		writeHistLine(&b, h)
	}
	return b.String()
}

// writeHistLine renders one histogram line of the snapshot format.
func writeHistLine(b *strings.Builder, h SnapshotHist) {
	fmt.Fprintf(b, "hist    %-24s n=%d mean=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		h.Name, h.N, h.Mean, h.Min, h.P50, h.P95, h.P99, h.Max)
	if h.NonFinite > 0 {
		fmt.Fprintf(b, " nonfinite=%d", h.NonFinite)
	}
	b.WriteByte('\n')
}
