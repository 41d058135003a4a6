package obs

import (
	"regexp"
	"strings"
	"testing"
)

// TestPrometheusRender pins the exposition format end to end: section
// order (counters, gauges, summaries), HELP/TYPE lines, quantiles (of small
// integers, which the buckets report exactly) and shortest-round-trip floats.
func TestPrometheusRender(t *testing.T) {
	m := NewMetrics()
	m.Inc("frames/served", 3)
	m.Inc("stream/1/slo_miss", 1)
	m.Set("time/final_ms", 125.5)
	for _, v := range []float64{4, 1, 3, 2} {
		m.Observe("latency/ms", v)
	}

	want := strings.Join([]string{
		"# HELP adascale_frames_served counter frames/served",
		"# TYPE adascale_frames_served counter",
		"adascale_frames_served 3",
		"# HELP adascale_stream_1_slo_miss counter stream/1/slo_miss",
		"# TYPE adascale_stream_1_slo_miss counter",
		"adascale_stream_1_slo_miss 1",
		"# HELP adascale_time_final_ms gauge time/final_ms",
		"# TYPE adascale_time_final_ms gauge",
		"adascale_time_final_ms 125.5",
		"# HELP adascale_latency_ms summary latency/ms",
		"# TYPE adascale_latency_ms summary",
		`adascale_latency_ms{quantile="0.5"} 2`,
		`adascale_latency_ms{quantile="0.95"} 4`,
		`adascale_latency_ms{quantile="0.99"} 4`,
		"adascale_latency_ms_sum 10",
		"adascale_latency_ms_count 4",
		"",
	}, "\n")
	got := m.Prometheus("adascale")
	if got != want {
		t.Fatalf("Prometheus render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if again := m.Prometheus("adascale"); again != got {
		t.Fatal("Prometheus render not deterministic across calls")
	}
}

// promLine validates one sample line of the exposition format: a legal
// metric name, an optional quantile label, and a float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{quantile="[0-9.]+"\})? [^ ]+$`)

// TestPrometheusGrammar checks every rendered line is either a HELP/TYPE
// comment or a well-formed sample, and that each TYPE is one Prometheus
// knows — the property a real scraper depends on for any registry state.
func TestPrometheusGrammar(t *testing.T) {
	m := NewMetrics()
	m.Inc("a/b-c.d", 1) // hostile name: sanitised, not emitted raw
	m.Set("gauge/x", -0.25)
	m.Observe("h/ms", 1.5)
	m.Observe("h/ms", 2.5)

	for _, line := range strings.Split(strings.TrimSuffix(m.Prometheus("ns"), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "summary") {
				t.Fatalf("bad TYPE line %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("bad sample line %q", line)
		}
	}
	if got := PromName("ns", "a/b-c.d"); got != "ns_a_b_c_d" {
		t.Fatalf("PromName sanitisation: got %q", got)
	}
}

// TestPrometheusEmpty keeps the empty registry rendering empty (no stray
// headers), and histograms with no samples suppressed like Snapshot does.
func TestPrometheusEmpty(t *testing.T) {
	m := NewMetrics()
	if got := m.Prometheus("x"); got != "" {
		t.Fatalf("empty registry rendered %q", got)
	}
}
