package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// lastLine parses the driver line a run printed last.
func lastLine(t *testing.T, out string) driverLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var l driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		t.Fatalf("last line is not the driver's JSON object: %v\n%s", err, out)
	}
	return l
}

// -smoke runs one tiny segment of every workload, untraced, through the same
// code as a full run: every output check passes and every end-to-end metric
// is reported, by name, for each workload.
func TestSmokeRunsEveryWorkloadUntraced(t *testing.T) {
	var out bytes.Buffer
	ok, err := run(options{seed: 3, seconds: 0.2, smoke: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("an output check failed:\n%s", out.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "== "+w.name+":") {
			t.Errorf("no report for workload %s", w.name)
		}
	}
	l := lastLine(t, out.String())
	if !l.Correct || l.Attempted < 1 || l.Failed != 0 {
		t.Errorf("driver line = %+v", l)
	}
	for _, d := range endToEnd {
		m, ok := l.Metrics[d.name]
		if !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
	if len(l.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the driver line, want the %d end-to-end ones", len(l.Metrics), len(endToEnd))
	}
}

// A traced smoke run reports every per-layer metric and writes the spans.
func TestSmokeTracedReportsEveryLayer(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	o := options{
		workload: "http_fanin", seed: 3, seconds: 0.3, trace: 1, smoke: true,
		spans: filepath.Join(dir, "spans.jsonl"), out: filepath.Join(dir, "result.json"),
	}
	ok, err := run(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("an output check failed:\n%s", out.String())
	}
	l := lastLine(t, out.String())
	for _, d := range perLayer {
		if m, ok := l.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("per-layer metric %s = %+v, want a value in %s", d.name, m, d.unit)
		}
	}
	if len(l.Metrics) != len(perLayer) {
		t.Errorf("%d metrics on the driver line, want the %d per-layer ones", len(l.Metrics), len(perLayer))
	}
	for _, f := range []string{o.spans, o.out} {
		if matches, _ := filepath.Glob(f); len(matches) != 1 {
			t.Errorf("%s was not written", f)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := run(options{workload: "nope", seconds: 1}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown workload must be an error")
	}
}
