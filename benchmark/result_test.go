package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecord() record {
	s := spread{Median: 2, Min: 1, Max: 3, N: 3}
	return record{
		Stamp: newStamp(7, 10, false, true),
		Workloads: []workloadRecord{{
			Workload: "des_serve", Correct: true, Attempted: 800, Failed: 0, TailPct: 50, Quality: 0.5,
			Checks: []check{{Name: "des_serve.conservation", OK: true}},
			Metrics: map[string]reported{
				"frames_per_s": {Value: 2, Unit: "1/s", Kind: "measured", Segments: &s},
				"setup_s":      {Value: 3.5, Unit: "s", Kind: "measured"},
			},
		}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRecord()
	if want.Stamp.Schema != schemaVersion || want.Stamp.GoVersion == "" || want.Stamp.NumCPU < 1 || want.Stamp.Seed != 7 {
		t.Errorf("stamp = %+v", want.Stamp)
	}
	doc, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got record
	if err := json.Unmarshal(doc, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// The last line of standard output carries exactly the driver's keys.
func TestDriverLineKeys(t *testing.T) {
	doc, err := json.Marshal(sampleRecord().Workloads[0].driverLine())
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(doc, &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("driver line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("driver line has %d keys, want 4: %s", len(line), doc)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if _, ok := m["value"]; !ok || len(m) != 2 || m["unit"] == nil {
			t.Errorf("metric %s = %v, want exactly value and unit", name, m)
		}
	}
}

func TestAppendRecordAddsOneLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	for i := 0; i < 2; i++ {
		if err := appendRecord(path, sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("%d lines after two appends, want 2", lines)
	}
}

// BENCHMARK.json repeats the metric and workload tables for the driver; the
// two must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(spec.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		largest = max(largest, m.Bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != largest {
		t.Errorf("setup_s must carry the largest bound (%v)", largest)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}
