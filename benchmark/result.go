package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// schemaVersion numbers the record layout below; bump it when a field
// changes meaning.
const schemaVersion = 1

// stamp says what produced a record, so records from different commits and
// machines are never compared by accident.
type stamp struct {
	Schema     int     `json:"schema"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke,omitempty"`
	Time       string  `json:"time"`
}

func newStamp(seed int64, seconds float64, traced, smoke bool) stamp {
	// The commit comes from the build's VCS stamp; a build outside a git
	// checkout (the driver's) has none.
	commit, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	return stamp{
		Schema: schemaVersion, Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Traced: traced, Smoke: smoke,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// reported is one metric of one workload in the full record.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"` // measured | modelled
	// Raw is the wall-clock figure behind a value reported in reference
	// seconds (calibrate.go); absent where the two are the same thing.
	Raw *float64 `json:"raw,omitempty"`
	// Segments is the spread behind a per-segment median; absent for
	// metrics taken once per run.
	Segments *spread `json:"segments,omitempty"`
}

// workloadRecord is one workload's outcome in the full record.
type workloadRecord struct {
	Workload  string              `json:"workload"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Speed     float64             `json:"speed_factor"`                // machine-speed factor of the measured segments
	IdleSpeed float64             `json:"idle_speed_factor,omitempty"` // the same for the idle reference; open-loop workloads only
	TailPct   float64             `json:"tail_percentile"`
	Quality   float64             `json:"quality_map"` // mAP of the served outputs; 0 where no detections exist
	Checks    []check             `json:"checks"`
	Metrics   map[string]reported `json:"metrics"`
}

// record is one line of the trajectory (-append) and the -out document.
type record struct {
	Stamp     stamp            `json:"stamp"`
	Workloads []workloadRecord `json:"workloads"`
}

// driverValue and driverLine are the last line of standard output, the
// contract with the driver that runs the benchmark.
type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

func (w workloadRecord) driverLine() driverLine {
	l := driverLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]driverValue{}}
	for name, m := range w.Metrics {
		l.Metrics[name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	return l
}

// appendRecord adds the record as one line to the trajectory file.
func appendRecord(path string, r record) (err error) {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("trajectory: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trajectory: %w", cerr)
		}
	}()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("trajectory: %w", err)
	}
	return nil
}

// writeRecord writes the record as an indented document.
func writeRecord(path string, r record) error {
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	return nil
}
