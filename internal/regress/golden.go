// Package regress is the repo's conformance and regression subsystem.
//
// It turns the determinism contract — every pipeline's output stream is
// byte-identical across runs, seeds held fixed, at any worker count — from
// scattered ad-hoc assertions into a gate: canonical end-to-end traces
// (per-frame scale decisions and detection digests, experiment tables and
// figures, full-precision mAP values, health summaries, serving metric
// snapshots) are committed under testdata/golden/ and every conformance
// test replays its trace at workers 1 and 4 and requires byte equality
// with the committed file.
//
// Updating goldens after an intentional behaviour change:
//
//	go test ./internal/regress -run TestGolden -update
//
// and review the diff like any other code change.
package regress

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adascale/internal/parallel"
)

// update rewrites the golden files instead of comparing against them. It
// registers on the default flag set, so `go test ./internal/regress
// -update` regenerates every trace in one run.
var update = flag.Bool("update", false, "rewrite testdata/golden files instead of comparing")

// GoldenPath returns the committed location of a named golden trace.
func GoldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// Golden compares got against the committed golden file, or rewrites the
// file when -update is set. On mismatch it reports the first differing
// line, which is usually enough to see whether the diff is an intended
// behaviour change (rerun with -update) or a determinism break.
func Golden(t *testing.T, name, got string) {
	t.Helper()
	path := GoldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s rewritten (%d bytes)", name, len(got))
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %q missing — run `go test ./internal/regress -update` and commit the result: %v", name, err)
	}
	want := string(wantBytes)
	if want == got {
		return
	}
	t.Errorf("golden %q: output diverged from committed trace\n%s", name, firstDiff(want, got))
}

// firstDiff renders the first line where two texts diverge, or the line
// counts when one text is a prefix of the other.
func firstDiff(want, got string) string {
	w := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	g := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w[i], g[i])
		}
	}
	if len(w) != len(g) {
		return fmt.Sprintf("line count: want %d, got %d", len(w), len(g))
	}
	return "texts differ only in trailing newline"
}

// ConformanceWorkerCounts is the worker matrix every golden trace replays
// at: the serial path and a contended pool. Byte equality across the two
// is the determinism contract; equality with the committed golden pins the
// behaviour itself.
var ConformanceWorkerCounts = []int{1, 4}

// AtWorkers produces the trace at every worker count in the matrix,
// asserts all productions are byte-identical, restores the default worker
// count, and returns the trace. Use the result with Golden.
func AtWorkers(t *testing.T, produce func() string) string {
	t.Helper()
	t.Cleanup(func() { parallel.SetWorkers(0) })
	var ref string
	for i, workers := range ConformanceWorkerCounts {
		parallel.SetWorkers(workers)
		got := produce()
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("trace diverged between workers=%d and workers=%d\n%s",
				ConformanceWorkerCounts[0], workers, firstDiff(ref, got))
		}
	}
	parallel.SetWorkers(0)
	return ref
}
