package adascale

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"adascale/internal/parallel"
	"adascale/internal/synth"
)

// TestBuildWeightsDigest pins the trained regressor to the bit: Build on a
// tiny fixed corpus (4 snippets × 6 frames × the 5 scales of S_reg = 120
// labels, the default two-epoch recipe) must save exactly these bytes, at
// workers 1 and 4, and again in a child process on the portable kernels
// (GODEBUG=cpu.avx2=off turns internal/tensor's AVX2 kernels off). The
// training kernels — the weight-gradient kernel, the layers' reused scratch —
// are only allowed to be faster, never to round differently; the
// conformance goldens imply that over many seconds, this says it in one, in
// the package that owns Build. A deliberate change to the recipe, the
// initialisation or the corpus generator re-pins the digest; nothing else
// may.
func TestBuildWeightsDigest(t *testing.T) {
	cfg := synth.VIDLike(3)
	cfg.FramesPerSnippet = 6
	ds, err := synth.Generate(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parallel.SetWorkers(0) })
	const want = "09ddb79b1a519f1abb4f5559c9c3f84ec499d447745734267073c1ea40760153"
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		var buf bytes.Buffer
		if err := Build(ds, DefaultBuildConfig()).Regressor.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("workers %d: trained weights digest %s, want %s", workers, got, want)
		}
	}

	godebug := os.Getenv("GODEBUG")
	if runtime.GOARCH != "amd64" || strings.Contains(godebug, "cpu.avx2=off") {
		return // the portable kernels are what just ran
	}
	if godebug != "" {
		godebug += ","
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBuildWeightsDigest$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug+"cpu.avx2=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: TestBuildWeightsDigest")) {
		t.Fatalf("with GODEBUG=cpu.avx2=off (err %v):\n%s", err, out)
	}
}
