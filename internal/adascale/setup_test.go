package adascale

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"adascale/internal/synth"
)

// TestBuildWeightsDigest pins the trained regressor to the bit: Build on a
// tiny fixed corpus (4 snippets × 6 frames × the 5 scales of S_reg = 120
// labels, the default two-epoch recipe) must save exactly these bytes. The
// training kernels — the tiled dW product, the layers' reused scratch — are
// only allowed to be faster, never to round differently; the conformance
// goldens imply that over many seconds, this says it in one, in the package
// that owns Build. A deliberate change to the recipe, the initialisation or
// the corpus generator re-pins the digest; nothing else may.
func TestBuildWeightsDigest(t *testing.T) {
	cfg := synth.VIDLike(3)
	cfg.FramesPerSnippet = 6
	ds, err := synth.Generate(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Build(ds, DefaultBuildConfig()).Regressor.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "09ddb79b1a519f1abb4f5559c9c3f84ec499d447745734267073c1ea40760153"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("trained weights digest %s, want %s", got, want)
	}
}
