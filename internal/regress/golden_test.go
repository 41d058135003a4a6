package regress

import (
	"strings"
	"testing"
)

func TestFirstDiff(t *testing.T) {
	got := firstDiff("a\nb\nc\n", "a\nX\nc\n")
	if !strings.Contains(got, "line 2") || !strings.Contains(got, `"b"`) {
		t.Fatalf("firstDiff = %q", got)
	}
	got = firstDiff("a\n", "a\nb\n")
	if !strings.Contains(got, "line count") {
		t.Fatalf("firstDiff on length mismatch = %q", got)
	}
}
