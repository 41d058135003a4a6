//go:build amd64

package tensor

import "testing"

// TestAVX2Off pins which GODEBUG values turn the AVX2 kernels off: the
// runtime's own cpu.avx2=off and cpu.all=off, as whole comma-separated
// settings anywhere in the list, and nothing else.
func TestAVX2Off(t *testing.T) {
	for godebug, want := range map[string]bool{
		"":                         false,
		"cpu.avx2=off":             true,
		"cpu.all=off":              true,
		"gctrace=1,cpu.avx2=off":   true,
		"cpu.avx2=off,gctrace=1":   true,
		"cpu.fma=off,cpu.all=off,": true,
		"cpu.avx2=on":              false,
		"cpu.fma=off":              false,
		"cpu.avx2=offx":            false,
		"xcpu.avx2=off":            false,
		",":                        false,
	} {
		if got := avx2Off(godebug); got != want {
			t.Errorf("avx2Off(%q) = %v, want %v", godebug, got, want)
		}
	}
}
