package cluster

import (
	"math/rand"
	"runtime"
	"testing"
)

// Property tests for the bounded-load placement ring. Three invariants:
// (1) balance — max/mean load ≤ ringLoadFactor for K ≳ 4M; (2)
// minimal disruption — a node join or leave moves at most ceil(K/M)+slack
// keys, where slack absorbs the bounded-load cascade; (3) determinism —
// the assignment is a pure function of (seed, key set, ring state),
// identical across repeated calls and GOMAXPROCS settings.

// seqKeys returns [0, k).
func seqKeys(k int) []int {
	keys := make([]int, k)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

// ringWith builds a ring with nodes [0, m).
func ringWith(seed int64, m int) *Ring {
	r := NewRing(RingConfig{Seed: seed})
	for n := 0; n < m; n++ {
		r.Add(n)
	}
	return r
}

// loads tallies keys per node.
func loads(assign []int) map[int]int {
	l := map[int]int{}
	for _, n := range assign {
		l[n]++
	}
	return l
}

func TestRingBalanceBound(t *testing.T) {
	cases := []struct {
		name  string
		keys  int
		nodes int
		seed  int64
	}{
		{"1k keys, 4 nodes", 1000, 4, 1},
		{"1k keys, 8 nodes", 1000, 8, 2},
		{"10k keys, 16 nodes", 10000, 16, 3},
		{"exact multiple", 1024, 8, 4},
		{"single node", 500, 1, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := ringWith(tc.seed, tc.nodes)
			assign := r.Assign(seqKeys(tc.keys))
			if len(assign) != tc.keys {
				t.Fatalf("assigned %d keys, want %d", len(assign), tc.keys)
			}
			l := loads(assign)
			mean := float64(tc.keys) / float64(tc.nodes)
			for n, cnt := range l {
				if ratio := float64(cnt) / mean; ratio > 1.25+1e-9 {
					t.Errorf("node %d load %d: max/mean = %.4f > 1.25", n, cnt, ratio)
				}
			}
			// Every node carries work when keys dwarf nodes: bounded-load
			// cannot starve a node out of the rotation entirely.
			if tc.keys >= 50*tc.nodes {
				for n := 0; n < tc.nodes; n++ {
					if l[n] == 0 {
						t.Errorf("node %d assigned no keys out of %d", n, tc.keys)
					}
				}
			}
		})
	}
}

// moved counts keys whose node changed between two assignments of the same
// keys.
func moved(a, b []int) int {
	n := 0
	for k, na := range a {
		if na != b[k] {
			n++
		}
	}
	return n
}

func TestRingMinimalDisruptionOnJoin(t *testing.T) {
	const keys, nodes = 2000, 8
	for seed := int64(0); seed < 5; seed++ {
		r := ringWith(seed, nodes)
		before := r.Assign(seqKeys(keys))
		r.Add(nodes) // join node 8
		after := r.Assign(seqKeys(keys))
		// A join should move roughly K/(M+1) keys to the newcomer, plus a
		// bounded cascade from the tightened caps. The bound from the
		// issue: moved ≤ ceil(K/M) + slack, slack = K/10 absorbing the
		// bounded-load cascade.
		bound := (keys+nodes-1)/nodes + keys/10
		if got := moved(before, after); got > bound {
			t.Errorf("seed %d: join moved %d keys, bound %d", seed, got, bound)
		}
		// The newcomer must actually receive load — a join that moves
		// nothing is a broken ring, not a minimal one.
		if l := loads(after)[nodes]; l == 0 {
			t.Errorf("seed %d: joined node received no keys", seed)
		}
	}
}

func TestRingMinimalDisruptionOnLeave(t *testing.T) {
	const keys, nodes = 2000, 8
	for seed := int64(0); seed < 5; seed++ {
		r := ringWith(seed, nodes)
		before := r.Assign(seqKeys(keys))
		r.Remove(3)
		after := r.Assign(seqKeys(keys))
		// Everything the departed node held must move (that is the point),
		// plus the cascade; nothing else should churn.
		departed := loads(before)[3]
		bound := departed + keys/10
		if got := moved(before, after); got > bound {
			t.Errorf("seed %d: leave moved %d keys, bound %d (departed held %d)", seed, got, bound, departed)
		}
		for k, n := range after {
			if n == 3 {
				t.Fatalf("seed %d: key %d still assigned to removed node", seed, k)
			}
		}
	}
}

func TestRingDeterminism(t *testing.T) {
	const keys, nodes = 1000, 6
	r := ringWith(42, nodes)
	first := r.Assign(seqKeys(keys))

	// Same ring, same keys: identical assignment on every call.
	for i := 0; i < 3; i++ {
		again := r.Assign(seqKeys(keys))
		if moved(first, again) != 0 {
			t.Fatalf("repeat assign %d diverged", i)
		}
	}

	// A rebuilt ring with the same seed and membership reproduces the
	// assignment regardless of GOMAXPROCS — placement is pure computation,
	// never scheduling-dependent.
	prev := runtime.GOMAXPROCS(1)
	serial := ringWith(42, nodes).Assign(seqKeys(keys))
	runtime.GOMAXPROCS(prev)
	if moved(first, serial) != 0 {
		t.Fatal("assignment diverged across GOMAXPROCS settings")
	}

	// Different seeds place differently (placements are seed-independent
	// draws, not a fixed layout wearing a seed parameter).
	other := ringWith(43, nodes).Assign(seqKeys(keys))
	if moved(first, other) == 0 {
		t.Error("seeds 42 and 43 produced identical placements — seed is not wired into the hash")
	}
}

// TestRingRandomizedProperties is the quick-style pass: random (seed, K, M)
// draws, asserting the full invariant set on each.
func TestRingRandomizedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(16)
		k := 4*m + rng.Intn(3000)
		seed := rng.Int63()
		r := ringWith(seed, m)
		assign := r.Assign(seqKeys(k))
		if len(assign) != k {
			t.Fatalf("trial %d (K=%d M=%d): assigned %d keys", trial, k, m, len(assign))
		}
		mean := float64(k) / float64(m)
		for n, cnt := range loads(assign) {
			if !r.Has(n) {
				t.Fatalf("trial %d: key assigned to absent node %d", trial, n)
			}
			if ratio := float64(cnt) / mean; ratio > 1.25+1e-9 {
				t.Errorf("trial %d (K=%d M=%d): node %d ratio %.4f > 1.25", trial, k, m, n, ratio)
			}
		}
		if moved(assign, r.Assign(seqKeys(k))) != 0 {
			t.Errorf("trial %d: assignment not stable across calls", trial)
		}
	}
}

// TestRingAssignAnyKeyOrder: the caller's key order changes only where each
// key's node is written, never which node it gets.
func TestRingAssignAnyKeyOrder(t *testing.T) {
	const keys, nodes = 3000, 8
	r := ringWith(11, nodes)
	want := r.Assign(seqKeys(keys))
	shuffled := rand.New(rand.NewSource(5)).Perm(keys)
	for j, n := range r.Assign(shuffled) {
		if k := shuffled[j]; n != want[k] {
			t.Fatalf("key %d: node %d given in shuffled order, %d in ascending order", k, n, want[k])
		}
	}
}

// TestRingAssignAllocs pins Assign's allocations to a constant — the output,
// the key order and two node-sized scratch slices — whatever the key count:
// the walk's visited set is reused key after key, not built per key. The
// count is averaged over 25 runs: over 3, a stray runtime allocation or two
// during a run read as 5 or 6.
func TestRingAssignAllocs(t *testing.T) {
	r := ringWith(7, 16)
	for _, k := range []int{10, 1000, 30000} {
		keys := seqKeys(k)
		if n := testing.AllocsPerRun(25, func() { r.Assign(keys) }); n > 4 {
			t.Errorf("Assign over %d keys: %.0f allocations, want at most 4", k, n)
		}
	}
}

func TestRingAddRemoveIdempotent(t *testing.T) {
	r := ringWith(7, 4)
	r.Add(2) // already present
	if r.Len() != 4 {
		t.Fatalf("double-add changed node count: %d", r.Len())
	}
	if want, got := 4*ringReplicas, len(r.points); want != got {
		t.Fatalf("double-add changed point count: %d, want %d", got, want)
	}
	r.Remove(9) // absent
	if r.Len() != 4 {
		t.Fatalf("absent-remove changed node count: %d", r.Len())
	}
	r.Remove(2)
	if r.Has(2) || r.Len() != 3 {
		t.Fatalf("remove failed: has=%v len=%d", r.Has(2), r.Len())
	}
}
