package cluster

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
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

// assignBySearch is the bounded-load walk as first written, kept as the
// oracle for assign: a key's first point by sort.Search over every point,
// and every visited point's node position by sort.SearchInts.
func assignBySearch(r *Ring, keys []int) []int {
	out := make([]int, len(keys))
	order := make([]int, len(keys))
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	cap := r.Cap(len(keys))
	load, seen := make([]int, len(r.nodes)), make([]bool, len(r.nodes))
	slot := func(node int) int { return sort.SearchInts(r.nodes, node) }
	for _, j := range order {
		h := ringHash(r.cfg.Seed, uint64(keys[j]), 0, 0x5EED)
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
		owner := slot(r.points[i%len(r.points)].node)
		clear(seen)
		for off, visited := 0, 0; off < len(r.points) && visited < len(r.nodes); off++ {
			s := slot(r.points[(i+off)%len(r.points)].node)
			if seen[s] {
				continue
			}
			seen[s] = true
			visited++
			if load[s] < cap {
				owner = s
				break
			}
		}
		load[owner]++
		out[j] = r.nodes[owner]
	}
	return out
}

// checkRingMatchesOracle holds the ring's points to every member's points
// sorted afresh, and assign — into a recycled output, on the ring's
// recycled working set — to assignBySearch.
func checkRingMatchesOracle(t *testing.T, r *Ring, keys []int) {
	t.Helper()
	var want []ringPoint
	for _, n := range r.nodes {
		for rep := 0; rep < ringReplicas; rep++ {
			want = append(want, ringPoint{hash: ringHash(r.cfg.Seed, uint64(n), uint64(rep), 0xA11CE), node: n})
		}
	}
	slices.SortFunc(want, comparePoints)
	if !slices.Equal(r.points, want) {
		t.Fatalf("nodes %v: the merged points differ from the sorted points", r.nodes)
	}
	out := make([]int, len(keys))
	for j := range out {
		out[j] = math.MinInt // assign must write every element
	}
	out = r.assign(out, keys)
	for j, want := range assignBySearch(r, keys) {
		if out[j] != want {
			t.Fatalf("nodes %v, %d keys: key %d (position %d) assigned to node %d, the search walk says %d",
				r.nodes, len(keys), keys[j], j, out[j], want)
		}
	}
}

// randomKeys draws a key set: empty, single, ascending, unsorted, with
// repeats (in order or not), negative.
func randomKeys(rng *rand.Rand) []int {
	kind := rng.Intn(7)
	switch kind {
	case 0:
		return nil
	case 1:
		return []int{rng.Intn(1000) - 500}
	case 2:
		return seqKeys(1 + rng.Intn(600))
	}
	keys := make([]int, 1+rng.Intn(400))
	span := 1 + rng.Intn(2*len(keys)) // small spans repeat keys
	for i := range keys {
		keys[i] = rng.Intn(span) - span/2
	}
	if kind == 3 {
		slices.Sort(keys)
	}
	return keys
}

// TestRingAssignMatchesSearch holds assign to the search walk on random
// rings of 1–40 nodes with sparse and negative IDs, built by interleaved
// adds and removes (present and absent), on every kind of key set.
func TestRingAssignMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 200; trial++ {
		r := NewRing(RingConfig{Seed: rng.Int63() - math.MaxInt64/2})
		ids := make([]int, 1+rng.Intn(40))
		for i := range ids {
			ids[i] = rng.Intn(4001) - 2000
		}
		for op := 0; op < 1+rng.Intn(60); op++ {
			if n := ids[rng.Intn(len(ids))]; rng.Intn(3) == 0 {
				r.Remove(n)
			} else {
				r.Add(n)
			}
			if r.Len() > 0 && rng.Intn(4) == 0 {
				checkRingMatchesOracle(t, r, randomKeys(rng))
			}
		}
		if r.Len() == 0 {
			r.Add(ids[0])
		}
		checkRingMatchesOracle(t, r, randomKeys(rng))
	}
}

// TestStartTableMatchesSearch holds the start lookup to sort.Search on
// synthetic point lists — repeated hashes, hash 0, MaxUint64, every point
// in one bucket, 129 zeros — probed at every hash, its neighbours, both ends and above
// every point (the wrap case, len(points)). One table is rebuilt list after
// list, shrinking and growing.
func TestStartTableMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]uint64, 1000)
	for i := range random {
		random[i] = rng.Uint64() >> uint(rng.Intn(8)) // denser low buckets
	}
	bunched := make([]uint64, 300)
	for i := range bunched {
		bunched[i] = 1<<60 + uint64(rng.Intn(50))
	}
	lists := [][]uint64{
		{}, {0}, {math.MaxUint64}, {0, 0, 0}, {5, 5, 5, 9},
		{0, 1, 2, math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64},
		{1 << 63, 1<<63 - 1, 1<<63 + 1},
		random, bunched, make([]uint64, 129),
	}
	var tab startTable
	for _, hashes := range lists {
		ps := make([]ringPoint, len(hashes))
		for i, h := range hashes {
			ps[i] = ringPoint{hash: h, node: i}
		}
		slices.SortFunc(ps, comparePoints)
		tab.build(ps)
		if len(tab.first) < len(ps) {
			t.Fatalf("%d points: start table of %d entries", len(ps), len(tab.first))
		}
		probes := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}
		for _, p := range ps {
			probes = append(probes, p.hash, p.hash-1, p.hash+1)
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, rng.Uint64())
		}
		for _, h := range probes {
			want := sort.Search(len(ps), func(i int) bool { return ps[i].hash >= h })
			if got := tab.search(ps, h); got != want {
				t.Fatalf("%d points: search(%#x) = %d, sort.Search = %d", len(ps), h, got, want)
			}
		}
	}
}

// FuzzRingAssign decodes bytes into ring operations — adds and removes of
// node IDs from −128 to 127, present or not — and key sets, and holds the
// points and every assignment to the search walk (checkRingMatchesOracle).
// The first byte seeds the ring; then each op is two bytes: op%4 0 and 1
// add int8(arg), 2 removes it, 3 assigns the next arg bytes as int8 keys.
func FuzzRingAssign(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 3, 0})
	f.Add([]byte{9, 0, 0xff, 0, 7, 1, 0x80, 3, 5, 1, 2, 3, 0xfe, 1})
	f.Add([]byte{4, 0, 10, 0, 20, 2, 10, 0, 30, 3, 6, 9, 9, 9, 0x90, 0x90, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := NewRing(RingConfig{Seed: int64(int8(data[0]))})
		for data = data[1:]; len(data) >= 2; {
			op, arg := data[0], data[1]
			data = data[2:]
			switch op % 4 {
			case 0, 1:
				r.Add(int(int8(arg)))
			case 2:
				r.Remove(int(int8(arg)))
			case 3:
				keys := make([]int, min(int(arg), len(data)))
				for i := range keys {
					keys[i] = int(int8(data[i]))
				}
				data = data[len(keys):]
				if r.Len() > 0 {
					checkRingMatchesOracle(t, r, keys)
				}
			}
		}
	})
}
