// Package cluster is the virtual-time cluster simulator: it shards N video
// streams across M simulated nodes — each node an instance of the
// internal/serve scheduler + supervisor — and layers cluster-level concerns
// on top: consistent-hash placement with bounded load, planned node joins,
// leaves and stream migrations, and node-blackout failover that carries
// each stream's resilient-session checkpoint to its new node.
//
// Everything runs on the same discrete-event virtual clock as the serving
// layer, so a cluster run is a pure function of (dataset seed, load seed,
// event plan, config): byte-identical across runs and worker counts, which
// is what makes the conservation invariant (offered == served + dropped,
// zero frames lost across migrations) testable as an exact equality rather
// than a statistical claim.
package cluster

import (
	"cmp"
	"slices"
	"sort"

	"adascale/internal/rng"
)

// The stream→node placement layer: consistent hashing with bounded loads.
// Each node projects ringReplicas virtual points onto a 64-bit ring; a
// stream hashes to a ring position and walks clockwise to the first node
// whose assigned load is below the cap ceil(ringLoadFactor·K/M). The walk
// keeps the classic consistent-hashing property — node join/leave moves
// only the keys adjacent to the changed points (plus bounded-load
// cascade) — while the cap guarantees no node ever holds more than
// ~ringLoadFactor times its fair share.

// ringPoint is one virtual node position on the hash ring.
type ringPoint struct {
	hash uint64
	node int
}

const (
	// ringReplicas is the number of virtual points per node (more points,
	// smoother balance, slower rebuild).
	ringReplicas = 64

	// ringLoadFactor bounds any node's load at ceil(ringLoadFactor·K/M)
	// keys: the classic bounded-load sweet spot, near-minimal disruption
	// with max/mean load provably ≤ ringLoadFactor (+ the ceiling's
	// rounding) for K ≳ 4M.
	ringLoadFactor = 1.25
)

// RingConfig parameterises the placement ring.
type RingConfig struct {
	// Seed perturbs every ring hash, so two clusters with different seeds
	// place streams independently.
	Seed int64
}

// Ring is a bounded-load consistent-hash ring over integer node IDs.
// Methods are not safe for concurrent use; the cluster simulator drives it
// from its single event-loop goroutine.
type Ring struct {
	cfg    RingConfig
	nodes  []int       // sorted node IDs
	points []ringPoint // sorted by (hash, node)

	// assign's working set, recycled call after call.
	order, load []int
	seen        []bool
}

// NewRing builds an empty ring.
func NewRing(cfg RingConfig) *Ring {
	return &Ring{cfg: cfg}
}

// Nodes returns the ring's node IDs in ascending order (shared slice; do
// not mutate).
func (r *Ring) Nodes() []int { return r.nodes }

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Has reports whether the node is on the ring.
func (r *Ring) Has(node int) bool {
	i := sort.SearchInts(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Add places a node on the ring. Adding a present node is a no-op.
func (r *Ring) Add(node int) {
	if r.Has(node) {
		return
	}
	i := sort.SearchInts(r.nodes, node)
	r.nodes = append(r.nodes, 0)
	copy(r.nodes[i+1:], r.nodes[i:])
	r.nodes[i] = node
	for rep := 0; rep < ringReplicas; rep++ {
		r.points = append(r.points, ringPoint{hash: ringHash(r.cfg.Seed, uint64(node), uint64(rep), 0xA11CE), node: node})
	}
	sortPoints(r.points)
}

// Remove takes a node off the ring. Removing an absent node is a no-op.
func (r *Ring) Remove(node int) {
	if !r.Has(node) {
		return
	}
	i := sort.SearchInts(r.nodes, node)
	r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// sortPoints orders ring points by (hash, node) — the node tiebreak keeps
// the walk order deterministic even on (astronomically unlikely) hash
// collisions.
func sortPoints(ps []ringPoint) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].hash != ps[j].hash {
			return ps[i].hash < ps[j].hash
		}
		return ps[i].node < ps[j].node
	})
}

// Cap returns the bounded-load per-node cap for k keys: the maximum of
// ceil(k/M) (feasibility: the keys must fit) and floor(ringLoadFactor·k/M)
// (the balance bound ceil would loosen past ringLoadFactor on non-divisible
// loads).
func (r *Ring) Cap(k int) int {
	m := len(r.nodes)
	if m == 0 || k <= 0 {
		return 0
	}
	fair := (k + m - 1) / m
	bounded := int(ringLoadFactor * float64(k) / float64(m))
	if bounded > fair {
		return bounded
	}
	return fair
}

// Assign maps every key to a node under the bounded-load walk, processing
// keys in ascending order so the assignment is a deterministic function of
// (key set, ring state). Node j of the result is keys[j]'s. Panics if the
// ring is empty — the cluster simulator guarantees at least one node is
// always up.
func (r *Ring) Assign(keys []int) []int { return r.assign(make([]int, len(keys)), keys) }

// assign is Assign into out, which has one element per key.
func (r *Ring) assign(out, keys []int) []int {
	if len(r.nodes) == 0 {
		panic("cluster: assigning streams on an empty ring")
	}
	order := resize(r.order, len(keys)) // positions in keys, ascending by key
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	cap := r.Cap(len(keys))
	// Both indexed by a node's position in r.nodes; seen is the walk's
	// visited set, reused key after key.
	load, seen := resize(r.load, len(r.nodes)), resize(r.seen, len(r.nodes))
	r.order, r.load, r.seen = order, load, seen
	clear(load)
	for _, j := range order {
		k := keys[j]
		// Walk clockwise from the key's position to the first node under
		// cap. If every node is at cap (impossible when cap·M ≥ K) the key
		// goes to the first one, its unbounded owner.
		h := ringHash(r.cfg.Seed, uint64(k), 0, 0x5EED)
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
		slot := r.slot(r.points[i%len(r.points)].node)
		clear(seen)
		for off, visited := 0, 0; off < len(r.points) && visited < len(r.nodes); off++ {
			s := r.slot(r.points[(i+off)%len(r.points)].node)
			if seen[s] {
				continue
			}
			seen[s] = true
			visited++
			if load[s] < cap {
				slot = s
				break
			}
		}
		load[slot]++
		out[j] = r.nodes[slot]
	}
	return out
}

// slot is a node's position in r.nodes.
func (r *Ring) slot(node int) int { return sort.SearchInts(r.nodes, node) }

// ringHash mixes the seed and identifiers through a splitmix64-style
// finaliser — the same hashing idiom the fault and load layers use, kept
// separate from both by the salt so placement never correlates with
// arrival or fault draws.
func ringHash(seed int64, a, b, salt uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + a*0xBF58476D1CE4E5B9 + b*0x94D049BB133111EB + salt
	return rng.Mix64(z)
}
