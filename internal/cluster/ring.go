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
//
// A Run is serial only where it must be: membership, placement (a start
// table finds each key's first ring point) and grouping the streams by
// node. The node runs cut their own windows and run in parallel, and a
// Run's whole working set is recycled from Run to Run.
package cluster

import (
	"cmp"
	"math/bits"
	"slices"

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
	order, load, seen, slots []int
	start                    startTable
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
	_, ok := slices.BinarySearch(r.nodes, node)
	return ok
}

// Add places a node on the ring. Adding a present node is a no-op. Only the
// node's own points are sorted; they are merged into the sorted list from
// its end.
func (r *Ring) Add(node int) {
	i, ok := slices.BinarySearch(r.nodes, node)
	if ok {
		return
	}
	r.nodes = slices.Insert(r.nodes, i, node)
	var fresh [ringReplicas]ringPoint
	for rep := range fresh {
		fresh[rep] = ringPoint{hash: ringHash(r.cfg.Seed, uint64(node), uint64(rep), 0xA11CE), node: node}
	}
	slices.SortFunc(fresh[:], comparePoints)
	old := len(r.points)
	r.points = slices.Grow(r.points, ringReplicas)[:old+ringReplicas]
	for k, o, f := len(r.points)-1, old-1, ringReplicas-1; f >= 0; k-- {
		if o >= 0 && comparePoints(r.points[o], fresh[f]) > 0 {
			r.points[k], o = r.points[o], o-1
		} else {
			r.points[k], f = fresh[f], f-1
		}
	}
}

// Remove takes a node off the ring. Removing an absent node is a no-op.
func (r *Ring) Remove(node int) {
	i, ok := slices.BinarySearch(r.nodes, node)
	if !ok {
		return
	}
	r.nodes = slices.Delete(r.nodes, i, i+1)
	r.points = slices.DeleteFunc(r.points, func(p ringPoint) bool { return p.node == node })
}

// comparePoints orders ring points by (hash, node) — the node tiebreak
// keeps the walk order deterministic even on (astronomically unlikely) hash
// collisions.
func comparePoints(a, b ringPoint) int {
	if a.hash != b.hash {
		return cmp.Compare(a.hash, b.hash)
	}
	return cmp.Compare(a.node, b.node)
}

// startTable finds a key's first point in points sorted by hash: first[x]
// is the first point whose hash's top b bits are ≥ x, with 2^b ≥
// len(points), so a search scans about one point past where it starts.
type startTable struct {
	first []int
	shift uint // 64 − b
}

func (t *startTable) build(ps []ringPoint) {
	b := bits.Len(uint(max(len(ps), 1) - 1)) // the least b with 2^b ≥ len(ps)
	t.shift, t.first = uint(64-b), resize(t.first, 1<<b)
	i := 0
	for x := range t.first {
		for i < len(ps) && ps[i].hash>>t.shift < uint64(x) {
			i++
		}
		t.first[x] = i
	}
}

// search returns the first point of ps, the list built on, with hash ≥ h,
// or len(ps) if h is above every point, as sort.Search does.
func (t *startTable) search(ps []ringPoint, h uint64) int {
	i := t.first[h>>t.shift]
	for i < len(ps) && ps[i].hash < h {
		i++
	}
	return i
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
	ascending := true
	for j := range order {
		order[j] = j
		ascending = ascending && (j == 0 || keys[j-1] < keys[j])
	}
	if !ascending { // distinct ascending keys, such as place's, are in order
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	}
	cap := r.Cap(len(keys))
	// Both indexed by a node's position in r.nodes; seen[s] is the last
	// walk that visited it, numbered from 1. slots[p] is points[p]'s node's
	// position.
	load, seen := resize(r.load, len(r.nodes)), resize(r.seen, len(r.nodes))
	slots := resize(r.slots, len(r.points))
	for p, pt := range r.points {
		slots[p], _ = slices.BinarySearch(r.nodes, pt.node)
	}
	r.start.build(r.points)
	r.order, r.load, r.seen, r.slots = order, load, seen, slots
	clear(load)
	clear(seen)
	for walk, j := range order {
		k := keys[j]
		// Walk clockwise from the key's position to the first node under
		// cap. If every node is at cap (impossible when cap·M ≥ K) the key
		// goes to the first one, its unbounded owner.
		i := r.start.search(r.points, ringHash(r.cfg.Seed, uint64(k), 0, 0x5EED))
		slot := slots[i%len(slots)]
		for off, visited := 0, 0; off < len(slots) && visited < len(r.nodes); off++ {
			s := slots[(i+off)%len(slots)]
			if seen[s] == walk+1 {
				continue
			}
			seen[s] = walk + 1
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

// ringHash mixes the seed and identifiers through a splitmix64-style
// finaliser — the same hashing idiom the fault and load layers use, kept
// separate from both by the salt so placement never correlates with
// arrival or fault draws.
func ringHash(seed int64, a, b, salt uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + a*0xBF58476D1CE4E5B9 + b*0x94D049BB133111EB + salt
	return rng.Mix64(z)
}
