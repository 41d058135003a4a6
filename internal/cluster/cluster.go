package cluster

import (
	"fmt"
	"math"
	"sort"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/obs"
	"adascale/internal/parallel"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/serve"
)

// The cluster simulator proper. Virtual time is divided into fixed epochs;
// at each epoch boundary the simulator applies cluster events (joins,
// leaves, blackouts, migrations), recomputes the bounded-load placement,
// and then runs every up node's serve scheduler
// over the frames arriving in the window — each node an independent
// discrete-event simulation sharing the cluster's absolute clock, so the
// epoch's node runs proceed in parallel (runEpoch). A node
// run drains completely (the serve layer runs to its last completion), so
// no queued frame ever crosses an epoch boundary: conservation at the
// cluster level is the sum of per-(node, epoch) conservation, which the
// serve scheduler already guarantees. Streams carry their resilient-session
// checkpoints between epochs and across nodes, so a migrated or failed-over
// stream resumes its scale ladder, last-good detections and deadline budget
// exactly where it left them.

// Config parameterises a cluster run.
type Config struct {
	// Nodes is the initial node count (IDs 0..Nodes-1); each plan join
	// adds the next ID.
	Nodes int

	// EpochMS is the placement epoch: events and rebalancing happen at
	// epoch boundaries. 0 means 1000.
	EpochMS float64

	// Plan, when non-nil, is the cluster event schedule.
	Plan *Plan

	// Node is the per-node serving configuration. Workers must be
	// explicit (> 0): node capacity is part of the cluster's determinism
	// contract, and blackout injection reuses the serve chaos path, which
	// forbids a machine-derived worker count. Its Resilient.DeadlineMS is
	// overridden by SLOMS, as in any serve run.
	Node serve.Config
}

func (c Config) withDefaults() Config {
	if c.EpochMS <= 0 {
		c.EpochMS = 1000
	}
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	}
	// NaN fails every comparison: each would slip past its `<= 0` default,
	// so the test is written to fail for it.
	for _, f := range []struct {
		name string
		v    float64
	}{{"EpochMS", c.EpochMS}} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("cluster: invalid config: %s: %v is not a finite value >= 0", f.name, f.v)
		}
	}
	if c.Node.Workers <= 0 {
		return fmt.Errorf("cluster: node config needs an explicit worker count (cluster determinism forbids a machine-derived capacity)")
	}
	if c.Node.Chaos != nil {
		return fmt.Errorf("cluster: the node config's Chaos plan is owned by the cluster (schedule blackouts through a cluster Plan instead)")
	}
	// Node runs execute concurrently and restart every epoch: a callback or
	// tracer would be called from several goroutines on per-epoch clocks.
	if c.Node.OnTick != nil || c.Node.Tracer != nil {
		return fmt.Errorf("cluster: invalid config: Node.OnTick, Node.Tracer: node runs are concurrent and per-epoch; read the cluster report and registry instead")
	}
	return c.Node.Validate()
}

// Cluster shards streams across simulated serve nodes.
type Cluster struct {
	cfg Config
	det *rfcn.Detector
	reg *regressor.Regressor
}

// New creates a cluster for a trained system; the detector and regressor
// are shared templates, cloned per node worker exactly as a single serve
// node would.
func New(det *rfcn.Detector, reg *regressor.Regressor, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg.withDefaults(), det: det, reg: reg}, nil
}

// runState is the mutable state of one cluster run. Per-stream state is
// indexed by the stream's position in the ID-sorted stream list, per-node
// state by node ID (addNode mints IDs densely).
type runState struct {
	ring       *Ring
	down       []float64                    // node -> virtual instant it comes back up, 0 while not down
	chaosFor   [][]faults.SystemEvent       // node -> blackouts injected this epoch
	checkpoint []adascale.SessionCheckpoint // the stream's ladder state, once resumed
	resumed    []bool                       // checkpoint holds state: given, or served
	prevAssign []int                        // node last epoch, -1 if unplaced
	forced     []int                        // stream IDs with a forced migration this epoch
	rep        *Report
}

// addNode mints the next node ID and puts the node on the ring. Run's
// initial nodes and the plan's joins are its only callers.
func (st *runState) addNode() {
	n := len(st.down)
	st.down = append(st.down, 0)
	st.chaosFor = append(st.chaosFor, nil)
	st.rep.PerNode = append(st.rep.PerNode, NodeReport{Node: n})
	st.ring.Add(n)
}

// Run shards the streams across the cluster and serves them to completion.
func (c *Cluster) Run(streams []serve.Stream) *Report {
	cfg := c.cfg
	rep := &Report{InitialNodes: cfg.Nodes, Metrics: obs.NewMetrics()}
	// Sort streams by ID and index their frames; loadgen emits frames in
	// arrival order per stream, which the epoch slicing relies on.
	ordered := append([]serve.Stream(nil), streams...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	st := &runState{
		ring:       NewRing(RingConfig{}),
		checkpoint: make([]adascale.SessionCheckpoint, len(ordered)),
		resumed:    make([]bool, len(ordered)),
		prevAssign: make([]int, len(ordered)),
		rep:        rep,
	}
	for n := 0; n < cfg.Nodes; n++ {
		st.addNode()
	}
	horizon := 0.0
	cursor := make([]int, len(ordered))
	for i, s := range ordered {
		rep.Streams++
		rep.Offered += len(s.Frames)
		if n := len(s.Frames); n > 0 && s.Frames[n-1].ArrivalMS > horizon {
			horizon = s.Frames[n-1].ArrivalMS
		}
		if s.Checkpoint != nil {
			st.checkpoint[i], st.resumed[i] = *s.Checkpoint, true
		}
		st.prevAssign[i] = -1
	}
	if rep.Offered == 0 {
		rep.FinalNodes = st.ring.Len()
		return rep
	}
	epochs := int(horizon/cfg.EpochMS) + 1
	rep.Epochs = epochs

	eventIdx := 0
	for epoch := 0; epoch < epochs; epoch++ {
		start := float64(float64(epoch) * cfg.EpochMS)
		end := start + cfg.EpochMS
		clear(st.chaosFor)
		st.forced = st.forced[:0]

		c.syncMembership(st, start)
		if cfg.Plan != nil {
			for ; eventIdx < len(cfg.Plan.Events) && cfg.Plan.Events[eventIdx].AtMS < end; eventIdx++ {
				c.apply(st, cfg.Plan.Events[eventIdx], end)
			}
		}

		assign := c.place(st, ordered, cursor)
		c.runEpoch(st, ordered, cursor, assign, end)
		st.prevAssign = assign
	}

	rep.FinalNodes = st.ring.Len()
	return rep
}

// syncMembership reconciles blackout outages with the ring at an epoch
// boundary: nodes whose outage ended rejoin; nodes still inside one leave
// (their streams fail over this epoch). A node spends the epoch the
// blackout *starts* in still on the ring — its own supervisor rides the
// outage out via the injected faults.SysNodeBlackout — and leaves only
// from the next boundary, mirroring how a real cluster detects a dead node
// a health-check interval after it stops answering. The last node standing
// is never removed: the cluster always has somewhere to route frames.
func (c *Cluster) syncMembership(st *runState, startMS float64) {
	for n, upAt := range st.down {
		switch {
		case upAt == 0:
			// Not down: an outage always outlives its own epoch, so it
			// never ends at 0.
		case upAt <= startMS:
			st.down[n] = 0
			st.ring.Add(n)
		case st.ring.Has(n):
			if st.ring.Len() > 1 {
				st.ring.Remove(n)
			} else {
				// The only node up: the outage is overridden — degraded
				// serving through the supervisor beats losing the fleet.
				st.down[n] = 0
			}
		}
	}
}

// apply folds one cluster event into the run state. Events that would take
// the last node down are ignored: the cluster never loses its only serving
// node, so every offered frame always has somewhere to go (the conservation
// invariant is unconditional, including under fuzzed plans).
func (c *Cluster) apply(st *runState, e Event, epochEndMS float64) {
	switch e.Kind {
	case EvJoin:
		st.addNode()
		st.rep.Joins++
	case EvLeave:
		if !st.ring.Has(e.Node) || st.ring.Len() <= 1 {
			return
		}
		st.ring.Remove(e.Node)
		st.rep.Leaves++
	case EvBlackout:
		if !st.ring.Has(e.Node) {
			return
		}
		st.rep.Blackouts++
		// Inside the event's own epoch the node rides the outage out on
		// its supervisor — the injected faults.SysNodeBlackout sheds and
		// recovers exactly as the single-node chaos path does.
		st.chaosFor[e.Node] = append(st.chaosFor[e.Node], faults.SystemEvent{
			AtMS: e.AtMS, Kind: faults.SysNodeBlackout, Worker: -1, DurationMS: e.DurationMS,
		})
		if upAt := e.AtMS + e.DurationMS; upAt >= epochEndMS {
			// The outage outlives the epoch: from the next boundary
			// (syncMembership) the node leaves the ring and its streams
			// fail over — checkpoints restored on their new nodes — until
			// it recovers.
			if upAt > st.down[e.Node] {
				st.down[e.Node] = upAt
			}
		}
	case EvMigrate:
		if st.ring.Len() <= 1 {
			return
		}
		st.forced = append(st.forced, e.Stream)
	}
}

// place computes the epoch's stream→node assignment: the bounded-load ring
// assignment over every stream with frames remaining, then the plan's
// forced migrations on top. Migration counting compares against
// the previous epoch's placement: a stream that has already served
// somewhere (it has a checkpoint) and lands on a different node is a
// migration; if its old node is gone from the ring it is a failover.
func (c *Cluster) place(st *runState, ordered []serve.Stream, cursor []int) []int {
	assign := make([]int, len(ordered)) // stream position -> node, -1 if drained
	keys := make([]int, 0, len(ordered))
	at := make([]int, 0, len(ordered)) // position of keys[j]
	for i, s := range ordered {
		assign[i] = -1
		if cursor[i] < len(s.Frames) {
			keys = append(keys, s.ID)
			at = append(at, i)
		}
	}
	if len(keys) == 0 {
		return assign
	}
	load := make([]int, len(st.down)) // by node ID
	for j, n := range st.ring.Assign(keys) {
		assign[at[j]] = n
		load[n]++
	}

	// Forced migrations from the event plan.
	for _, k := range st.forced {
		i := sort.Search(len(ordered), func(i int) bool { return ordered[i].ID >= k })
		if i == len(ordered) || ordered[i].ID != k || assign[i] < 0 {
			continue // no such stream, or it has already drained
		}
		n := assign[i]
		if t := leastLoaded(st.ring, load, n); t >= 0 {
			assign[i] = t
			load[n]--
			load[t]++
		}
	}

	for i, n := range assign {
		prev := st.prevAssign[i]
		if n < 0 || prev < 0 || prev == n || !st.resumed[i] {
			continue
		}
		st.rep.Migrations++
		if !st.ring.Has(prev) {
			st.rep.Failovers++
		}
	}
	return assign
}

// leastLoaded returns the up node with the smallest assigned load (indexed
// by node ID) other than exclude (lowest ID on ties), or -1 if none exists.
func leastLoaded(ring *Ring, load []int, exclude int) int {
	best := -1
	for _, n := range ring.Nodes() {
		if n == exclude {
			continue
		}
		if best < 0 || load[n] < load[best] {
			best = n
		}
	}
	return best
}

// nodeEpoch is one node's share of an epoch: the streams it serves and, once
// it has run, the ledger the cluster folds.
type nodeEpoch struct {
	node    int
	streams []serve.Stream
	at      []int // stream position of streams[j]
	chaos   []faults.SystemEvent

	served, dropped, sloMisses int
	durationMS                 float64
}

// runEpoch runs every up node's serve scheduler over the arrivals before
// endMS and folds the results into the cluster report.
//
// The node runs are independent simulations, so they fan out over
// parallel.Workers() goroutines. Each folds its own streams' results (counts
// and checkpoints, disjoint by stream) and keeps nothing else of its report
// but the registry, which is merged here in ring order: histogram means are
// float sums, so the merge order is part of the snapshot.
func (c *Cluster) runEpoch(st *runState, ordered []serve.Stream, cursor []int, assign []int, endMS float64) {
	// Slice each stream's frames for the window and group by node.
	work := make([]nodeEpoch, st.ring.Len())
	for s, n := range st.ring.Nodes() {
		work[s] = nodeEpoch{node: n, chaos: st.chaosFor[n]}
	}
	for i := range ordered {
		s := &ordered[i]
		lo := cursor[i]
		hi := lo
		for hi < len(s.Frames) && s.Frames[hi].ArrivalMS < endMS {
			hi++
		}
		if hi == lo {
			continue
		}
		cursor[i] = hi
		var cp *adascale.SessionCheckpoint
		if st.resumed[i] {
			cp = &st.checkpoint[i]
		}
		w := &work[st.ring.slot(assign[i])]
		w.streams = append(w.streams, serve.Stream{ID: s.ID, Frames: s.Frames[lo:hi], Checkpoint: cp})
		w.at = append(w.at, i)
	}
	regs := parallel.Map(len(work), func(i int) *obs.Metrics { return c.runNode(st, &work[i]) })
	for i := range work {
		w := &work[i]
		if regs[i] == nil {
			continue // idle: no streams, no chaos
		}
		nr := &st.rep.PerNode[w.node]
		nr.EpochsUp++
		nr.Served += w.served
		nr.Dropped += w.dropped
		nr.SLOMisses += w.sloMisses
		st.rep.Served += w.served
		st.rep.Dropped += w.dropped
		st.rep.SLOMisses += w.sloMisses
		st.rep.DurationMS = max(st.rep.DurationMS, w.durationMS)
		st.rep.Metrics.Merge(regs[i])
	}
}

// runNode serves one node's epoch and folds its streams' results into w and
// st.checkpoint — no other node run touches those streams. It returns the
// node's registry and nothing else of its report; nil if the node is idle.
func (c *Cluster) runNode(st *runState, w *nodeEpoch) *obs.Metrics {
	if len(w.streams) == 0 && w.chaos == nil {
		return nil
	}
	nodeCfg := c.cfg.Node
	if w.chaos != nil {
		nodeCfg.Chaos = &faults.SystemPlan{Events: w.chaos}
	}
	srv, err := serve.New(c.det, c.reg, nodeCfg)
	if err != nil {
		// Config was validated at New; a per-epoch failure here is a
		// programming error, not an input condition.
		panic(fmt.Sprintf("cluster: node %d epoch config rejected: %v", w.node, err))
	}
	rep := srv.Tally(w.streams)
	for j, sr := range rep.Streams {
		w.served += sr.Served
		w.dropped += sr.Drops
		w.sloMisses += sr.SLOMisses
		st.checkpoint[w.at[j]], st.resumed[w.at[j]] = sr.Checkpoint, true
	}
	w.durationMS = rep.DurationMS
	return rep.Metrics
}
