package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

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
// exactly where it left them. Nothing is rebuilt per run or per epoch: a
// Run's state comes from runPool, a node run's from the serve layer's pool.

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
// indexed by the stream's position in ordered, per-node state by node ID
// (addNode mints IDs densely). Runs take one from runPool and put it back,
// so every part grows to the largest run it has served; reset readies it.
type runState struct {
	ordered    []serve.Stream               // the streams by ID, each one's frames in arrival order (loadgen's)
	cursor     []int                        // the stream's next frame to serve
	ring       Ring                         // the placement ring
	down       []float64                    // node -> virtual instant it comes back up, 0 while not down
	chaosFor   [][]faults.SystemEvent       // node -> blackouts injected this epoch
	nodeRep    []serve.Report               // node -> its last Tally: registry and duration
	checkpoint []adascale.SessionCheckpoint // the stream's ladder state, once resumed
	resumed    []bool                       // checkpoint holds state: given, or served
	assign     []int                        // node this epoch, -1 if drained
	prevAssign []int                        // node last epoch, -1 if unplaced
	forced     []int                        // stream IDs with a forced migration this epoch
	keys, at   []int                        // place: IDs of the streams left, and their positions
	owner      []int                        // place: keys[j]'s node on the ring
	load       []int                        // place: streams per node ID
	work       []nodeEpoch                  // runEpoch: one per up node
	slotOf     []int                        // runEpoch: node ID -> its work list
	rep        *Report
}

var runPool = sync.Pool{New: func() any { return new(runState) }}

// reset readies a recycled state for a run of streams into rep, counts the
// streams and frames into rep, and returns the last arrival.
func (st *runState) reset(streams []serve.Stream, rep *Report) (horizon float64) {
	st.ordered = append(st.ordered[:0], streams...)
	slices.SortFunc(st.ordered, func(a, b serve.Stream) int { return cmp.Compare(a.ID, b.ID) })
	n := len(st.ordered)
	st.checkpoint, st.resumed = resize(st.checkpoint, n), resize(st.resumed, n)
	st.assign, st.prevAssign, st.cursor = resize(st.assign, n), resize(st.prevAssign, n), resize(st.cursor, n)
	rep.Streams = n
	for i, s := range st.ordered {
		rep.Offered += len(s.Frames)
		if f := len(s.Frames); f > 0 && s.Frames[f-1].ArrivalMS > horizon {
			horizon = s.Frames[f-1].ArrivalMS
		}
		if st.resumed[i] = s.Checkpoint != nil; st.resumed[i] {
			st.checkpoint[i] = *s.Checkpoint
		}
		st.prevAssign[i], st.cursor[i] = -1, 0
	}
	st.ring.nodes, st.ring.points = st.ring.nodes[:0], st.ring.points[:0]
	st.down, st.chaosFor, st.nodeRep = st.down[:0], st.chaosFor[:0], st.nodeRep[:0]
	st.rep = rep
	return horizon
}

// release drops every pointer into the finished run — frames, checkpoints,
// the report — so a pooled state pins none of it.
func (st *runState) release() {
	clear(st.ordered)
	clear(st.checkpoint)
	work := st.work[:cap(st.work)] // an epoch with more nodes filled the tail
	for i := range work {
		clear(work[i].streams[:cap(work[i].streams)])
		work[i].chaos = nil
	}
	clear(st.chaosFor)
	st.rep = nil
}

// addNode mints the next node ID and puts the node on the ring. Run's
// initial nodes and the plan's joins are its only callers.
func (st *runState) addNode() {
	n := len(st.down)
	st.down = append(st.down, 0)
	st.chaosFor = append(st.chaosFor, nil)
	st.nodeRep = slices.Grow(st.nodeRep, 1)[:n+1] // a recycled report keeps its registry; Tally resets it
	st.rep.PerNode = append(st.rep.PerNode, NodeReport{Node: n})
	st.ring.Add(n)
}

// resize returns s with n elements, regrown by append's rule only when s
// is too short; the elements hold what they held, and the caller sets them.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Run shards the streams across the cluster and serves them to completion.
func (c *Cluster) Run(streams []serve.Stream) *Report {
	st := runPool.Get().(*runState)
	rep := c.runOn(st, streams)
	runPool.Put(st) // not deferred: a run that panicked leaves its state to the collector
	return rep
}

// runOn is Run on the given state. Every part of it is reset before use and
// every pointer into the run dropped after, so a recycled state serves a run
// exactly as a new one would (TestClusterRunReuseMatchesCold).
func (c *Cluster) runOn(st *runState, streams []serve.Stream) *Report {
	cfg := c.cfg
	rep := &Report{InitialNodes: cfg.Nodes, Metrics: obs.NewMetrics()}
	horizon := st.reset(streams, rep)
	for n := 0; n < cfg.Nodes; n++ {
		st.addNode()
	}
	if rep.Offered > 0 {
		rep.Epochs = int(horizon/cfg.EpochMS) + 1
	}

	eventIdx := 0
	for epoch := 0; epoch < rep.Epochs; epoch++ {
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

		c.place(st)
		c.runEpoch(st, end)
		st.assign, st.prevAssign = st.prevAssign, st.assign
	}

	rep.FinalNodes = st.ring.Len()
	st.release()
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

// place computes the epoch's stream→node assignment into st.assign: the
// bounded-load ring assignment over every stream with frames remaining, then
// the plan's forced migrations on top. Migration counting compares against
// the previous epoch's placement: a stream that has already served
// somewhere (it has a checkpoint) and lands on a different node is a
// migration; if its old node is gone from the ring it is a failover.
func (c *Cluster) place(st *runState) {
	ordered, assign := st.ordered, st.assign // assign: stream position -> node, -1 if drained
	// The streams with frames left, at most all of them: keys[j] is the ID
	// of the stream at position at[j].
	keys, at := resize(st.keys, len(ordered))[:0], resize(st.at, len(ordered))[:0]
	for i, s := range ordered {
		assign[i] = -1
		if st.cursor[i] < len(s.Frames) {
			keys = append(keys, s.ID)
			at = append(at, i)
		}
	}
	st.keys, st.at = keys, at
	if len(keys) == 0 {
		return
	}
	load := resize(st.load, len(st.down)) // by node ID
	clear(load)
	st.owner = resize(st.owner, len(keys))
	st.load = load
	for j, n := range st.ring.assign(st.owner, keys) {
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
		if t := leastLoaded(&st.ring, load, n); t >= 0 {
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
// it has run, the ledger the cluster folds. Its slices are recycled epoch to
// epoch.
type nodeEpoch struct {
	node    int
	streams []serve.Stream // the windows runNode cuts
	at      []int          // stream positions placed on the node; then streams[j]'s
	chaos   []faults.SystemEvent

	served, dropped, sloMisses int
	durationMS                 float64
}

// runEpoch runs every up node's serve scheduler over the arrivals before
// endMS and folds the results into the cluster report.
//
// The node runs are independent simulations, so they fan out over
// parallel.Workers() goroutines. Here, serially, the placed streams are only
// grouped by node; each node run cuts its own streams' windows and folds
// their results (cursors, counts and checkpoints, disjoint by stream) and
// hands back its registry, which is merged here in ring order: histogram
// means are float sums, so the merge order is part of the snapshot.
func (c *Cluster) runEpoch(st *runState, endMS float64) {
	st.work, st.slotOf = resize(st.work, st.ring.Len()), resize(st.slotOf, len(st.down))
	for s, n := range st.ring.Nodes() {
		w := &st.work[s]
		*w = nodeEpoch{node: n, streams: w.streams[:0], at: w.at[:0], chaos: st.chaosFor[n]}
		st.slotOf[n] = s
	}
	for i, n := range st.assign {
		if n >= 0 {
			w := &st.work[st.slotOf[n]]
			w.at = append(w.at, i)
		}
	}
	regs := parallel.Map(len(st.work), func(i int) *obs.Metrics { return c.runNode(st, &st.work[i], endMS) })
	for i := range st.work {
		w := &st.work[i]
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

// runNode cuts the windows of the node's streams — their frames arriving
// before endMS — tallies the node's epoch into its report and folds its
// streams' results into w and their per-stream state; no other node run
// touches either. It returns the node's registry; nil if the node is idle.
func (c *Cluster) runNode(st *runState, w *nodeEpoch, endMS float64) *obs.Metrics {
	at := w.at[:0] // the streams with frames in the window
	for _, i := range w.at {
		s := &st.ordered[i]
		lo := st.cursor[i]
		hi := lo
		for hi < len(s.Frames) && s.Frames[hi].ArrivalMS < endMS {
			hi++
		}
		if hi == lo {
			continue
		}
		st.cursor[i] = hi
		var cp *adascale.SessionCheckpoint
		if st.resumed[i] {
			cp = &st.checkpoint[i]
		}
		w.streams = append(w.streams, serve.Stream{ID: s.ID, Frames: s.Frames[lo:hi], Checkpoint: cp})
		at = append(at, i)
	}
	w.at = at
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
	rep := &st.nodeRep[w.node]
	srv.Tally(w.streams, rep, func(j int, sr serve.StreamReport) {
		w.served += sr.Served
		w.dropped += sr.Drops
		w.sloMisses += sr.SLOMisses
		st.checkpoint[w.at[j]], st.resumed[w.at[j]] = sr.Checkpoint, true
	})
	w.durationMS = rep.DurationMS
	return rep.Metrics
}
