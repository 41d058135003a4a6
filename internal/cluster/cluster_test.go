package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/obs"
	"adascale/internal/parallel"
	"adascale/internal/serve"
	"adascale/internal/synth"
)

var (
	buildOnce sync.Once
	sharedDS  *synth.Dataset
	sharedSys *adascale.System
)

// system builds one small trained system shared across the package's tests
// (testing.TB so the fuzz harness can share the fixture).
func system(t testing.TB) (*synth.Dataset, *adascale.System) {
	t.Helper()
	buildOnce.Do(func() {
		cfg := synth.VIDLike(5)
		ds, err := synth.Generate(cfg, 12, 6)
		if err != nil {
			t.Fatal(err)
		}
		sharedDS = ds
		sharedSys = adascale.Build(ds, adascale.DefaultBuildConfig())
	})
	return sharedDS, sharedSys
}

// load generates an arrival schedule over the validation snippets.
func load(t testing.TB, ds *synth.Dataset, streams int, fps float64, frames int, seed int64) []serve.Stream {
	t.Helper()
	out, err := serve.GenLoad(ds.Val, serve.LoadConfig{Streams: streams, FPS: fps, FramesPerStream: frames, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// nodeConfig is the per-node template every cluster test shares.
func nodeConfig() serve.Config {
	return serve.Config{
		Workers: 2, QueueDepth: 4, SLOMS: 100,
		Resilient: adascale.DefaultResilientConfig(),
	}
}

func newCluster(t *testing.T, sys *adascale.System, cfg Config) *Cluster {
	t.Helper()
	c, err := New(sys.Detector, sys.Regressor, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkConserved asserts the conservation invariant and internal
// consistency of a cluster report, PerNode's dense node IDs included.
func checkConserved(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Lost() != 0 {
		t.Fatalf("cluster lost %d frames (offered=%d served=%d dropped=%d)",
			rep.Lost(), rep.Offered, rep.Served, rep.Dropped)
	}
	var served, dropped int
	for i, n := range rep.PerNode {
		if n.Node != i {
			t.Fatalf("PerNode[%d] is node %d: node IDs must be dense from 0", i, n.Node)
		}
		served += n.Served
		dropped += n.Dropped
	}
	if served != rep.Served || dropped != rep.Dropped {
		t.Fatalf("per-node rollups (served=%d dropped=%d) disagree with totals (served=%d dropped=%d)",
			served, dropped, rep.Served, rep.Dropped)
	}
	if got := rep.Metrics.Counter("frames/served"); int(got) != rep.Served {
		t.Fatalf("merged metrics count %d served frames, report says %d", got, rep.Served)
	}
}

func TestClusterConservation(t *testing.T) {
	ds, sys := system(t)
	c := newCluster(t, sys, Config{Nodes: 3, EpochMS: 400, Node: nodeConfig()})
	rep := c.Run(load(t, ds, 9, 20, 10, 11))
	checkConserved(t, rep)
	if rep.Streams != 9 || rep.Offered != 90 {
		t.Fatalf("streams=%d offered=%d, want 9/90", rep.Streams, rep.Offered)
	}
	if rep.Served == 0 {
		t.Fatal("cluster served nothing")
	}
	if rep.FinalNodes != 3 {
		t.Fatalf("final nodes %d, want 3 (no plan)", rep.FinalNodes)
	}
	for _, want := range []string{"cluster:", "lost=0", "node 0", "node 2"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, rep.String())
		}
	}
}

// TestClusterDeterministic pins the cluster determinism contract: two runs
// with the same inputs — and runs at real worker counts 1 and 4 — produce
// byte-identical reports and metric snapshots.
func TestClusterDeterministic(t *testing.T) {
	ds, sys := system(t)
	plan, err := GenPlan(PlanConfig{Seed: 3, HorizonMS: 1200, Rate: 3, Nodes: 3, Streams: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		c := newCluster(t, sys, Config{Nodes: 3, EpochMS: 400, Plan: plan, Node: nodeConfig()})
		rep := c.Run(load(t, ds, 8, 20, 8, 11))
		checkConserved(t, rep)
		return rep.String() + rep.Metrics.Snapshot()
	}
	ref := run()
	if again := run(); again != ref {
		t.Fatalf("cluster run diverged across identical runs:\n--- A ---\n%s\n--- B ---\n%s", ref, again)
	}
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, w := range []int{1, 4} {
		parallel.SetWorkers(w)
		if got := run(); got != ref {
			t.Fatalf("cluster run diverged at real workers=%d", w)
		}
	}
}

// TestClusterWorkersByteIdentical pins the epoch fan-out: node runs proceed
// on parallel.Workers() goroutines, and at 1, 2 and 8 workers the report and
// the merged snapshot are byte-identical — for model-only and computed
// nodes, under a plan with every event kind.
func TestClusterWorkersByteIdentical(t *testing.T) {
	ds, sys := system(t)
	plan := &Plan{Events: []Event{
		{AtMS: 100, Kind: EvJoin},
		{AtMS: 150, Kind: EvBlackout, Node: 1, DurationMS: 700},
		{AtMS: 500, Kind: EvMigrate, Stream: 3},
		{AtMS: 900, Kind: EvLeave, Node: 0},
	}}
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, modelOnly := range []bool{true, false} {
		node := nodeConfig()
		node.ModelOnly = modelOnly
		var ref string
		for _, w := range []int{1, 2, 8} {
			parallel.SetWorkers(w)
			c := newCluster(t, sys, Config{Nodes: 4, EpochMS: 400, Plan: plan, Node: node})
			ld := load(t, ds, 12, 15, 16, 11)
			run := func() (string, *Report) {
				rep := c.Run(ld)
				checkConserved(t, rep)
				// The snapshot prints means to 3 decimals; a merge in
				// another order moves only their last bits.
				got := rep.String() + rep.Metrics.Snapshot()
				for _, h := range []string{"latency/ms", "queue/wait_ms", "service/ms"} {
					got += fmt.Sprintf("%s mean %b\n", h, rep.Metrics.Mean(h))
				}
				return got, rep
			}
			// The second Run serves from node working sets the first
			// recycled, and must not tell.
			got, rep := run()
			if again, _ := run(); again != got {
				t.Fatalf("model-only=%v workers=%d: a second Run of one Cluster diverged:\n--- first ---\n%s\n--- second ---\n%s", modelOnly, w, got, again)
			}
			switch {
			case ref == "":
				if rep.Joins != 1 || rep.Leaves != 1 || rep.Blackouts != 1 || rep.Failovers == 0 || rep.Migrations <= rep.Failovers {
					t.Fatalf("model-only=%v: the plan did not exercise every event kind:\n%s", modelOnly, rep)
				}
				ref = got
			case got != ref:
				t.Fatalf("model-only=%v: workers=%d diverged from workers=1:\n--- 1 ---\n%s\n--- %d ---\n%s", modelOnly, w, ref, w, got)
			}
		}
	}
}

// TestTallySteadyStateAllocs: a node's Tally, repeated at one shape into one
// report — a cluster node's run, epoch after epoch — allocates only what it
// returns. Model-only, that is nothing: the report hands back counts and
// checkpoints, and a model-only checkpoint carries no detections. Before
// the working set was recycled, the same Tally allocated 59 times at 64
// streams (its registry, session slabs, agenda, index and report).
func TestTallySteadyStateAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector): a zero-allocation pin through it cannot hold")
	}
	ds, sys := system(t)
	node := nodeConfig()
	node.ModelOnly = true
	srv, err := serve.New(sys.Detector, sys.Regressor, node)
	if err != nil {
		t.Fatal(err)
	}
	streams := load(t, ds, 64, 30, 8, 5)
	cps := make([]adascale.SessionCheckpoint, len(streams))
	offered, settled := 0, 0
	fold := func(i int, sr serve.StreamReport) { // as runNode folds a node's streams
		offered += sr.Offered
		settled += sr.Served + sr.Drops
		cps[i] = sr.Checkpoint
	}
	var rep serve.Report
	srv.Tally(streams, &rep, fold)
	for i := range streams { // resumed, as after a node's first epoch
		streams[i].Checkpoint = &cps[i]
	}
	srv.Tally(streams, &rep, fold)
	const returned = 0 // allocations in what a model-only Tally returns
	if n := testing.AllocsPerRun(10, func() { srv.Tally(streams, &rep, fold) }); n > returned {
		t.Fatalf("a same-shaped Tally allocates %v times, want at most %d", n, returned)
	}
	if offered == 0 || settled != offered {
		t.Fatalf("Tally settled %d of %d offered frames", settled, offered)
	}
}

// poolRetains reports whether a sync.Pool keeps what is Put — false under
// the race detector, which drops a share of Puts on purpose.
func poolRetains() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 64; i++ {
		p.Put(p.Get())
	}
	return news == 1
}

// TestClusterNodePanicSurfaces: a node run that panics — here on a nil
// frame — re-raises on Run's caller as a *parallel.PanicError at any worker
// count, instead of killing the process from a pool goroutine.
func TestClusterNodePanicSurfaces(t *testing.T) {
	ds, sys := system(t)
	node := nodeConfig()
	node.ModelOnly = true
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, w := range []int{1, 4} {
		parallel.SetWorkers(w)
		streams := load(t, ds, 8, 20, 6, 11)
		streams[5].Frames[2].Frame = nil
		func() {
			defer func() {
				if _, ok := recover().(*parallel.PanicError); !ok {
					t.Fatalf("workers=%d: Run did not re-raise the node's panic as a *parallel.PanicError", w)
				}
			}()
			newCluster(t, sys, Config{Nodes: 3, EpochMS: 400, Node: node}).Run(streams)
		}()
	}
}

// TestClusterBlackoutFailover drives a blackout that outlives its epoch:
// the node must leave the ring, its streams must fail over with their
// checkpoints, the node must come back, and no frame may be lost.
func TestClusterBlackoutFailover(t *testing.T) {
	ds, sys := system(t)
	plan := &Plan{Events: []Event{
		{AtMS: 150, Kind: EvBlackout, Node: 1, DurationMS: 700},
	}}
	c := newCluster(t, sys, Config{Nodes: 3, EpochMS: 400, Plan: plan, Node: nodeConfig()})
	rep := c.Run(load(t, ds, 9, 15, 20, 11))
	checkConserved(t, rep)
	if rep.Blackouts != 1 {
		t.Fatalf("blackouts applied = %d, want 1", rep.Blackouts)
	}
	if rep.Failovers == 0 {
		t.Fatal("no failovers recorded through a node blackout")
	}
	if rep.FinalNodes != 3 {
		t.Fatalf("final nodes %d, want 3 (node 1 recovers at 850ms)", rep.FinalNodes)
	}
	// The blacked-out node must have sat out at least one epoch.
	if rep.PerNode[1].EpochsUp >= rep.Epochs {
		t.Fatalf("node 1 up for all %d epochs despite a 700ms blackout", rep.Epochs)
	}
}

// TestClusterJoinLeave checks membership bookkeeping: plan joins mint fresh
// node IDs, graceful leaves drain through migration, and the last node can
// never be removed.
func TestClusterJoinLeave(t *testing.T) {
	ds, sys := system(t)
	plan := &Plan{Events: []Event{
		{AtMS: 100, Kind: EvJoin},
		{AtMS: 500, Kind: EvLeave, Node: 0},
		{AtMS: 900, Kind: EvLeave, Node: 99}, // absent: ignored
	}}
	c := newCluster(t, sys, Config{Nodes: 2, EpochMS: 400, Plan: plan, Node: nodeConfig()})
	rep := c.Run(load(t, ds, 6, 20, 10, 11))
	checkConserved(t, rep)
	if rep.Joins != 1 || rep.Leaves != 1 {
		t.Fatalf("joins=%d leaves=%d, want 1/1", rep.Joins, rep.Leaves)
	}
	if rep.FinalNodes != 2 {
		t.Fatalf("final nodes %d, want 2 (2 initial + 1 join - 1 leave)", rep.FinalNodes)
	}
	if rep.Migrations == 0 {
		t.Fatal("membership churn produced no migrations")
	}

	// A plan that tries to remove every node must leave one standing.
	drain := &Plan{Events: []Event{
		{AtMS: 100, Kind: EvLeave, Node: 0},
		{AtMS: 100, Kind: EvLeave, Node: 1},
	}}
	c2 := newCluster(t, sys, Config{Nodes: 2, EpochMS: 400, Plan: drain, Node: nodeConfig()})
	rep2 := c2.Run(load(t, ds, 4, 20, 8, 11))
	checkConserved(t, rep2)
	if rep2.FinalNodes != 1 {
		t.Fatalf("final nodes %d, want exactly 1 survivor", rep2.FinalNodes)
	}
}

// TestClusterModelOnly checks the capacity-sweep fast path: model-only
// cluster runs conserve frames, produce deterministic snapshots,
// and serve every non-dropped frame through the propagation path.
func TestClusterModelOnly(t *testing.T) {
	ds, sys := system(t)
	node := nodeConfig()
	node.ModelOnly = true
	run := func() string {
		c := newCluster(t, sys, Config{Nodes: 2, EpochMS: 400, Node: node})
		rep := c.Run(load(t, ds, 50, 15, 6, 11))
		checkConserved(t, rep)
		if rep.Served+rep.Dropped != 300 {
			t.Fatalf("served=%d dropped=%d, want total 300", rep.Served, rep.Dropped)
		}
		return rep.String() + rep.Metrics.Snapshot()
	}
	ref := run()
	if again := run(); again != ref {
		t.Fatal("model-only cluster run not deterministic")
	}
}

// TestClusterConfigValidation pins the config contract.
func TestClusterConfigValidation(t *testing.T) {
	_, sys := system(t)
	if _, err := New(sys.Detector, sys.Regressor, Config{Nodes: 0, Node: nodeConfig()}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad := nodeConfig()
	bad.Workers = 0
	if _, err := New(sys.Detector, sys.Regressor, Config{Nodes: 2, Node: bad}); err == nil {
		t.Fatal("machine-derived node worker count accepted")
	}
	withChaos := nodeConfig()
	withChaos.Chaos = &faults.SystemPlan{}
	if _, err := New(sys.Detector, sys.Regressor, Config{Nodes: 2, Node: withChaos}); err == nil {
		t.Fatal("caller-owned node chaos plan accepted")
	}
	nanSLO := nodeConfig()
	nanSLO.SLOMS = math.NaN()
	var ce *serve.ConfigError
	if _, err := New(sys.Detector, sys.Regressor, Config{Nodes: 2, Node: nanSLO}); !errors.As(err, &ce) || ce.Field != "SLOMS" {
		t.Fatalf("NaN node SLO: New = %v, want the node's *serve.ConfigError on SLOMS", err)
	}
}

// TestClusterConfigRejectsNonFinite: NaN fails every comparison, so a NaN
// epoch used to run with Epochs = MinInt64 and an infinite one with a NaN
// epoch start — both serving nothing and losing every frame. Validate names
// the field of every non-finite or negative value, and of the per-run
// callbacks concurrent node runs cannot honour.
func TestClusterConfigRejectsNonFinite(t *testing.T) {
	_, sys := system(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"EpochMS", func(c *Config) { c.EpochMS = nan }},
		{"EpochMS", func(c *Config) { c.EpochMS = inf }},
		{"EpochMS", func(c *Config) { c.EpochMS = -1 }},
		{"Node.OnTick", func(c *Config) { c.Node.OnTick = func(float64, *obs.Metrics) {} }},
		{"Node.Tracer", func(c *Config) { c.Node.Tracer = obs.NewTracer() }},
	} {
		cfg := Config{Nodes: 2, Node: nodeConfig()}
		tc.set(&cfg)
		if _, err := New(sys.Detector, sys.Regressor, cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: New = %v, want an error naming the field", tc.field, err)
		}
	}
}

// TestPlanConfigRejectsNonFinite: an infinite Rate makes every gap 0 and an
// infinite HorizonMS never ends, so GenPlan appended events until memory ran
// out; a NaN one returned an empty plan.
func TestPlanConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(*PlanConfig)
	}{
		{"HorizonMS", func(c *PlanConfig) { c.HorizonMS = inf }},
		{"HorizonMS", func(c *PlanConfig) { c.HorizonMS = nan }},
		{"Rate", func(c *PlanConfig) { c.Rate = inf }},
		{"Rate", func(c *PlanConfig) { c.Rate = nan }},
	} {
		cfg := PlanConfig{Seed: 1, HorizonMS: 1000, Rate: 2, Nodes: 2, Streams: 4}
		tc.set(&cfg)
		if _, err := GenPlan(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: GenPlan = %v, want an error naming the field", tc.field, err)
		}
	}
}
