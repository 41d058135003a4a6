package experiments

import (
	"fmt"
	"io"

	"adascale/internal/adascale"
	"adascale/internal/cluster"
	"adascale/internal/serve"
)

// ClusterSweepConfig sizes the cluster capacity-planning sweep.
type ClusterSweepConfig struct {
	// Streams are the concurrent stream counts to sweep; default
	// {1000, 10000, 100000} — the "millions of users" planning axis.
	Streams []int

	// Nodes are the cluster sizes each stream count is served on; default
	// {16, 64, 256}.
	Nodes []int

	// FPS / FramesPerStream shape each stream's open-loop schedule;
	// default 10 fps, 4 frames (capacity planning needs breadth across
	// streams, not depth per stream; 10 fps against a 3-deep queue makes
	// both damage axes live — saturated nodes shed as well as queue).
	FPS             float64
	FramesPerStream int

	// Workers is each node's explicit virtual serving capacity; default 8.
	Workers int

	// QueueDepth bounds each stream's queue; default 3.
	QueueDepth int

	// SLOMS is the per-frame latency SLO (virtual ms); default 80.
	SLOMS float64

	// EpochMS is the cluster placement epoch; default 500.
	EpochMS float64

	// EventRate is the cluster event plan's intensity (joins, leaves,
	// blackouts, migrations per virtual second); default 2 — enough that
	// every cell exercises failover, not just steady-state sharding.
	EventRate float64

	// PlanSeed seeds the cluster event plans; zero derives from the
	// bundle seed.
	PlanSeed int64
}

// DefaultClusterSweepConfig returns the full capacity-planning sizing.
func DefaultClusterSweepConfig() ClusterSweepConfig {
	return ClusterSweepConfig{
		Streams: []int{1000, 10000, 100000},
		Nodes:   []int{16, 64, 256},
	}
}

func (c ClusterSweepConfig) withDefaults(bundleSeed int64) ClusterSweepConfig {
	if len(c.Streams) == 0 {
		c.Streams = []int{1000, 10000, 100000}
	}
	if len(c.Nodes) == 0 {
		c.Nodes = []int{16, 64, 256}
	}
	if c.FPS <= 0 {
		c.FPS = 10
	}
	if c.FramesPerStream <= 0 {
		c.FramesPerStream = 4
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 3
	}
	if c.SLOMS < 0 {
		c.SLOMS = 0
	}
	if c.SLOMS == 0 {
		c.SLOMS = 80
	}
	if c.EpochMS <= 0 {
		c.EpochMS = 500
	}
	if c.EventRate < 0 {
		c.EventRate = 0
	} else if c.EventRate == 0 {
		c.EventRate = 2
	}
	if c.PlanSeed == 0 {
		c.PlanSeed = bundleSeed + 911
	}
	return c
}

// ClusterCell scores one (streams, nodes) cluster run.
type ClusterCell struct {
	// Offered / Served / Dropped / Lost are cluster frame totals; Lost
	// must be zero (the conservation invariant).
	Offered, Served, Dropped, Lost int

	// DropRate is dropped/offered; SLOMissRate is misses/served.
	DropRate, SLOMissRate float64

	// P95 is the end-to-end latency p95 (virtual ms) over served frames.
	P95 float64

	// RecoveryMS is the mean first-failure→settle time across the
	// blackout windows (0 when no dispatch ever failed).
	RecoveryMS float64

	// Blackouts / Migrations / Failovers count the cluster events the
	// cell absorbed; FinalNodes is the fleet size at the end.
	Blackouts, Migrations, Failovers, FinalNodes int
}

// ClusterRow is one stream count across every cluster size.
type ClusterRow struct {
	Streams int
	Cells   []ClusterCell // one per cfg.Nodes entry, in order
}

// ClusterResult is the capacity-planning sweep.
type ClusterResult struct {
	Dataset string
	Cfg     ClusterSweepConfig
	Rows    []ClusterRow
}

// Cluster sweeps stream count × cluster size over the virtual-time cluster
// simulator: every cell shards the same seeded open-loop load across the
// given node count, injects the same-rate cluster event plan (joins,
// leaves, blackouts forcing cross-node failover, stream migrations), and
// scores SLO damage, recovery time and fleet outcomes. Runs are model-only
// — frames cost their modelled virtual service time but no real detector
// compute — which is what makes the 100k-stream column tractable; queue
// dynamics, drops, latency and recovery are exactly what the full run
// would produce. The sweep is a pure function of the bundle seed and the
// sweep config.
func (b *Bundle) Cluster(cfg ClusterSweepConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults(b.Cfg.Seed)
	sys := b.DefaultSystem()
	res := &ClusterResult{Dataset: b.Cfg.Dataset, Cfg: cfg}

	for _, streams := range cfg.Streams {
		load, err := serve.GenLoad(b.DS.Val, serve.LoadConfig{
			Streams:         streams,
			FPS:             cfg.FPS,
			FramesPerStream: cfg.FramesPerStream,
			Seed:            b.Cfg.Seed + 433,
		})
		if err != nil {
			return nil, err
		}
		horizon := serve.LastArrivalMS(load)
		row := ClusterRow{Streams: streams}
		for _, nodes := range cfg.Nodes {
			plan, err := cluster.GenPlan(cluster.PlanConfig{
				Seed:      cfg.PlanSeed,
				HorizonMS: horizon + cfg.EpochMS,
				Rate:      cfg.EventRate,
				Nodes:     nodes,
				Streams:   streams,
			})
			if err != nil {
				return nil, err
			}
			cl, err := cluster.New(sys.Detector, sys.Regressor, cluster.Config{
				Nodes:   nodes,
				EpochMS: cfg.EpochMS,
				Plan:    plan,
				Node: serve.Config{
					Workers:    cfg.Workers,
					QueueDepth: cfg.QueueDepth,
					SLOMS:      cfg.SLOMS,
					Resilient:  adascale.DefaultResilientConfig(),
					ModelOnly:  true,
				},
			})
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, scoreCluster(cl.Run(load)))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// scoreCluster folds one cluster report into a sweep cell.
func scoreCluster(rep *cluster.Report) ClusterCell {
	cell := ClusterCell{
		Offered:    rep.Offered,
		Served:     rep.Served,
		Dropped:    rep.Dropped,
		Lost:       rep.Lost(),
		P95:        rep.Metrics.Quantile("latency/ms", 0.95),
		RecoveryMS: rep.Metrics.Mean("recovery/ms"),
		Blackouts:  rep.Blackouts,
		Migrations: rep.Migrations,
		Failovers:  rep.Failovers,
		FinalNodes: rep.FinalNodes,
	}
	if rep.Offered > 0 {
		cell.DropRate = float64(rep.Dropped) / float64(rep.Offered)
	}
	if rep.Served > 0 {
		cell.SLOMissRate = float64(rep.SLOMisses) / float64(rep.Served)
	}
	return cell
}

// Print writes the capacity-planning sweep in paper-table style: one line
// per (streams, nodes) cell, grouped by stream count — the SLO-damage and
// recovery-time curves a capacity planner reads across each group to pick
// the smallest fleet meeting the SLO target.
func (r *ClusterResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Cluster capacity (%s): %.0f fps x %d frames/stream, %d workers/node, queue %d, SLO %.0f ms, epoch %.0f ms, event rate %.2g/s\n",
		r.Dataset, r.Cfg.FPS, r.Cfg.FramesPerStream, r.Cfg.Workers,
		r.Cfg.QueueDepth, r.Cfg.SLOMS, r.Cfg.EpochMS, r.Cfg.EventRate)
	header := fmt.Sprintf("%-8s %-6s %9s %7s %9s %9s %12s %6s %6s %5s %4s",
		"streams", "nodes", "offered", "drop%", "SLOmiss%", "p95(ms)", "recovery(ms)", "blkout", "migr", "fover", "lost")
	fmt.Fprintln(w, header)
	printRuler(w, len(header))
	for _, row := range r.Rows {
		for i, cell := range row.Cells {
			fmt.Fprintf(w, "%-8d %-6d %9d %7.1f %9.1f %9.1f %12.1f %6d %6d %5d %4d\n",
				row.Streams, r.Cfg.Nodes[i], cell.Offered,
				cell.DropRate*100, cell.SLOMissRate*100, cell.P95, cell.RecoveryMS,
				cell.Blackouts, cell.Migrations, cell.Failovers, cell.Lost)
		}
	}
	if n := len(r.Rows); n > 0 && len(r.Rows[n-1].Cells) > 1 {
		last := r.Rows[n-1]
		first, best := last.Cells[0], last.Cells[len(last.Cells)-1]
		fmt.Fprintf(w, "At %d streams, growing %d -> %d nodes cuts SLO misses %.1f%% -> %.1f%% and p95 %.1f -> %.1f ms.\n\n",
			last.Streams, r.Cfg.Nodes[0], r.Cfg.Nodes[len(r.Cfg.Nodes)-1],
			first.SLOMissRate*100, best.SLOMissRate*100, first.P95, best.P95)
	}
}
