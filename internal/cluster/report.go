package cluster

import (
	"fmt"
	"strings"

	"adascale/internal/obs"
)

// NodeReport is one node's cluster-run rollup.
type NodeReport struct {
	Node      int
	EpochsUp  int // epochs the node served (was up with work or chaos)
	Served    int
	Dropped   int
	SLOMisses int
}

// Report is the outcome of one cluster run. Offered counts every frame of
// every input stream; Served and Dropped are summed over each (node, epoch)
// serve report. The serve scheduler conserves frames within a window and
// every frame is routed to exactly one window on exactly one node, so
// Lost() == 0 is a structural invariant — the property, golden and fuzz
// layers all assert it stays one.
type Report struct {
	Streams   int
	Offered   int
	Served    int
	Dropped   int
	SLOMisses int

	Epochs     int
	DurationMS float64

	InitialNodes int
	FinalNodes   int
	Joins        int // plan joins
	Leaves       int // plan leaves (graceful)
	Blackouts    int // plan blackouts applied
	Migrations   int // streams whose placement moved with session state
	Failovers    int // migrations whose origin node was down or gone

	// PerNode holds one rollup per node ever on the ring, indexed by node
	// ID: IDs are dense (0..InitialNodes-1, then one per plan join).
	PerNode []NodeReport

	// Metrics is the cluster-wide registry: every (node, epoch) serving
	// registry merged in deterministic order. Its Snapshot() is the
	// cluster's golden surface.
	Metrics *obs.Metrics
}

// Lost returns the number of offered frames that were neither served nor
// dropped — zero by construction; the invariant every test layer asserts.
func (r *Report) Lost() int {
	return r.Offered - r.Served - r.Dropped
}

// String renders the report as deterministic text: the fixed-order summary
// block plus per-node rollups in node-ID order. The cluster goldens and
// the cluster-smoke gate compare this byte for byte.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: streams=%d offered=%d served=%d dropped=%d lost=%d slo_miss=%d\n",
		r.Streams, r.Offered, r.Served, r.Dropped, r.Lost(), r.SLOMisses)
	fmt.Fprintf(&b, "epochs=%d duration_ms=%.3f\n", r.Epochs, r.DurationMS)
	fmt.Fprintf(&b, "nodes: initial=%d final=%d joins=%d leaves=%d blackouts=%d\n",
		r.InitialNodes, r.FinalNodes, r.Joins, r.Leaves, r.Blackouts)
	fmt.Fprintf(&b, "migrations=%d failovers=%d\n", r.Migrations, r.Failovers)
	for _, n := range r.PerNode {
		fmt.Fprintf(&b, "node %-3d epochs_up=%-3d served=%-6d dropped=%-5d slo_miss=%d\n",
			n.Node, n.EpochsUp, n.Served, n.Dropped, n.SLOMisses)
	}
	return b.String()
}
