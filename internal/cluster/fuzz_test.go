package cluster

import (
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/serve"
)

// FuzzClusterEvents decodes an arbitrary byte string into a cluster event
// script (DecodePlan is total: every input is a structurally valid plan)
// and replays it against a small model-only cluster. The invariants, on
// EVERY input: no panic; the conservation identity offered == served +
// dropped with Lost() == 0 — node blackouts, joins, leaves and forced
// migrations may move or drop frames but can never lose one — per-node
// rollups that sum to the cluster totals, and a byte-identical report on
// an immediate re-run (determinism under adversarial schedules, not just
// the curated ones the goldens pin).
func FuzzClusterEvents(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	// One long blackout (spans the 400ms epoch → cross-node failover).
	f.Add([]byte{2, 0x20, 0x00, 1, 0, 200}, uint8(3))
	// Join, graceful leave of node 0, forced stream migration.
	f.Add([]byte{
		0, 0x08, 0x00, 0, 0, 0,
		1, 0x40, 0x00, 0, 0, 0,
		3, 0x60, 0x00, 0, 4, 0,
	}, uint8(2))
	// Leave every initial node of a 2-node cluster (the survivor guard).
	f.Add([]byte{
		1, 0x10, 0x00, 0, 0, 0,
		1, 0x10, 0x00, 1, 0, 0,
	}, uint8(2))
	// Truncated garbage: decoder must round down to whole events.
	f.Add([]byte{0xff, 0x01, 0x02}, uint8(1))

	_, sys := system(f)
	streams := load(f, sharedDS, 6, 10, 10, 11)
	f.Cleanup(serve.AuditIndex())

	f.Fuzz(func(t *testing.T, data []byte, nodes uint8) {
		n := int(nodes%4) + 1
		plan := DecodePlan(data, n, len(streams), 1200)
		cfg := Config{
			Nodes: n, EpochMS: 400, Plan: plan,
			Node: serve.Config{
				Workers: 2, QueueDepth: 3, SLOMS: 80,
				Resilient: adascale.DefaultResilientConfig(),
				// Model-only: scheduling, queueing and recovery are exactly
				// the real run's; only detector content is absent — which
				// keeps each fuzz iteration sub-millisecond.
				ModelOnly: true,
			},
		}
		c, err := New(sys.Detector, sys.Regressor, cfg)
		if err != nil {
			t.Fatalf("valid fuzz config rejected: %v", err)
		}
		rep := c.Run(streams)
		checkConserved(t, rep)
		if rep.FinalNodes < 1 {
			t.Fatalf("cluster ended with %d nodes", rep.FinalNodes)
		}
		ref := rep.String() + rep.Metrics.Snapshot()
		c2, _ := New(sys.Detector, sys.Regressor, cfg)
		rep2 := c2.Run(streams)
		if got := rep2.String() + rep2.Metrics.Snapshot(); got != ref {
			t.Fatalf("cluster run not deterministic under plan %s", plan)
		}
	})
}
