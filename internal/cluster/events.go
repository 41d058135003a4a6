package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Cluster event plans: the membership- and placement-level counterpart of
// faults.SystemPlan. Where a system plan perturbs one node's workers, a
// cluster plan perturbs the cluster itself — nodes joining and leaving,
// whole-node blackouts that force cross-node failover, and targeted stream
// migrations. A plan is a seeded, sorted schedule on the cluster's virtual
// clock; the simulator applies each event at the start of the epoch window
// containing its instant, so a cluster run is a pure function of (dataset
// seed, load seed, plan seed, config).

// EventKind enumerates the cluster events a plan can schedule.
type EventKind uint8

const (
	// EvJoin adds a fresh node to the ring (the simulator mints the next
	// monotonic node ID; the event's Node field is ignored).
	EvJoin EventKind = iota

	// EvLeave removes a node gracefully: its streams migrate to the
	// surviving nodes with their session checkpoints. Ignored when the
	// target is absent or is the last node up.
	EvLeave

	// EvBlackout takes a node down for DurationMS. Inside the event's own
	// epoch the simulator injects a faults.SysNodeBlackout into the node's
	// serving run (the node's supervisor sheds, retries and recovers); if
	// the outage extends past the epoch boundary the node leaves the ring
	// and its streams fail over — checkpoints restored on their new nodes —
	// until it recovers. Ignored for the last node up.
	EvBlackout

	// EvMigrate forcibly migrates one stream to the least-loaded other
	// node (a rebalance probe). Ignored when only one node is up.
	EvMigrate

	// NumEventKinds sizes per-kind counter arrays.
	NumEventKinds
)

// String names the kind for metrics and reports.
func (k EventKind) String() string {
	switch k {
	case EvJoin:
		return "join"
	case EvLeave:
		return "leave"
	case EvBlackout:
		return "blackout"
	case EvMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("cluster-event(%d)", uint8(k))
	}
}

// Event is one scheduled occurrence in a cluster plan.
type Event struct {
	// AtMS is the event's instant on the cluster's virtual clock. The
	// simulator applies it at the start of the epoch containing it.
	AtMS float64

	// Kind selects the event.
	Kind EventKind

	// Node is the target node ID for leave and blackout; ignored for join
	// (fresh IDs are minted) and migrate.
	Node int

	// Stream is the target stream ID for migrate.
	Stream int

	// DurationMS is the outage window for blackout events.
	DurationMS float64
}

// Plan is a deterministic schedule of cluster events, sorted by
// (AtMS, Kind, Node, Stream).
type Plan struct {
	Seed   int64
	Events []Event
}

// Count returns the number of events per kind.
func (p *Plan) Count() (counts [NumEventKinds]int) {
	for _, e := range p.Events {
		counts[e.Kind]++
	}
	return counts
}

// String summarises the plan for logs.
func (p *Plan) String() string {
	c := p.Count()
	return fmt.Sprintf("cluster plan (seed %d): %d joins, %d leaves, %d blackouts, %d migrations",
		p.Seed, c[EvJoin], c[EvLeave], c[EvBlackout], c[EvMigrate])
}

// sortEvents orders a plan deterministically.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.AtMS != b.AtMS {
			return a.AtMS < b.AtMS
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Stream < b.Stream
	})
}

// PlanConfig parameterises cluster plan generation.
type PlanConfig struct {
	// Seed drives every draw.
	Seed int64

	// HorizonMS is the window events are placed in.
	HorizonMS float64

	// Rate is the total event rate (events per virtual second) split
	// across kinds by the weights below.
	Rate float64

	// Nodes is the node-ID space leave and blackout draws target (the
	// cluster's initial node count).
	Nodes int

	// Streams is the stream-ID space migrate draws target.
	Streams int
}

// planBlackoutMS is the mean blackout duration: long enough to span an
// epoch boundary at the default EpochMS, so blackouts exercise cross-node
// failover, not just intra-node shedding.
const planBlackoutMS = 900

// Validate reports configuration errors.
func (c *PlanConfig) Validate() error {
	// NaN fails every comparison, and GenPlan's loop never ends at an
	// infinite rate (every gap is 0) or horizon: each must be finite.
	for _, f := range []struct {
		name string
		v    float64
	}{{"HorizonMS", c.HorizonMS}, {"Rate", c.Rate}} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("cluster: invalid plan config: %s: %v is not a finite value >= 0", f.name, f.v)
		}
	}
	switch {
	case c.HorizonMS == 0:
		return fmt.Errorf("cluster: plan needs a positive horizon, got %v", c.HorizonMS)
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: plan needs the node-ID space, got %d", c.Nodes)
	case c.Streams <= 0:
		return fmt.Errorf("cluster: plan needs the stream-ID space, got %d", c.Streams)
	}
	return nil
}

// GenPlan builds a seeded cluster event plan: Poisson-ish event instants
// (exponential inter-arrivals at the configured rate) with kinds drawn
// join:leave:blackout:migrate at weights 2:2:3:3.
func GenPlan(cfg PlanConfig) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Seed: cfg.Seed}
	if cfg.Rate == 0 {
		return p, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed*0x9E37 + 0xC1))
	for t := rng.ExpFloat64() * 1000 / cfg.Rate; t < cfg.HorizonMS; t += rng.ExpFloat64() * 1000 / cfg.Rate {
		e := Event{AtMS: t}
		switch w := rng.Intn(10); {
		case w < 2:
			e.Kind = EvJoin
		case w < 4:
			e.Kind = EvLeave
			e.Node = rng.Intn(cfg.Nodes)
		case w < 7:
			e.Kind = EvBlackout
			e.Node = rng.Intn(cfg.Nodes)
			e.DurationMS = planBlackoutMS * (0.5 + float64(rng.Float64()))
		default:
			e.Kind = EvMigrate
			e.Stream = rng.Intn(cfg.Streams)
		}
		p.Events = append(p.Events, e)
	}
	sortEvents(p.Events)
	return p, nil
}

// DecodePlan is the total decoder behind FuzzClusterEvents: every byte
// string decodes to a structurally valid plan over the given stream/node
// ID spaces and horizon — kinds, targets and instants are reduced
// modularly, never rejected — so the fuzzer explores event schedules, not
// parser error paths. Six bytes per event: kind, two instant bytes, node,
// stream, duration.
func DecodePlan(data []byte, nodes, streams int, horizonMS float64) *Plan {
	if nodes <= 0 {
		nodes = 1
	}
	if streams <= 0 {
		streams = 1
	}
	p := &Plan{}
	for i := 0; i+6 <= len(data); i += 6 {
		at := float64(uint16(data[i+1])<<8|uint16(data[i+2])) / 65536 * horizonMS
		e := Event{
			AtMS: at,
			Kind: EventKind(data[i] % uint8(NumEventKinds)),
		}
		switch e.Kind {
		case EvLeave, EvBlackout:
			e.Node = int(data[i+3]) % nodes
		case EvMigrate:
			e.Stream = int(data[i+4]) % streams
		}
		if e.Kind == EvBlackout {
			// 100..1600 ms: short enough to recover inside the run, long
			// enough that some outages span an epoch boundary.
			e.DurationMS = 100 + float64(float64(data[i+5])/255*1500)
		}
		p.Events = append(p.Events, e)
	}
	sortEvents(p.Events)
	return p
}
