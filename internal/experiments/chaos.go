package experiments

import (
	"fmt"
	"io"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/serve"
)

// ChaosConfig sizes the system fault-tolerance sweep.
type ChaosConfig struct {
	// Rates are the system fault intensities to sweep (the argument to
	// faults.ScaledSystemConfig); defaults to {0, 1, 2, 4}.
	Rates []float64

	// Streams / FPS / FramesPerStream shape the offered load; default to
	// 4 streams at 12 fps, 24 frames each.
	Streams         int
	FPS             float64
	FramesPerStream int

	// Workers is the explicit serving capacity the fault plans target;
	// defaults to 2 so kills and stalls bite hard.
	Workers int

	// QueueDepth bounds each stream's queue; defaults to 4.
	QueueDepth int

	// SLOMS is the per-frame latency SLO (virtual ms); 0 means no SLO.
	// DefaultChaosConfig sets 80.
	SLOMS float64

	// BreakerThreshold is the supervised mode's consecutive-failure trip
	// point; defaults to 1 (trip on first failure). The sweep's fault
	// windows are short and dense relative to a frame's service time, so
	// a stream rarely fails twice in a row — a production threshold of 2
	// would leave the breaker path untested at these horizons.
	BreakerThreshold int

	// PlanSeed seeds the fault plans; zero derives from the bundle seed.
	PlanSeed int64
}

// DefaultChaosConfig returns the standard sweep sizing.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Rates:            []float64{0, 1, 2, 4},
		Streams:          4,
		FPS:              12,
		FramesPerStream:  24,
		Workers:          2,
		QueueDepth:       4,
		SLOMS:            80,
		BreakerThreshold: 1,
	}
}

func (c ChaosConfig) withDefaults(bundleSeed int64) ChaosConfig {
	if len(c.Rates) == 0 {
		c.Rates = []float64{0, 1, 2, 4}
	}
	if c.Streams <= 0 {
		c.Streams = 4
	}
	if c.FPS <= 0 {
		c.FPS = 12
	}
	if c.FramesPerStream <= 0 {
		c.FramesPerStream = 24
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	if c.SLOMS < 0 {
		c.SLOMS = 0
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 1
	}
	if c.PlanSeed == 0 {
		c.PlanSeed = bundleSeed + 577
	}
	return c
}

// ChaosCell scores one (fault rate, supervision mode) serving run.
type ChaosCell struct {
	// RecoveryMS is the mean virtual time from a dispatch's first failure
	// to the frame finally settling (served or abandoned to propagation).
	RecoveryMS float64

	// P99 is the end-to-end latency p99 (virtual ms) over served frames.
	P99 float64

	// DropRate is dropped/offered; SLOMissRate is misses/served — the SLO
	// damage the fault plan inflicts.
	DropRate, SLOMissRate float64

	// Coverage is the effective detection coverage: the fraction of
	// offered frames that were served carrying at least one detection
	// (real or propagated). Dropped, abandoned-to-empty and lost frames
	// all count against it.
	Coverage float64

	// Retries, Sheds and Migrations count supervised recovery actions;
	// Lost counts frames neither served nor dropped (must be zero).
	Retries, Sheds, Migrations, Lost int
}

// ChaosRow is one fault rate of the sweep: the supervised serving layer
// (retry + breaker + watchdog + migration) against naive failover (same
// retry/migration machinery with the circuit breakers disabled).
type ChaosRow struct {
	Rate              float64
	Plan              *faults.SystemPlan
	Supervised, Naive ChaosCell
}

// ChaosResult is the fault-rate sweep of the system fault-tolerance
// experiment.
type ChaosResult struct {
	Dataset string
	Cfg     ChaosConfig
	Rows    []ChaosRow
}

// Chaos sweeps system fault intensity × supervision mode: each rate
// generates a seeded fault plan (worker kills/stalls, node blackouts,
// queue-saturation windows) and serves the identical open-loop load
// through internal/serve twice — once with the full supervision layer,
// once with circuit breakers disabled (naive failover) — scoring recovery
// time, SLO damage and effective detection coverage. The sweep is a pure
// function of the bundle seed and the sweep config.
func (b *Bundle) Chaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults(b.Cfg.Seed)
	sys := b.DefaultSystem()
	res := &ChaosResult{Dataset: b.Cfg.Dataset, Cfg: cfg}

	load, err := serve.GenLoad(b.DS.Val, serve.LoadConfig{
		Streams:         cfg.Streams,
		FPS:             cfg.FPS,
		FramesPerStream: cfg.FramesPerStream,
		Seed:            b.Cfg.Seed + 433,
	})
	if err != nil {
		return nil, err
	}

	for _, rate := range cfg.Rates {
		plan, err := faults.GenSystemPlan(faults.ScaledSystemConfig(rate, cfg.PlanSeed, serve.LastArrivalMS(load)+500, cfg.Workers))
		if err != nil {
			return nil, err
		}
		row := ChaosRow{Rate: rate, Plan: plan}
		for _, naive := range []bool{false, true} {
			scfg := serve.Config{
				Workers:    cfg.Workers,
				QueueDepth: cfg.QueueDepth,
				SLOMS:      cfg.SLOMS,
				Resilient:  adascale.DefaultResilientConfig(),
				Chaos:      plan,
			}
			if naive {
				scfg.Supervisor.BreakerThreshold = -1
			} else {
				scfg.Supervisor.BreakerThreshold = cfg.BreakerThreshold
				// Cooldown sized past the plan's blackout windows (400 ms
				// of dead workers): an opened breaker then sheds the
				// backlog through the recovery tail instead of expiring
				// mid-outage before it could serve a single cheap frame.
				scfg.Supervisor.BreakerCooldownMS = 600
			}
			srv, err := serve.New(sys.Detector, sys.Regressor, scfg)
			if err != nil {
				return nil, err
			}
			cell := scoreChaos(srv.Run(load))
			if naive {
				row.Naive = cell
			} else {
				row.Supervised = cell
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// scoreChaos folds one chaos serving report into a sweep cell.
func scoreChaos(rep *serve.Report) ChaosCell {
	offered, covered, misses, served := 0, 0, 0, 0
	for _, sr := range rep.Streams {
		offered += sr.Offered
		misses += sr.SLOMisses
		served += len(sr.Outputs)
		for _, o := range sr.Outputs {
			if len(o.Detections) > 0 {
				covered++
			}
		}
	}
	cell := ChaosCell{
		RecoveryMS: rep.Metrics.Mean("recovery/ms"),
		P99:        rep.Metrics.Quantile("latency/ms", 0.99),
		Retries:    int(rep.Metrics.Counter("retry/dispatched")),
		Sheds:      int(rep.Metrics.Counter("breaker/shed")),
		Migrations: int(rep.Metrics.Counter("migrations")),
		Lost:       rep.Lost(),
	}
	if offered > 0 {
		cell.DropRate = float64(rep.TotalDropped()) / float64(offered)
		cell.Coverage = float64(covered) / float64(offered)
	}
	if served > 0 {
		cell.SLOMissRate = float64(misses) / float64(served)
	}
	return cell
}

// Print writes the fault-tolerance sweep in paper-table style: one
// supervised and one naive row per fault rate, then the coverage retained
// by the breaker mode over naive failover at the highest rate.
func (r *ChaosResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Chaos (%s): %d streams x %d frames at %.0f fps, %d workers, queue %d, SLO %.0f ms\n",
		r.Dataset, r.Cfg.Streams, r.Cfg.FramesPerStream, r.Cfg.FPS,
		r.Cfg.Workers, r.Cfg.QueueDepth, r.Cfg.SLOMS)
	header := fmt.Sprintf("%-5s %-10s %7s %12s %9s %7s %9s %7s %6s %5s %4s",
		"rate", "mode", "faults", "recovery(ms)", "p99(ms)", "drop%", "SLOmiss%", "cover%", "retry", "shed", "lost")
	fmt.Fprintln(w, header)
	printRuler(w, len(header))
	for _, row := range r.Rows {
		for _, m := range []struct {
			name string
			cell ChaosCell
		}{{"supervised", row.Supervised}, {"naive", row.Naive}} {
			fmt.Fprintf(w, "%-5.2g %-10s %7d %12.1f %9.1f %7.1f %9.1f %7.1f %6d %5d %4d\n",
				row.Rate, m.name, len(row.Plan.Events),
				m.cell.RecoveryMS, m.cell.P99,
				m.cell.DropRate*100, m.cell.SLOMissRate*100, m.cell.Coverage*100,
				m.cell.Retries, m.cell.Sheds, m.cell.Lost)
		}
	}
	if n := len(r.Rows); n > 0 {
		last := r.Rows[n-1]
		fmt.Fprintf(w, "At rate %.2g the breaker mode retains %+.1f%% effective coverage over naive failover.\n\n",
			last.Rate, (last.Supervised.Coverage-last.Naive.Coverage)*100)
	}
}
