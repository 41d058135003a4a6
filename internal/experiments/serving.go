package experiments

import (
	"fmt"
	"io"

	"adascale/internal/adascale"
	"adascale/internal/eval"
	"adascale/internal/serve"
)

// ServingConfig sizes the multi-stream serving sweep.
type ServingConfig struct {
	// StreamCounts are the concurrency levels to sweep; defaults to
	// {2, 4, 8, 16} — from comfortably inside to well past the capacity of
	// the default worker count.
	StreamCounts []int

	// SLOs are the per-frame latency SLOs (virtual ms) to sweep at each
	// concurrency; 0 disables enforcement. Defaults to {0, 150, 40}.
	SLOs []float64

	// Workers is the serving capacity; defaults to 4 so the sweep's load
	// shape is machine-independent.
	Workers int

	// FPS is the mean per-stream arrival rate; defaults to 8 (a stream is
	// serial in the scheduler, so its own capacity is ~1/service-time).
	FPS float64

	// FramesPerStream sizes each stream; defaults to 40.
	FramesPerStream int

	// QueueDepth bounds each stream's queue; defaults to 8.
	QueueDepth int
}

func (c ServingConfig) withDefaults() ServingConfig {
	if len(c.StreamCounts) == 0 {
		c.StreamCounts = []int{2, 4, 8, 16}
	}
	if len(c.SLOs) == 0 {
		c.SLOs = []float64{0, 150, 40}
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.FPS <= 0 {
		c.FPS = 8
	}
	if c.FramesPerStream <= 0 {
		c.FramesPerStream = 40
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	return c
}

// ServingRow is one (stream count, SLO) point of the serving sweep.
type ServingRow struct {
	Streams int
	SLOMS   float64

	// P50 and P99 are end-to-end frame latency quantiles (virtual ms) over
	// every served frame.
	P50, P99 float64

	// DropRate is dropped/offered; SLOMissRate is misses/served.
	DropRate, SLOMissRate float64

	// MAP is the serving-quality proxy: served detections scored against
	// ground truth with every dropped frame counted as an empty detection
	// set — load shedding pays in recall, visibly.
	MAP float64

	// MeanScale is the mean served test scale (SLO pressure pushes it down).
	MeanScale float64
}

// ServingResult is the streams × SLO grid of the serving experiment.
type ServingResult struct {
	Dataset string
	Cfg     ServingConfig
	Rows    []ServingRow
}

// Serving sweeps concurrency × SLO through the multi-stream server on the
// validation split: each point generates the same seeded open-loop arrival
// schedule, serves it through internal/serve at the configured capacity,
// and scores achieved latency, drop rate and the mAP proxy. The sweep is a
// pure function of the bundle seed and the sweep config.
func (b *Bundle) Serving(cfg ServingConfig) (*ServingResult, error) {
	cfg = cfg.withDefaults()
	sys := b.DefaultSystem()
	res := &ServingResult{Dataset: b.Cfg.Dataset, Cfg: cfg}

	for _, streams := range cfg.StreamCounts {
		load, err := serve.GenLoad(b.DS.Val, serve.LoadConfig{
			Streams:         streams,
			FPS:             cfg.FPS,
			FramesPerStream: cfg.FramesPerStream,
			Seed:            b.Cfg.Seed + 433,
		})
		if err != nil {
			return nil, err
		}
		for _, slo := range cfg.SLOs {
			srv, err := serve.New(sys.Detector, sys.Regressor, serve.Config{
				Workers:    cfg.Workers,
				QueueDepth: cfg.QueueDepth,
				SLOMS:      slo,
				Resilient:  adascale.DefaultResilientConfig(),
				// The bundle tracer (adascale-bench -trace) also records
				// the serving sweep's spans.
				Tracer: b.Trace,
			})
			if err != nil {
				return nil, err
			}
			rep := srv.Run(load)
			res.Rows = append(res.Rows, scoreServing(b, rep, streams, slo))
		}
	}
	return res, nil
}

// scoreServing folds one serving report into a sweep row.
func scoreServing(b *Bundle, rep *serve.Report, streams int, slo float64) ServingRow {
	outputs := rep.Served()
	frames := ToEval(outputs)
	misses := 0
	for _, sr := range rep.Streams {
		misses += sr.SLOMisses
		for _, f := range sr.Dropped {
			frames = append(frames, eval.FrameDetections{GroundTruth: f.GroundTruth()})
		}
	}
	offered := len(outputs) + rep.TotalDropped()

	row := ServingRow{
		Streams:   streams,
		SLOMS:     slo,
		P50:       rep.Metrics.Quantile("latency/ms", 0.50),
		P99:       rep.Metrics.Quantile("latency/ms", 0.99),
		MAP:       eval.Evaluate(frames, len(b.DS.Config.Classes)).MAP,
		MeanScale: adascale.MeanScale(outputs),
	}
	if offered > 0 {
		row.DropRate = float64(rep.TotalDropped()) / float64(offered)
	}
	if len(outputs) > 0 {
		row.SLOMissRate = float64(misses) / float64(len(outputs))
	}
	return row
}

// Print writes the serving grid in paper-table style.
func (r *ServingResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Serving (%s): %d workers, %.0f fps/stream, queue %d\n",
		r.Dataset, r.Cfg.Workers, r.Cfg.FPS, r.Cfg.QueueDepth)
	header := fmt.Sprintf("%-8s %8s %9s %9s %7s %9s %8s %10s",
		"streams", "SLO(ms)", "p50(ms)", "p99(ms)", "drop%", "SLOmiss%", "mAP", "mean scale")
	fmt.Fprintln(w, header)
	printRuler(w, len(header))
	for _, row := range r.Rows {
		sloLabel := "off"
		if row.SLOMS > 0 {
			sloLabel = fmt.Sprintf("%.0f", row.SLOMS)
		}
		fmt.Fprintf(w, "%-8d %8s %9.1f %9.1f %7.1f %9.1f %8.1f %10.0f\n",
			row.Streams, sloLabel, row.P50, row.P99,
			row.DropRate*100, row.SLOMissRate*100, row.MAP*100, row.MeanScale)
	}
	fmt.Fprintln(w)
}
