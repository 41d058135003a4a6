// Command adascale-bench regenerates the paper's tables and figures on the
// synthetic substrate, and doubles as the repo's benchmark regression
// tool.
//
// Usage:
//
//	adascale-bench [-dataset vid|ytbb] [-exp all|table1,table2,...] \
//	               [-train N] [-val N] [-seed N] [-workers N] \
//	               [-faults 0,0.05,0.1,0.2] [-deadline-ms 0] \
//	               [-json report.json] [-baseline BENCH_4.json] \
//	               [-bench-time 0] [-max-time-regress 25] [-accuracy-only] \
//	               [-trace trace.txt] [-trace-wall] [-pprof localhost:6060] \
//	               [-cpuprofile cpu.out] [-memprofile mem.out]
//	adascale-bench -diff baseline.json -diff-to candidate.json [-accuracy-only]
//
// Experiments: table1, table2, table3, fig5, fig6, fig7, fig9, fig10,
// qualitative, robustness, serving, chaos, cluster. The robustness sweep injects the
// -faults rates into the validation split and compares fixed-scale, naive
// AdaScale and the resilient runner (optionally deadline-constrained via
// -deadline-ms). The serving sweep loads the multi-stream server at
// increasing stream counts against latency SLOs. The chaos sweep injects
// seeded system fault plans (worker kills/stalls, node blackouts, queue
// saturation) at increasing intensity and compares the supervised serving
// layer against naive failover on recovery time, SLO damage and effective
// coverage. The cluster sweep shards 1k-100k streams across simulated node
// fleets under churn (joins, leaves, blackouts, migrations) and reports the
// capacity-planning curve: SLO damage and recovery time per fleet size,
// with zero lost frames. The master -seed pins the dataset and every
// derived fault/load stream (see internal/cli).
//
// -json measures every selected experiment (warmup + timed iterations, see
// internal/regress.Measure) and writes a machine-readable report: ns/op,
// allocs/op and the experiment's accuracy metrics (mAP, mean scale, ...),
// stamped with the machine context. -baseline compares the fresh report
// against a committed one and exits non-zero on a time regression beyond
// -max-time-regress percent or any regression of a guarded (map*) accuracy
// metric. -diff/-diff-to compare two existing report files without running
// anything — the mode scripts/benchdiff.sh wraps.
//
// In report mode every experiment additionally runs under the pipeline
// tracer and its ns/op is apportioned across stages by the deterministic
// virtual-time shares (schema v2, Entry.Stages), so a time regression can
// be localised to a stage; allocs/op is apportioned the same way (schema
// v3, Entry.StageAllocs) and gated at -max-alloc-regress percent (default
// 10). Comparisons refuse reports measured on
// different machines unless -accuracy-only disables the (meaningless)
// cross-machine time gate and compares only the deterministic accuracy
// metrics — the mode CI uses against the committed baseline.
// -cpuprofile/-memprofile dump pprof profiles of the benchmark run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"adascale/internal/cli"
	"adascale/internal/experiments"
	"adascale/internal/obs"
	"adascale/internal/regress"
)

// experimentRun is one named experiment: it regenerates the result and
// reports the accuracy metrics the regression gate tracks for it.
type experimentRun struct {
	name string
	run  func() (experiments.Printer, map[string]float64, error)
}

// experimentRuns enumerates every experiment in canonical order with its
// metric extraction. Metric keys with the "map" prefix are guarded by
// regress.Compare (any decrease is a regression); the rest are trajectory.
func experimentRuns(b *experiments.Bundle, rates []float64, deadlineMS float64) []experimentRun {
	ok := func(p experiments.Printer, m map[string]float64) (experiments.Printer, map[string]float64, error) {
		return p, m, nil
	}
	return []experimentRun{
		{"qualitative", func() (experiments.Printer, map[string]float64, error) {
			q := b.Qualitative(8)
			return ok(q, map[string]float64{"downscale_fraction": q.DownscaleFraction})
		}},
		{"table1", func() (experiments.Printer, map[string]float64, error) {
			t1 := b.Table1()
			ada := t1.Rows[len(t1.Rows)-1]
			return ok(t1, map[string]float64{
				"map/adascale":        ada.MAP,
				"mean_scale/adascale": ada.MeanScale,
				"runtime_ms/adascale": ada.RuntimeMS,
				"runtime_ms/ss_fixed": t1.Rows[0].RuntimeMS,
			})
		}},
		{"table2", func() (experiments.Printer, map[string]float64, error) {
			t2 := b.Table2()
			full := t2.Entries[0]
			return ok(t2, map[string]float64{
				"map/ada_full_strain":        full.Ada.MAP,
				"runtime_ms/ada_full_strain": full.Ada.RuntimeMS,
			})
		}},
		{"table3", func() (experiments.Printer, map[string]float64, error) {
			t3 := b.Table3()
			k13 := t3.Entries[1] // kernels {1,3}, the paper's default
			return ok(t3, map[string]float64{
				"map/kernels13":        k13.Ada.MAP,
				"mean_scale/kernels13": k13.Ada.MeanScale,
			})
		}},
		{"fig5", func() (experiments.Printer, map[string]float64, error) {
			f5 := b.Fig5()
			mean, n := 0.0, 0
			for ci := range f5.Categories {
				mean += f5.AP[ci][len(f5.Methods)-1] // MS/AdaScale
				n++
			}
			if n > 0 {
				mean /= float64(n)
			}
			return ok(f5, map[string]float64{"map/fig5_adascale_mean": mean})
		}},
		{"fig6", func() (experiments.Printer, map[string]float64, error) {
			f6 := b.Fig6()
			last := len(f6.Methods) - 1
			return ok(f6, map[string]float64{
				"tp_ratio/adascale": f6.TotalTP[last],
				"fp_ratio/adascale": f6.TotalFP[last],
			})
		}},
		{"fig7", func() (experiments.Printer, map[string]float64, error) {
			f7 := b.Fig7()
			m := map[string]float64{}
			for _, p := range f7.Points {
				if p.Name == "R-FCN+AdaScale" {
					m["map/rfcn_adascale"] = p.MAP
					m["fps/rfcn_adascale"] = p.FPS
				}
			}
			return ok(f7, m)
		}},
		{"fig9", func() (experiments.Printer, map[string]float64, error) {
			f9 := b.Fig9()
			m := map[string]float64{}
			for _, c := range f9.Clips {
				lo, hi := c.Scales[0], c.Scales[0]
				for _, s := range c.Scales {
					if s < lo {
						lo = s
					}
					if s > hi {
						hi = s
					}
				}
				key := strings.ReplaceAll(c.Name, " ", "_")
				m["scale_spread/"+key] = float64(hi - lo)
			}
			return ok(f9, m)
		}},
		{"fig10", func() (experiments.Printer, map[string]float64, error) {
			f10 := b.Fig10()
			return ok(f10, map[string]float64{
				"mean_scale/full_strain": f10.Entries[0].MeanScale,
			})
		}},
		{"robustness", func() (experiments.Printer, map[string]float64, error) {
			res, err := b.Robustness(rates, deadlineMS)
			if err != nil {
				return nil, nil, err
			}
			worst := res.Rows[len(res.Rows)-1]
			return ok(res, map[string]float64{
				"map/resilient_worst":        worst.Resilient.MAP,
				"map/naive_worst":            worst.Naive.MAP,
				"runtime_ms/resilient_worst": worst.Resilient.RuntimeMS,
			})
		}},
		{"serving", func() (experiments.Printer, map[string]float64, error) {
			res, err := b.Serving(experiments.DefaultServingConfig())
			if err != nil {
				return nil, nil, err
			}
			last := res.Rows[len(res.Rows)-1]
			return ok(res, map[string]float64{
				"map/serving_last":       last.MAP,
				"p99_ms/serving_last":    last.P99,
				"drop_rate/serving_last": last.DropRate,
			})
		}},
		{"chaos", func() (experiments.Printer, map[string]float64, error) {
			res, err := b.Chaos(experiments.DefaultChaosConfig())
			if err != nil {
				return nil, nil, err
			}
			worst := res.Rows[len(res.Rows)-1]
			return ok(res, map[string]float64{
				"coverage/supervised_worst":    worst.Supervised.Coverage,
				"coverage/naive_worst":         worst.Naive.Coverage,
				"recovery_ms/supervised_worst": worst.Supervised.RecoveryMS,
				"lost/supervised_worst":        float64(worst.Supervised.Lost),
			})
		}},
		{"cluster", func() (experiments.Printer, map[string]float64, error) {
			res, err := b.Cluster(experiments.DefaultClusterSweepConfig())
			if err != nil {
				return nil, nil, err
			}
			lost := 0
			for _, row := range res.Rows {
				for _, cell := range row.Cells {
					lost += cell.Lost
				}
			}
			last := res.Rows[len(res.Rows)-1]
			first, best := last.Cells[0], last.Cells[len(last.Cells)-1]
			return ok(res, map[string]float64{
				"slo_miss/cluster_worst": first.SLOMissRate,
				"slo_miss/cluster_best":  best.SLOMissRate,
				"p95_ms/cluster_best":    best.P95,
				"lost/cluster_sweep":     float64(lost),
			})
		}},
	}
}

func main() {
	var common cli.Common
	common.Register(60, 30)
	exp := flag.String("exp", "all", "comma-separated experiments or 'all'")
	faultRates := flag.String("faults", "0,0.05,0.1,0.2", "fault rates for the robustness sweep")
	deadlineMS := flag.Float64("deadline-ms", 0, "per-frame deadline for the resilient runner (0 = off)")
	jsonPath := flag.String("json", "", "write a machine-readable benchmark report (JSON) to this path")
	baseline := flag.String("baseline", "", "compare the fresh report against this baseline report; exit non-zero on regression")
	diffBase := flag.String("diff", "", "compare-only: baseline report file (use with -diff-to; runs no benchmarks)")
	diffTo := flag.String("diff-to", "", "compare-only: candidate report file")
	benchTime := flag.Duration("bench-time", 0, "minimum timed duration per benchmark in -json/-baseline mode (0 = one iteration)")
	maxTimePct := flag.Float64("max-time-regress", 25, "allowed ns/op increase in percent before a comparison fails")
	maxAllocPct := flag.Float64("max-alloc-regress", 10, "allowed allocs/op increase in percent before a comparison fails")
	accuracyOnly := flag.Bool("accuracy-only", false, "gate only on accuracy metrics; skip the ns/op time gates (for cross-machine comparisons)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	common.Apply("adascale-bench")

	fail := func(err error) { cli.Fail("adascale-bench", err) }
	opts := regress.CompareOptions{MaxTimeRegressPct: *maxTimePct, MaxAllocRegressPct: *maxAllocPct, IgnoreTime: *accuracyOnly}

	// Compare-only mode: no dataset, no benchmarks — just the gate.
	if *diffBase != "" || *diffTo != "" {
		if *diffBase == "" || *diffTo == "" {
			fail(fmt.Errorf("-diff and -diff-to must be used together"))
		}
		os.Exit(runDiff(*diffBase, *diffTo, opts))
	}

	// Profiles bracket the benchmark work and are finalised explicitly
	// after the experiment loop (not deferred: the gate paths os.Exit).
	stopCPU := func() error { return nil }
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fail(err)
		}
		stopCPU = stop
	}

	rates, err := cli.ParseFloats(*faultRates)
	if err != nil {
		fail(err)
	}

	cfg := experiments.Config{
		Dataset:       common.Dataset,
		TrainSnippets: common.Train,
		ValSnippets:   common.Val,
		Seed:          common.Seed,
	}
	b, err := experiments.Prepare(cfg)
	if err != nil {
		fail(err)
	}
	// The bundle traces through the user's -trace tracer when given; in
	// report mode without -trace, a private virtual-time tracer still runs
	// so every report carries the per-stage ns/op apportionment. In report
	// mode the tracer is reset per experiment for attribution, so a -trace
	// file written alongside -json holds the last experiment's spans only.
	b.Trace = common.Tracer()
	if b.Trace == nil && (*jsonPath != "" || *baseline != "") {
		b.Trace = obs.NewTracer()
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	w := os.Stdout

	var report *regress.Report
	if *jsonPath != "" || *baseline != "" {
		report = regress.NewReport(map[string]string{
			"dataset": b.Cfg.Dataset,
			"train":   strconv.Itoa(b.Cfg.TrainSnippets),
			"val":     strconv.Itoa(b.Cfg.ValSnippets),
			"seed":    strconv.FormatInt(b.Cfg.Seed, 10),
			"exp":     *exp,
		})
	}

	for _, er := range experimentRuns(b, rates, *deadlineMS) {
		if !all && !want[er.name] {
			continue
		}
		start := time.Now()
		var p experiments.Printer
		var metrics map[string]float64
		runOnce := func() {
			var err error
			if p, metrics, err = er.run(); err != nil {
				fail(err)
			}
		}
		if report != nil {
			b.Trace.Reset()
			sample := regress.Measure(runOnce, *benchTime)
			report.Add(er.name, sample, metrics)
			report.SetStages(er.name,
				stagePerOp(sample.NsPerOp, b.Trace),
				stagePerOp(sample.AllocsPerOp, b.Trace))
		} else {
			runOnce()
		}
		p.Print(w)
		fmt.Fprintf(w, "[%s completed in %v]\n\n", er.name, time.Since(start).Round(time.Millisecond))
	}

	if err := stopCPU(); err != nil {
		fail(err)
	}
	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			fail(err)
		}
	}
	common.WriteTrace("adascale-bench")

	if report == nil {
		return
	}
	if len(report.Entries) == 0 {
		fail(fmt.Errorf("no experiments selected by -exp %q; nothing to report", *exp))
	}
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "benchmark report: %d entries written to %s\n", len(report.Entries), *jsonPath)
	}
	if *baseline != "" {
		base, err := regress.LoadReport(*baseline)
		if err != nil {
			fail(err)
		}
		if !opts.IgnoreTime && !base.Machine.Equal(report.Machine) {
			fail(fmt.Errorf("baseline %s measured on a different machine:\n  baseline:  %s\n  this run:  %s\nwall-clock comparison across machines is meaningless — pass -accuracy-only to gate on accuracy metrics only, or regenerate the baseline on this machine (see README)", *baseline, base.Machine, report.Machine))
		}
		regs := regress.Compare(base, report, opts)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "regression: %s\n", r)
		}
		if len(regs) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(w, "benchdiff: OK — no regressions against %s (%d entries)\n", *baseline, len(base.Entries))
	}
}

// stagePerOp apportions one benchmark's per-op total (ns/op or allocs/op)
// across pipeline stages by the tracer's virtual-time shares. The
// breakdown accumulates over the warmup and every timed iteration, but the
// shares are ratio-invariant under the deterministic pipeline, so
// stage_value = value_per_op × stage_ms / total_ms holds regardless of the
// iteration count.
func stagePerOp(perOp int64, tr *obs.Tracer) map[string]int64 {
	bd := tr.Breakdown()
	total := 0.0
	for _, ms := range bd {
		total += ms
	}
	if total <= 0 {
		return nil
	}
	out := make(map[string]int64, len(bd))
	for st, ms := range bd {
		if ms <= 0 {
			continue
		}
		out[obs.Stage(st).String()] = int64(float64(perOp) * ms / total)
	}
	return out
}

// runDiff compares two report files and returns the process exit code.
func runDiff(basePath, candPath string, opts regress.CompareOptions) int {
	base, err := regress.LoadReport(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adascale-bench: %v\n", err)
		return 2
	}
	cand, err := regress.LoadReport(candPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adascale-bench: %v\n", err)
		return 2
	}
	if !opts.IgnoreTime && !base.Machine.Equal(cand.Machine) {
		fmt.Fprintf(os.Stderr, "adascale-bench: reports measured on different machines:\n  baseline:  %s\n  candidate: %s\nwall-clock comparison across machines is meaningless — pass -accuracy-only to gate on accuracy metrics only, or regenerate the baseline on this machine (see README)\n", base.Machine, cand.Machine)
		return 2
	}
	regs := regress.Compare(base, cand, opts)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "regression: %s\n", r)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) of %s against %s\n", len(regs), candPath, basePath)
		return 1
	}
	fmt.Printf("benchdiff: OK — %d entries, no regressions (%s vs %s)\n", len(base.Entries), candPath, basePath)
	return 0
}
