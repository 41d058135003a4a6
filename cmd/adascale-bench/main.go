// Command adascale-bench regenerates the paper's tables and figures on the
// synthetic substrate.
//
// Usage:
//
//	adascale-bench [-dataset vid|ytbb] [-exp all|table1,table2,...] \
//	               [-train N] [-val N] [-seed N] [-workers N] \
//	               [-faults 0,0.05,0.1,0.2] [-deadline-ms 0] \
//	               [-trace trace.txt] [-pprof localhost:6060] \
//	               [-cpuprofile cpu.out] [-memprofile mem.out]
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
// -cpuprofile/-memprofile dump pprof profiles of the run. Measured speed is
// the repository benchmark's job (bash benchmark/run.sh), not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"adascale/internal/cli"
	"adascale/internal/experiments"
	"adascale/internal/obs"
)

// sweepFlags are the flag values the robustness sweep reads.
type sweepFlags struct {
	rates      []float64
	deadlineMS float64
}

// experiment is one named experiment of the -exp table.
type experiment struct {
	name string
	run  func(b *experiments.Bundle, f sweepFlags) (experiments.Printer, error)
}

// experimentTable enumerates every experiment in the order `-exp all` runs
// them.
var experimentTable = []experiment{
	{"qualitative", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) {
		return b.Qualitative(8), nil
	}},
	{"table1", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) { return b.Table1(), nil }},
	{"table2", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) { return b.Table2(), nil }},
	{"table3", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) { return b.Table3(), nil }},
	{"fig5", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) { return b.Fig5(), nil }},
	{"fig6", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) { return b.Fig6(), nil }},
	{"fig7", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) { return b.Fig7(), nil }},
	{"fig9", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) { return b.Fig9(), nil }},
	{"fig10", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) { return b.Fig10(), nil }},
	{"robustness", func(b *experiments.Bundle, f sweepFlags) (experiments.Printer, error) {
		return b.Robustness(f.rates, f.deadlineMS)
	}},
	{"serving", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) {
		return b.Serving(experiments.ServingConfig{})
	}},
	{"chaos", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) {
		return b.Chaos(experiments.ChaosConfig{})
	}},
	{"cluster", func(b *experiments.Bundle, _ sweepFlags) (experiments.Printer, error) {
		return b.Cluster(experiments.ClusterSweepConfig{})
	}},
}

// selectExperiments resolves the -exp value — comma-separated names, or
// "all" — to the experiments to run, in table order. Any name that is not
// in the table (the empty name included) is an error naming the valid ones.
func selectExperiments(spec string) ([]experiment, error) {
	valid := make([]string, len(experimentTable))
	known := make(map[string]bool, len(experimentTable))
	for i, e := range experimentTable {
		valid[i] = e.name
		known[e.name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !known[name] {
			return nil, fmt.Errorf("unknown experiment %q in -exp %q (valid: all, %s)", name, spec, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	if want["all"] {
		return experimentTable, nil
	}
	var sel []experiment
	for _, e := range experimentTable {
		if want[e.name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

func main() {
	var common cli.Common
	common.Register(60, 30)
	exp := flag.String("exp", "all", "comma-separated experiments or 'all'")
	faultRates := flag.String("faults", "0,0.05,0.1,0.2", "fault rates for the robustness sweep")
	deadlineMS := flag.Float64("deadline-ms", 0, "per-frame deadline for the resilient runner (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	common.Apply("adascale-bench")

	fail := func(err error) { cli.Fail("adascale-bench", err) }

	selected, err := selectExperiments(*exp)
	if err != nil {
		fail(err)
	}
	rates, err := cli.ParseFloats(*faultRates)
	if err != nil {
		fail(err)
	}

	// Profiles bracket the experiment work and are finalised explicitly
	// after the loop (not deferred: fail exits the process).
	stopCPU := func() error { return nil }
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fail(err)
		}
		stopCPU = stop
	}

	b, err := experiments.Prepare(experiments.Config{
		Dataset:       common.Dataset,
		TrainSnippets: common.Train,
		ValSnippets:   common.Val,
		Seed:          common.Seed,
	})
	if err != nil {
		fail(err)
	}
	b.Trace = common.Tracer()

	w := os.Stdout
	sweep := sweepFlags{rates: rates, deadlineMS: *deadlineMS}
	for _, e := range selected {
		start := time.Now()
		p, err := e.run(b, sweep)
		if err != nil {
			fail(err)
		}
		p.Print(w)
		fmt.Fprintf(w, "[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
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
}
