// Command adascale-eval evaluates the paper's testing protocols (SS/SS,
// MS/SS, MS/MS, MS/Random, MS/AdaScale) on a validation split, optionally
// loading regressor weights produced by adascale-train.
//
// Usage:
//
//	adascale-eval [-dataset vid|ytbb] [-train N] [-val N] [-seed N] \
//	              [-weights weights.bin] [-workers N] \
//	              [-faults 0.1] [-deadline-ms 0] \
//	              [-trace trace.txt] [-pprof localhost:6060]
//
// With -faults > 0 the validation split is additionally corrupted with the
// deterministic fault injector at that per-frame rate and the protocols
// are compared against the resilient runner on the corrupted stream
// (-deadline-ms enables its per-frame deadline). The master -seed pins the
// dataset and every derived fault stream (see internal/cli).
package main

import (
	"flag"
	"fmt"
	"os"

	"adascale/internal/cli"
	"adascale/internal/experiments"
)

func main() {
	var common cli.Common
	common.Register(60, 30)
	weights := flag.String("weights", "", "optional regressor weights from adascale-train")
	faultRate := flag.Float64("faults", 0, "per-frame fault rate for the robustness comparison (0 = off)")
	deadlineMS := flag.Float64("deadline-ms", 0, "per-frame deadline for the resilient runner (0 = off)")
	flag.Parse()
	common.Apply("adascale-eval")

	b, err := experiments.Prepare(experiments.Config{
		Dataset: common.Dataset, TrainSnippets: common.Train, ValSnippets: common.Val, Seed: common.Seed,
	})
	if err != nil {
		cli.Fail("adascale-eval", err)
	}
	b.Trace = common.Tracer()
	if *weights != "" {
		f, err := os.Open(*weights)
		if err != nil {
			cli.Fail("adascale-eval", err)
		}
		// Build the default system, then overwrite its regressor weights.
		sys := b.DefaultSystem()
		if err := sys.Regressor.Load(f); err != nil {
			cli.Fail("adascale-eval", fmt.Errorf("loading weights: %w", err))
		}
		f.Close()
		fmt.Printf("loaded regressor weights from %s\n", *weights)
	}

	rows := b.StandardMethods()
	header := fmt.Sprintf("%-12s %8s %12s %12s", "method", "mAP", "runtime(ms)", "mean scale")
	fmt.Println(header)
	for range header {
		fmt.Print("-")
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-12s %8.1f %12.1f %12.0f\n", r.Name, r.MAP*100, r.RuntimeMS, r.MeanScale)
	}

	if *faultRate > 0 || *deadlineMS > 0 {
		fmt.Println()
		res, err := b.Robustness([]float64{0, *faultRate}, *deadlineMS)
		if err != nil {
			cli.Fail("adascale-eval", err)
		}
		res.Print(os.Stdout)
	}

	common.WriteTrace("adascale-eval")
}
