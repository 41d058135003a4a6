// Command adascale-train runs the Fig. 2 training methodology: generate
// the synthetic dataset, configure the multi-scale detector, produce
// optimal-scale labels with the Sec. 3.1 metric, train the scale regressor
// and save its weights.
//
// Usage:
//
//	adascale-train [-dataset vid|ytbb] [-train N] [-seed N] \
//	               [-kernels 1,3] [-epochs 2] [-lr 0.01] [-o weights.bin] \
//	               [-workers N] [-faults 0] [-deadline-ms 0] \
//	               [-trace trace.txt] [-pprof localhost:6060]
//
// With -faults > 0 a post-training smoke check runs the freshly trained
// system through the resilient pipeline on a small fault-injected split
// and prints its health summary — a quick sanity gate that the system
// degrades gracefully before the weights ship (-deadline-ms adds the
// per-frame deadline). The master -seed pins the dataset and the derived
// fault stream (see internal/cli).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"adascale/internal/adascale"
	"adascale/internal/cli"
	"adascale/internal/faults"
	"adascale/internal/regressor"
	"adascale/internal/synth"
)

func main() {
	var common cli.Common
	common.Register(60, -1)
	kernels := flag.String("kernels", "1,3", "regressor branch kernels")
	epochs := flag.Int("epochs", 2, "training epochs")
	lr := flag.Float64("lr", 0.01, "base learning rate")
	out := flag.String("o", "adascale-regressor.bin", "output weights file")
	faultRate := flag.Float64("faults", 0, "fault rate for the post-training resilience smoke check (0 = off)")
	deadlineMS := flag.Float64("deadline-ms", 0, "per-frame deadline for the smoke check (0 = off)")
	flag.Parse()
	common.Apply("adascale-train")

	fail := func(err error) { cli.Fail("adascale-train", err) }

	cfg, err := common.SynthConfig()
	if err != nil {
		fail(err)
	}
	ks, err := cli.ParseInts(*kernels)
	if err != nil {
		fail(err)
	}
	if err := checkRecipe(*epochs, *lr); err != nil {
		fail(err)
	}

	ds, err := synth.Generate(cfg, common.Train, 0)
	if err != nil {
		fail(err)
	}
	fmt.Printf("generated %d training snippets (%d frames) of %s\n",
		len(ds.Train), len(synth.Frames(ds.Train)), cfg.Name)

	bc := adascale.DefaultBuildConfig()
	bc.Kernels = ks
	bc.Train.Epochs = *epochs
	bc.Train.BaseLR = *lr
	fmt.Printf("building: S_train=%v, S_reg=%v, kernels=%v, %d epochs at lr %g\n",
		bc.TrainScales, regressor.SReg, bc.Kernels, bc.Train.Epochs, bc.Train.BaseLR)
	sys := adascale.Build(ds, bc)

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := sys.Regressor.Save(f); err != nil {
		fail(err)
	}
	fmt.Printf("trained %v, weights saved to %s\n", sys.Regressor, *out)

	if *faultRate > 0 || *deadlineMS > 0 {
		if err := resilienceSmoke(sys, cfg, &common, *faultRate, *deadlineMS); err != nil {
			fail(err)
		}
	}

	common.WriteTrace("adascale-train")
}

// checkRecipe rejects a training recipe that cannot produce usable weights.
// Zero epochs is among them: adascale.Build reads Train.Epochs == 0 as "no
// recipe given" and substitutes the whole default one, -lr included.
func checkRecipe(epochs int, lr float64) error {
	if epochs < 1 {
		return fmt.Errorf("-epochs must be at least 1, got %d", epochs)
	}
	if math.IsNaN(lr) || math.IsInf(lr, 0) || lr <= 0 {
		return fmt.Errorf("-lr must be a positive finite number, got %g", lr)
	}
	return nil
}

// resilienceSmoke runs the freshly trained system through the resilient
// pipeline on a small fault-injected split and prints the degradation
// accounting — the last gate before the weights are considered usable.
func resilienceSmoke(sys *adascale.System, cfg synth.Config, common *cli.Common, rate, deadlineMS float64) error {
	ds, err := synth.Generate(cfg, 0, 8)
	if err != nil {
		return err
	}
	val, err := faults.Inject(ds.Val, faults.Mixed(rate, common.FaultSeed()))
	if err != nil {
		return err
	}
	rcfg := adascale.DefaultResilientConfig()
	rcfg.DeadlineMS = deadlineMS
	runner := adascale.TracedRunner(sys.Detector.Cost(), adascale.ResilientRunner(sys.Detector, sys.Regressor, rcfg), common.Tracer())
	outs, errs := adascale.RunDatasetPartial(val, runner)
	for _, e := range errs {
		fmt.Printf("smoke check: recovered %v\n", e)
	}
	s := adascale.Summarize(outs)
	fmt.Printf("resilience smoke (rate %.2f, deadline %.0f ms): %v\n", rate, deadlineMS, s)
	if s.Unaccounted > 0 {
		return fmt.Errorf("resilience smoke check failed: %d unaccounted frames", s.Unaccounted)
	}
	fmt.Println("resilience smoke: OK")
	return nil
}
