// Drivingcam: AdaScale on a dash-cam-style workload. Traffic scenes film
// vehicles large and close (lead cars fill the frame), exactly the content
// the paper says benefits from down-scaling: oversized objects re-enter the
// detector's competent size band and high-resolution clutter stops spawning
// false positives. The example builds a custom dataset from user-defined
// class profiles — the same extension point a downstream user would use for
// their own domain. Dash cams also drop, freeze and wash out frames
// (tunnels, glare), so the example ends with the README's fault-injection
// run: the same validation clips with a tenth of their frames corrupted,
// served behind the degradation ladder.
package main

import (
	"fmt"
	"log"

	"adascale"
)

func main() {
	// A driving-domain class set: near vehicles are large (high SizeFrac),
	// streets are cluttered, pedestrians are small and hard.
	classes := []adascale.ClassProfile{
		{Name: "lead car", BaseQuality: 0.85, SizeFrac: 0.45, SizeSpread: 0.30, Texture: adascale.TextureGradient, Clutter: 0.65},
		{Name: "truck", BaseQuality: 0.82, SizeFrac: 0.40, SizeSpread: 0.30, Texture: adascale.TextureGradient, Clutter: 0.55},
		{Name: "oncoming car", BaseQuality: 0.75, SizeFrac: 0.22, SizeSpread: 0.35, Texture: adascale.TextureGradient, Clutter: 0.60},
		{Name: "pedestrian", BaseQuality: 0.45, SizeFrac: 0.12, SizeSpread: 0.40, Texture: adascale.TextureChecker, Clutter: 0.70},
		{Name: "cyclist", BaseQuality: 0.55, SizeFrac: 0.18, SizeSpread: 0.35, Texture: adascale.TextureChecker, Clutter: 0.65},
		{Name: "traffic sign", BaseQuality: 0.80, SizeFrac: 0.10, SizeSpread: 0.30, Texture: adascale.TextureSolid, Clutter: 0.45},
	}
	cfg := adascale.DatasetConfig{
		Name: "drivingcam", Classes: classes,
		NativeW: 1280, NativeH: 720, RenderDiv: 4,
		FramesPerSnippet: 16, MaxObjects: 3, Seed: 7,
	}
	ds, err := adascale.Generate(cfg, 36, 18)
	if err != nil {
		panic(err)
	}

	sys := adascale.Build(ds, adascale.DefaultBuildConfig())
	ssDet := adascale.NewSSDetector(&ds.Config)

	fixed := adascale.RunDataset(ds.Val, adascale.FixedRunner(ssDet, 600))
	ada := adascale.RunDataset(ds.Val, adascale.AdaScaleRunner(sys.Detector, sys.Regressor))

	n := len(classes)
	fr := adascale.Evaluate(adascale.ToEval(fixed), n)
	ar := adascale.Evaluate(adascale.ToEval(ada), n)

	fmt.Println("dash-cam workload (vehicle-heavy, cluttered streets)")
	fmt.Printf("%-12s mAP %5.1f%%  %5.1f ms/frame (%4.1f FPS)\n",
		"fixed 600:", fr.MAP*100, adascale.MeanRuntimeMS(fixed), 1000/adascale.MeanRuntimeMS(fixed))
	fmt.Printf("%-12s mAP %5.1f%%  %5.1f ms/frame (%4.1f FPS), mean scale %.0f\n",
		"AdaScale:", ar.MAP*100, adascale.MeanRuntimeMS(ada), 1000/adascale.MeanRuntimeMS(ada),
		adascale.MeanScale(ada))

	fmt.Println("\nper-class AP (fixed → AdaScale):")
	for c, p := range classes {
		fmt.Printf("  %-13s %5.1f -> %5.1f\n", p.Name, fr.PerClass[c].AP*100, ar.PerClass[c].AP*100)
	}

	// Show one snippet's scale trace: large lead vehicles should pull the
	// scale down and keep it there.
	outs := adascale.RunAdaScale(sys.Detector, sys.Regressor, &ds.Val[0])
	fmt.Print("\nscale trace of first validation clip:")
	for _, o := range outs {
		fmt.Printf(" %d", o.Scale)
	}
	fmt.Println()

	// Corrupt the stream: 10% of frames dropped / stale / blacked-out /
	// overexposed / noisy / jittered. Same seed ⇒ bit-identical stream.
	val, err := adascale.Inject(ds.Val, adascale.MixedFaults(0.10, 7))
	if err != nil {
		panic(err)
	}
	rcfg := adascale.DefaultResilientConfig()
	rcfg.DeadlineMS = 60 // force lower scales past a 60 ms/frame budget
	res, errs := adascale.RunDatasetPartial(val, adascale.ResilientRunner(sys.Detector, sys.Regressor, rcfg))
	for _, e := range errs {
		log.Printf("snippet recovered from panic: %v", e) // the run continues without it
	}
	rr := adascale.Evaluate(adascale.ToEval(res), n) // scored against the true ground truth
	fmt.Printf("\nwith 10%% of frames faulted: mAP %5.1f%%  %5.1f ms/frame\n",
		rr.MAP*100, adascale.MeanRuntimeMS(res))
	fmt.Println(adascale.Summarize(res)) // faults seen, fallbacks fired, frames to recover
}
