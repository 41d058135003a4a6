package adascale

import (
	"math/rand"

	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// System bundles a trained AdaScale deployment: the (multi-scale
// fine-tuned) detector and its trained scale regressor.
type System struct {
	Detector  *rfcn.Detector
	Regressor *regressor.Regressor
}

// BuildConfig parameterises the Fig. 2 methodology.
type BuildConfig struct {
	// TrainScales is S_train for detector fine-tuning; the paper default
	// is {600, 480, 360, 240}.
	TrainScales []int

	// Kernels selects the regressor branch architecture (Table 3).
	Kernels []int

	// Train overrides the regressor training recipe; zero value means
	// regressor.DefaultTrainConfig.
	Train regressor.TrainConfig
}

// buildSeed drives regressor initialisation.
const buildSeed = 1

// DefaultBuildConfig returns the paper's configuration.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		TrainScales: []int{600, 480, 360, 240},
		Kernels:     regressor.DefaultKernels,
		Train:       regressor.DefaultTrainConfig(),
	}
}

// Build runs the full Fig. 2 methodology on a dataset: multi-scale
// fine-tune the detector (behavioural: configure its training scales),
// generate optimal-scale labels at every S_reg scale over the training
// split with the Sec. 3.1 metric, and train the scale regressor. It returns
// the deployable system.
func Build(ds *synth.Dataset, cfg BuildConfig) *System {
	if len(cfg.TrainScales) == 0 {
		cfg.TrainScales = []int{600, 480, 360, 240}
	}
	if cfg.Train.Epochs == 0 {
		cfg.Train = regressor.DefaultTrainConfig()
	}
	det := rfcn.New(&ds.Config, cfg.TrainScales)
	labels := regressor.GenerateLabelsAllScales(det, synth.Frames(ds.Train), regressor.SReg)
	reg := regressor.New(rand.New(rand.NewSource(buildSeed)), cfg.Kernels)
	reg.Fit(labels, cfg.Train)
	return &System{Detector: det, Regressor: reg}
}
