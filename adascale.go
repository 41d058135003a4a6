// Package adascale is a from-scratch Go reproduction of "AdaScale: Towards
// Real-time Video Object Detection Using Adaptive Scaling" (Chin, Ding,
// Marculescu — SysML/MLSys 2019).
//
// AdaScale's insight is that image down-scaling is not a pure
// speed/accuracy trade-off: a small regressor reading the detector's own
// deep features can predict, per frame, the scale at which the detector is
// both faster and more accurate. This package is the public facade over the
// implementation: synthetic video datasets (standing in for ImageNet VID
// and mini YouTube-BB), the behavioural R-FCN detector, the Sec. 3.1
// optimal-scale metric, the Fig. 4 scale regressor trained with a real SGD
// framework, Algorithm 1's video pipeline, the DFF and Seq-NMS baselines it
// composes with, VOC-style evaluation, and the experiment harness that
// regenerates every table and figure of the paper. See DESIGN.md for the
// full substitution map and EXPERIMENTS.md for paper-vs-measured results.
//
// Quickstart:
//
//	cfg := adascale.VIDLike(1)
//	ds, _ := adascale.Generate(cfg, 60, 30)
//	sys := adascale.Build(ds, adascale.DefaultBuildConfig())
//	adascale.SetWorkers(4) // optional: bound the worker pool (0 = GOMAXPROCS)
//	outs := adascale.RunDataset(ds.Val, adascale.AdaScaleRunner(sys.Detector, sys.Regressor))
//	res := adascale.Evaluate(adascale.ToEval(outs), len(cfg.Classes))
//	fmt.Printf("mAP %.1f at %.0f ms/frame\n", res.MAP*100, adascale.MeanRuntimeMS(outs))
//
// RunDataset fans snippets across a worker pool; each worker runs an
// independent runner built by the RunnerFactory (cloned detector and
// regressor), and outputs are concatenated in snippet order, so results are
// identical for any worker count.
package adascale

import (
	"adascale/internal/adascale"
	"adascale/internal/cluster"
	"adascale/internal/detect"
	"adascale/internal/dff"
	"adascale/internal/eval"
	"adascale/internal/faults"
	"adascale/internal/parallel"
	"adascale/internal/raster"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/seqnms"
	"adascale/internal/serve"
	"adascale/internal/server"
	"adascale/internal/simclock"
	"adascale/internal/synth"
)

// Core vocabulary.
type (
	// Box is an axis-aligned bounding box in native frame coordinates.
	Box = detect.Box
	// Detection is one detector output (box, class, confidence).
	Detection = detect.Detection
	// GroundTruth is one annotated object.
	GroundTruth = detect.GroundTruth
)

// Synthetic datasets (the ImageNet VID / mini YouTube-BB stand-ins).
type (
	// DatasetConfig parameterises generation.
	DatasetConfig = synth.Config
	// Dataset is a generated train/val corpus.
	Dataset = synth.Dataset
	// Snippet is one video snippet.
	Snippet = synth.Snippet
	// Frame is one video frame.
	Frame = synth.Frame
	// ClassProfile calibrates one object category.
	ClassProfile = synth.ClassProfile
)

// VIDLike returns the 30-class ImageNet-VID-like dataset configuration.
func VIDLike(seed int64) DatasetConfig { return synth.VIDLike(seed) }

// Generate builds a dataset with the given number of train/val snippets.
func Generate(cfg DatasetConfig, train, val int) (*Dataset, error) {
	return synth.Generate(cfg, train, val)
}

// Detector and regressor.
type (
	// Detector is the behavioural R-FCN object detector.
	Detector = rfcn.Detector
	// DetectorResult is one detector invocation's output.
	DetectorResult = rfcn.Result
	// Regressor is the trainable scale-regression module (Fig. 4).
	Regressor = regressor.Regressor
	// RegressorTrainConfig is the regressor training recipe.
	RegressorTrainConfig = regressor.TrainConfig
	// Label is one regressor training example.
	Label = regressor.Label
)

// NewSSDetector creates the single-scale (600) baseline detector.
func NewSSDetector(data *DatasetConfig) *Detector { return rfcn.NewSS(data) }

// Pipeline (Algorithm 1 and the comparison protocols).
type (
	// System is a trained AdaScale deployment (detector + regressor).
	System = adascale.System
	// BuildConfig parameterises the Fig. 2 training methodology.
	BuildConfig = adascale.BuildConfig
	// FrameOutput is one frame's detections plus cost accounting.
	FrameOutput = adascale.FrameOutput
)

// DefaultBuildConfig returns the paper's configuration.
func DefaultBuildConfig() BuildConfig { return adascale.DefaultBuildConfig() }

// Build runs the full Fig. 2 methodology: configure the multi-scale
// detector, generate optimal-scale labels with the Sec. 3.1 metric, and
// train the scale regressor.
func Build(ds *Dataset, cfg BuildConfig) *System { return adascale.Build(ds, cfg) }

// RunAdaScale runs Algorithm 1 over a snippet.
func RunAdaScale(det *Detector, reg *Regressor, sn *Snippet) []FrameOutput {
	return adascale.RunAdaScale(det, reg, sn)
}

// Parallel execution.
type (
	// SnippetRunner runs one testing protocol over one snippet.
	SnippetRunner = adascale.SnippetRunner
	// RunnerFactory yields one independent SnippetRunner per worker.
	RunnerFactory = adascale.RunnerFactory
)

// FixedRunner returns a per-worker factory for SS testing at scale.
func FixedRunner(det *Detector, scale int) RunnerFactory {
	return adascale.FixedRunner(det, scale)
}

// AdaScaleRunner returns a per-worker factory for Algorithm 1.
func AdaScaleRunner(det *Detector, reg *Regressor) RunnerFactory {
	return adascale.AdaScaleRunner(det, reg)
}

// Fault injection and graceful degradation.
type (
	// FaultConfig parameterises the deterministic fault injector: per-frame
	// rates for dropped, stale, blacked-out, overexposed, noisy and
	// time-jittered frames.
	FaultConfig = faults.Config
	// ResilientConfig tunes the degradation ladder.
	ResilientConfig = adascale.ResilientConfig
	// Health is one frame's fault/degradation accounting.
	Health = adascale.Health
	// HealthSummary aggregates Health records over an output stream.
	HealthSummary = adascale.HealthSummary
	// Fallback identifies a degradation-ladder rung.
	Fallback = adascale.Fallback
	// SnippetError reports a snippet recovered from a runner panic.
	SnippetError = adascale.SnippetError
)

// MixedFaults splits a total per-frame fault rate evenly across the fault
// taxonomy (the standard robustness-sweep configuration).
func MixedFaults(rate float64, seed int64) FaultConfig { return faults.Mixed(rate, seed) }

// Inject returns a deep copy of the snippets with deterministic, seeded
// faults applied: same seed and config give a bit-identical stream at any
// worker count. Frame ground truth is preserved (synth.Frame.GroundTruth),
// so injected streams evaluate against reality.
func Inject(snippets []Snippet, cfg FaultConfig) ([]Snippet, error) {
	return faults.Inject(snippets, cfg)
}

// DefaultResilientConfig returns the standard degradation-ladder tuning.
func DefaultResilientConfig() ResilientConfig { return adascale.DefaultResilientConfig() }

// ResilientRunner returns a per-worker factory for Algorithm 1 behind the
// degradation ladder: sensor-observable faults propagate last-good
// detections, invalid regressor predictions fall back to the last good
// scale, and an optional per-frame deadline (ResilientConfig.DeadlineMS)
// forces lower test scales when the rolling budget is exceeded.
func ResilientRunner(det *Detector, reg *Regressor, cfg ResilientConfig) RunnerFactory {
	return adascale.ResilientRunner(det, reg, cfg)
}

// Summarize folds per-frame Health records into a HealthSummary.
func Summarize(outputs []FrameOutput) HealthSummary { return adascale.Summarize(outputs) }

// RunDatasetPartial is RunDataset with panic recovery: a snippet whose
// runner panics is reported as a SnippetError and emitted as explicit
// placeholder frames instead of taking down the whole run.
func RunDatasetPartial(snippets []Snippet, factory RunnerFactory) ([]FrameOutput, []SnippetError) {
	return adascale.RunDatasetPartial(snippets, factory)
}

// DFFRunner returns a per-worker factory for fixed-scale DFF.
func DFFRunner(det *Detector, keyScale int, cfg DFFConfig) RunnerFactory {
	return dff.Runner(det, keyScale, cfg)
}

// DFFAdaptiveRunner returns a per-worker factory for DFF + AdaScale.
func DFFAdaptiveRunner(det *Detector, reg *Regressor, cfg DFFConfig) RunnerFactory {
	return dff.AdaptiveRunner(det, reg, cfg)
}

// RunDataset fans the snippets of a split across the worker pool — one
// runner per worker, built by factory — and concatenates the per-snippet
// outputs in snippet order. The output stream is identical to
// RunDatasetSerial for any worker count.
func RunDataset(snippets []Snippet, factory RunnerFactory) []FrameOutput {
	return adascale.RunDataset(snippets, factory)
}

// SetWorkers bounds the worker pool used by RunDataset and the parallel
// tensor kernels; n <= 0 restores the GOMAXPROCS default.
func SetWorkers(n int) { parallel.SetWorkers(n) }

// MeanRuntimeMS averages the modelled per-frame runtime.
func MeanRuntimeMS(outputs []FrameOutput) float64 { return adascale.MeanRuntimeMS(outputs) }

// MeanScale averages the tested scale.
func MeanScale(outputs []FrameOutput) float64 { return adascale.MeanScale(outputs) }

// Multi-stream serving.
type (
	// ServeConfig parameterises the multi-stream server: serving capacity,
	// per-stream queue depth (drop-oldest beyond it), admission-control
	// limit, and the per-frame latency SLO that walks overloaded streams
	// down the scale ladder.
	ServeConfig = serve.Config
	// Server schedules N concurrent video sessions onto the worker pool.
	Server = serve.Server
	// ServeReport is one serving run's outcome: per-stream outputs, drops,
	// SLO misses, and the deterministic metrics registry.
	ServeReport = serve.Report
	// ServeStreamReport is one admitted stream's outcome.
	ServeStreamReport = serve.StreamReport
	// ServeStream is one session's workload: an ordered arrival schedule.
	ServeStream = serve.Stream
	// TimedFrame is one frame with its open-loop arrival time.
	TimedFrame = serve.TimedFrame
	// LoadConfig parameterises the deterministic load generator.
	LoadConfig = serve.LoadConfig
)

// NewServer creates a multi-stream server over a trained system. Time is
// virtual: the scheduler is a discrete-event simulation over the modelled
// runtime clock, while detector/regressor compute fans out across real
// goroutines with per-worker clones — so the served outputs and the final
// metrics snapshot are byte-identical across runs and core counts.
func NewServer(det *Detector, reg *Regressor, cfg ServeConfig) (*Server, error) {
	return serve.New(det, reg, cfg)
}

// GenLoad builds deterministic per-stream open-loop arrival schedules
// (exponential inter-arrival times at LoadConfig.FPS) over a snippet set.
func GenLoad(snippets []Snippet, cfg LoadConfig) ([]ServeStream, error) {
	return serve.GenLoad(snippets, cfg)
}

// System fault tolerance: the serving layer's supervision machinery and
// the migratable session underneath it.
type (
	// SupervisorConfig tunes the per-stream circuit breakers of the
	// serving layer's recovery machinery, which shed to propagation-only
	// while open; retry backoff, the stalled-dispatch watchdog and worker
	// rebuild time are fixed.
	SupervisorConfig = serve.SupervisorConfig
	// ServeConfigError is the typed validation error ServeConfig reports,
	// naming the offending field.
	ServeConfigError = serve.ConfigError
	// ResilientSession runs the degradation ladder over one ordered frame
	// stream with checkpoint/restore support for stream migration.
	ResilientSession = adascale.ResilientSession
	// SessionCheckpoint is a self-contained copy of a session's ladder
	// state; Restore copies it into a fresh session on another node, which
	// then serves exactly as the original would have.
	SessionCheckpoint = adascale.SessionCheckpoint
)

// paperModel is the cost model every facade session shares; sessions only
// read it.
var paperModel = simclock.Paper1080Ti()

// NewResilientSession creates a degradation-ladder session over a stream (Paper1080Ti).
func NewResilientSession(kernels []int, cfg ResilientConfig) *ResilientSession {
	return adascale.NewResilientSession(paperModel, kernels, cfg)
}

// HTTP serving front end (internal/server): the network surface over the
// serving core — stream admission with SLO/queue/quota, frame ingestion,
// results, health probes and Prometheus /metrics, with graceful drain.
type (
	// HTTPConfig parameterises the HTTP server: worker pool, per-stream
	// queue depth, stream quotas, default SLO, per-tenant rate limit, and
	// the clock bridge that stamps arrivals onto the virtual serving clock.
	HTTPConfig = server.Config
	// HTTPServer is the stdlib-only net/http front end.
	HTTPServer = server.Server
	// HTTPRateLimit is the per-tenant token-bucket rate limit.
	HTTPRateLimit = server.RateLimit
	// HTTPConfigError is the typed validation error HTTPConfig reports.
	HTTPConfigError = server.ConfigError
	// HTTPRequestError is the typed 400 the ingestion decoders report.
	HTTPRequestError = server.RequestError
	// HTTPClock maps transport arrivals onto the virtual serving clock.
	HTTPClock = server.Clock
)

// NewHTTPServer creates the HTTP serving front end over a trained system.
// Underneath it is the same virtual-time machinery as NewServer: frame
// costs come from the modelled runtime clock, arrivals are stamped through
// HTTPConfig.Clock, and with a scripted HTTPClock the responses to a recorded
// request script are byte-identical across runs and worker counts.
func NewHTTPServer(det *Detector, reg *Regressor, cfg HTTPConfig) (*HTTPServer, error) {
	return server.New(det, reg, cfg)
}

// Cluster-scale simulation (internal/cluster): shard streams across a
// fleet of simulated serving nodes on one virtual clock — bounded-load
// consistent hashing, epoch-based placement, planned joins, leaves and
// migrations, blackout failover carrying session checkpoints — with a
// cluster-wide report that proves the conservation invariant (offered =
// served + dropped, lost = 0).
type (
	// ClusterConfig parameterises a cluster run: initial fleet size,
	// placement epoch, ring policy, the optional event plan, and the
	// per-node serving template (which must pin Workers).
	ClusterConfig = cluster.Config
	// Cluster is the virtual-time fleet simulator.
	Cluster = cluster.Cluster
	// ClusterReport is the fleet rollup: frame conservation totals,
	// membership churn, migrations/failovers, per-node serving lines and
	// the merged cluster-wide metrics.
	ClusterReport = cluster.Report
	// ClusterNodeReport is one node's serving rollup inside the report.
	ClusterNodeReport = cluster.NodeReport
	// ClusterPlan is a seeded, sorted schedule of cluster events.
	ClusterPlan = cluster.Plan
	// ClusterPlanConfig parameterises cluster event-plan generation.
	ClusterPlanConfig = cluster.PlanConfig
)

// NewCluster creates a fleet simulator over a trained system. Every node
// runs the same scheduler + supervisor as NewServer; placement and failover
// happen at epoch boundaries on the shared virtual clock, so a cluster run
// is byte-identical across runs and worker counts.
func NewCluster(det *Detector, reg *Regressor, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(det, reg, cfg)
}

// GenClusterPlan builds the deterministic cluster event schedule for the
// config: same seed and config give the identical plan on any machine.
func GenClusterPlan(cfg ClusterPlanConfig) (*ClusterPlan, error) { return cluster.GenPlan(cfg) }

// Video-acceleration baselines.
type (
	// DFFConfig parameterises Deep Feature Flow.
	DFFConfig = dff.Config
	// SeqNMSOptions is Seq-NMS's option set; it has no fields (the
	// thresholds and average rescoring are fixed).
	SeqNMSOptions = seqnms.Options
)

// DefaultDFFConfig returns the repository's DFF operating point (key
// interval 5; see dff.DefaultConfig).
func DefaultDFFConfig() DFFConfig { return dff.DefaultConfig() }

// ApplySeqNMS rescoring over per-frame detections of one snippet.
func ApplySeqNMS(frames [][]Detection, opts SeqNMSOptions) [][]Detection {
	return seqnms.Apply(frames, opts)
}

// Evaluation.
type (
	// FrameDetections pairs detections with ground truth for scoring.
	FrameDetections = eval.FrameDetections
	// EvalResult is a full evaluation (per-class AP, mAP, PR curves).
	EvalResult = eval.Result
	// PRPoint is one precision-recall point.
	PRPoint = eval.PRPoint
)

// Evaluate scores detections with VOC-style AP/mAP at IoU ≥ 0.5.
func Evaluate(frames []FrameDetections, nClasses int) *EvalResult {
	return eval.Evaluate(frames, nClasses)
}

// ToEval converts pipeline outputs into evaluation inputs.
func ToEval(outputs []FrameOutput) []FrameDetections {
	out := make([]FrameDetections, len(outputs))
	for i, o := range outputs {
		out[i] = FrameDetections{Detections: o.Detections, GroundTruth: o.Frame.GroundTruth()}
	}
	return out
}

// Texture selects a synthetic object's fill pattern (its complexity is one
// of the signals the scale regressor reacts to).
type Texture = raster.Texture

// Texture kinds, ordered by spatial-frequency content.
const (
	TextureSolid    = raster.TextureSolid
	TextureGradient = raster.TextureGradient
	TextureStripes  = raster.TextureStripes
	TextureChecker  = raster.TextureChecker
	TextureDots     = raster.TextureDots
)
