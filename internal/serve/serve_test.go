package serve

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/obs"
	"adascale/internal/regressor"
	"adascale/internal/synth"
)

var (
	buildOnce sync.Once
	sharedDS  *synth.Dataset
	sharedSys *adascale.System
)

// system builds one small trained system shared across the package's tests.
func system(t testing.TB) (*synth.Dataset, *adascale.System) {
	t.Helper()
	buildOnce.Do(func() {
		cfg := synth.VIDLike(5)
		ds, err := synth.Generate(cfg, 12, 6)
		if err != nil {
			t.Fatal(err)
		}
		sharedDS = ds
		sharedSys = adascale.Build(ds, adascale.DefaultBuildConfig())
	})
	return sharedDS, sharedSys
}

// load generates a standard arrival schedule over the validation snippets.
func load(t testing.TB, ds *synth.Dataset, streams int, fps float64, frames int, seed int64) []Stream {
	t.Helper()
	out, err := GenLoad(ds.Val, LoadConfig{Streams: streams, FPS: fps, FramesPerStream: frames, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func newServer(t testing.TB, sys *adascale.System, cfg Config) *Server {
	t.Helper()
	srv, err := New(sys.Detector, sys.Regressor, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestGenLoadDeterministicAndOrdered pins the load generator's contract:
// same config twice gives the identical schedule, arrivals are strictly
// increasing per stream, and distinct streams draw distinct schedules.
func TestGenLoadDeterministicAndOrdered(t *testing.T) {
	ds, _ := system(t)
	a := load(t, ds, 3, 30, 40, 7)
	b := load(t, ds, 3, 30, 40, 7)
	for i := range a {
		if len(a[i].Frames) != 40 {
			t.Fatalf("stream %d: %d frames, want 40", i, len(a[i].Frames))
		}
		prev := 0.0
		for j := range a[i].Frames {
			af, bf := a[i].Frames[j], b[i].Frames[j]
			if af.Frame != bf.Frame || af.ArrivalMS != bf.ArrivalMS {
				t.Fatalf("stream %d frame %d: schedules diverge across identical runs", i, j)
			}
			if af.ArrivalMS <= prev {
				t.Fatalf("stream %d frame %d: arrival %v not after %v", i, j, af.ArrivalMS, prev)
			}
			prev = af.ArrivalMS
		}
	}
	if a[0].Frames[0].ArrivalMS == a[1].Frames[0].ArrivalMS {
		t.Fatal("streams 0 and 1 share an arrival schedule; per-stream seeds are not independent")
	}
	if _, err := GenLoad(ds.Val, LoadConfig{Streams: 0, FPS: 30, FramesPerStream: 1}); err == nil {
		t.Fatal("zero streams accepted")
	}
	if _, err := GenLoad(nil, LoadConfig{Streams: 1, FPS: 30, FramesPerStream: 1}); err == nil {
		t.Fatal("empty snippet corpus accepted")
	}
}

// TestLastArrivalMS: the horizon is the latest arrival over every stream's
// frames, and 0 for a load with none.
func TestLastArrivalMS(t *testing.T) {
	streams := []Stream{
		{Frames: []TimedFrame{{ArrivalMS: 5}, {ArrivalMS: 40}}},
		{},
		{Frames: []TimedFrame{{ArrivalMS: 12}, {ArrivalMS: 71.5}}},
	}
	if got := LastArrivalMS(streams); got != 71.5 {
		t.Fatalf("LastArrivalMS = %v, want 71.5", got)
	}
	if got := LastArrivalMS(streams[1:2]); got != 0 {
		t.Fatalf("LastArrivalMS of a frameless load = %v, want 0", got)
	}
}

// TestGenLoadMatchesMathRand pins GenLoad's arrivals value for value to the
// schedule it drew when every stream had its own math/rand source seeded
// by loadSeed: reseeding one internal/rng generator must not move a single
// arrival.
func TestGenLoadMatchesMathRand(t *testing.T) {
	ds, _ := system(t)
	const fps = 30.0
	for id, st := range load(t, ds, 500, fps, 30, 41) {
		r := rand.New(rand.NewSource(loadSeed(41, id)))
		clock := 0.0
		for j, tf := range st.Frames {
			clock += r.ExpFloat64() * 1000 / fps
			if tf.ArrivalMS != clock {
				t.Fatalf("stream %d frame %d: arrival %v, math/rand draws %v", id, j, tf.ArrivalMS, clock)
			}
		}
	}
}

// TestTallyMatchesRun: Tally is Run without the per-frame lists — the same
// registry, counts and checkpoints, with Outputs and Dropped left nil.
func TestTallyMatchesRun(t *testing.T) {
	ds, sys := system(t)
	cfg := Config{Workers: 1, QueueDepth: 2, SLOMS: 80, Resilient: adascale.DefaultResilientConfig()}
	ld := load(t, ds, 6, 40, 20, 13)
	run, tally := newServer(t, sys, cfg).Run(ld), newServer(t, sys, cfg).Tally(ld)
	if a, b := run.Metrics.Snapshot(), tally.Metrics.Snapshot(); a != b {
		t.Fatalf("snapshots diverge:\n--- Run ---\n%s\n--- Tally ---\n%s", a, b)
	}
	if run.TotalDropped() == 0 || tally.TotalDropped() != run.TotalDropped() || tally.Lost() != 0 {
		t.Fatalf("drops: Run %d, Tally %d (lost %d); the load must overflow a queue", run.TotalDropped(), tally.TotalDropped(), tally.Lost())
	}
	for i, sr := range tally.Streams {
		want := run.Streams[i]
		if sr.Outputs != nil || sr.Dropped != nil {
			t.Fatalf("stream %d: Tally kept per-frame lists", sr.ID)
		}
		if sr.Served != len(want.Outputs) || sr.Drops != len(want.Dropped) || sr.SLOMisses != want.SLOMisses ||
			!reflect.DeepEqual(sr.Checkpoint, want.Checkpoint) {
			t.Fatalf("stream %d: Tally %+v, Run served %d dropped %d", sr.ID, sr, len(want.Outputs), len(want.Dropped))
		}
	}
}

// TestServeDeterministicSnapshots pins the tentpole's determinism
// contract: two runs with the same seed and config produce byte-identical
// final metric snapshots and identical served outputs, even though real
// compute fans out across pool goroutines.
func TestServeDeterministicSnapshots(t *testing.T) {
	ds, sys := system(t)
	cfg := Config{Workers: 4, QueueDepth: 4, SLOMS: 100, Resilient: adascale.DefaultResilientConfig()}
	run := func() *Report {
		return newServer(t, sys, cfg).Run(load(t, ds, 8, 30, 25, 5))
	}
	a, b := run(), run()
	snapA, snapB := a.Metrics.Snapshot(), b.Metrics.Snapshot()
	if snapA == "" {
		t.Fatal("empty metrics snapshot")
	}
	if snapA != snapB {
		t.Fatalf("snapshots diverge across identical runs:\n--- run A ---\n%s\n--- run B ---\n%s", snapA, snapB)
	}
	av, bv := a.Served(), b.Served()
	if len(av) == 0 || len(av) != len(bv) {
		t.Fatalf("served %d and %d frames across identical runs", len(av), len(bv))
	}
	for i := range av {
		if av[i].Scale != bv[i].Scale || len(av[i].Detections) != len(bv[i].Detections) {
			t.Fatalf("output %d diverges across identical runs", i)
		}
	}
	for _, want := range []string{"frames/served", "latency/ms", "sessions/accepted"} {
		if !strings.Contains(snapA, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snapA)
		}
	}
}

// TestServeUnloadedNoDrops: at a rate well inside capacity, every offered
// frame is served — no drops, no SLO misses under a generous SLO.
func TestServeUnloadedNoDrops(t *testing.T) {
	ds, sys := system(t)
	cfg := Config{Workers: 4, QueueDepth: 8, SLOMS: 500, Resilient: adascale.DefaultResilientConfig()}
	streams := load(t, ds, 4, 5, 20, 3)
	rep := newServer(t, sys, cfg).Run(streams)

	offered := 4 * 20
	if got := rep.Metrics.Counter("frames/offered"); got != int64(offered) {
		t.Fatalf("offered %d frames, want %d", got, offered)
	}
	if n := rep.TotalDropped(); n != 0 {
		t.Fatalf("dropped %d frames at an unloaded rate", n)
	}
	if got := len(rep.Served()); got != offered {
		t.Fatalf("served %d frames, want %d", got, offered)
	}
	if n := rep.Metrics.Counter("slo/miss"); n != 0 {
		t.Fatalf("%d SLO misses at an unloaded rate with a generous SLO", n)
	}
	for _, sr := range rep.Streams {
		if len(sr.Outputs) != 20 {
			t.Fatalf("stream %d served %d frames, want 20", sr.ID, len(sr.Outputs))
		}
	}
}

// TestServeOverloadDropsNotStalls: under heavy overload the server sheds
// load via drop-oldest and still terminates with every offered frame
// accounted for; served-frame latency stays bounded because the queue
// keeps only the freshest frames.
func TestServeOverloadDropsNotStalls(t *testing.T) {
	ds, sys := system(t)
	cfg := Config{Workers: 1, QueueDepth: 4, Resilient: adascale.DefaultResilientConfig()}
	streams := load(t, ds, 4, 50, 30, 9)

	done := make(chan *Report, 1)
	go func() { done <- newServer(t, sys, cfg).Run(streams) }()
	var rep *Report
	select {
	case rep = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("overloaded server failed to terminate: it must drop, not stall")
	}

	offered, served, dropped := rep.Metrics.Counter("frames/offered"), int64(len(rep.Served())), int64(rep.TotalDropped())
	if offered != 4*30 {
		t.Fatalf("offered %d frames, want %d", offered, 4*30)
	}
	if dropped == 0 {
		t.Fatal("no drops under 15x overload; backpressure is not engaging")
	}
	if served+dropped != offered {
		t.Fatalf("served %d + dropped %d != offered %d", served, dropped, offered)
	}
	if dropped != rep.Metrics.Counter("frames/dropped") {
		t.Fatalf("report counts %d drops, metrics %d", dropped, rep.Metrics.Counter("frames/dropped"))
	}
	// Drop-oldest bounds staleness independently of how many frames were
	// offered: a served frame never waits behind more than the system's
	// whole backlog capacity — streams × (QueueDepth + 1 in flight) frames
	// at worst-case (~80ms + jitter) service. Unbounded FIFO growth would
	// blow through this, i.e. a stall in disguise.
	backlogMS := float64(4*(4+1)) * 120
	if maxLat := rep.Metrics.Quantile("latency/ms", 1.0); maxLat > backlogMS {
		t.Fatalf("max latency %.1fms exceeds backlog capacity %.0fms: queue is growing without bound", maxLat, backlogMS)
	}
}

// TestServeSLOStepsScaleDown: a stream that keeps missing its latency SLO
// must walk its scale cap down the S_reg ladder (PR 2 hysteresis wired to
// end-to-end latency), recording DeadlineForced health and slo/miss.
func TestServeSLOStepsScaleDown(t *testing.T) {
	ds, sys := system(t)
	tight := Config{Workers: 1, QueueDepth: 4, SLOMS: 40, Resilient: adascale.DefaultResilientConfig()}
	rep := newServer(t, sys, tight).Run(load(t, ds, 2, 25, 30, 11))

	if rep.Metrics.Counter("slo/miss") == 0 {
		t.Fatal("no SLO misses under overload with a 40ms SLO")
	}
	forced, minScale := 0, regressor.MaxScale
	for _, o := range rep.Served() {
		if o.Health.DeadlineForced {
			forced++
		}
		if o.Scale < minScale {
			minScale = o.Scale
		}
	}
	if forced == 0 {
		t.Fatal("SLO pressure never stepped a scale cap down (no DeadlineForced frames)")
	}
	if minScale >= regressor.MaxScale {
		t.Fatalf("min served scale %d: cap stepping never left the top of the ladder", minScale)
	}

	// The same workload with no SLO never reports deadline enforcement.
	loose := Config{Workers: 1, QueueDepth: 4, Resilient: adascale.DefaultResilientConfig()}
	for _, o := range newServer(t, sys, loose).Run(load(t, ds, 2, 25, 30, 11)).Served() {
		if o.Health.DeadlineForced {
			t.Fatal("DeadlineForced frame with SLO enforcement disabled")
		}
	}
}

// TestServeMatchesOfflineRunner pins serving semantics to the offline
// resilient runner: one unloaded stream over exactly one snippet, no SLO,
// must emit the same scales, detections and health as ResilientRunner.
func TestServeMatchesOfflineRunner(t *testing.T) {
	ds, sys := system(t)
	frames := len(ds.Val[0].Frames)
	streams := load(t, ds, 1, 2, frames, 13)
	rep := newServer(t, sys, Config{Workers: 2, QueueDepth: 8, Resilient: adascale.DefaultResilientConfig()}).Run(streams)
	want := adascale.ResilientRunner(sys.Detector, sys.Regressor, adascale.DefaultResilientConfig())()(&ds.Val[0])

	got := rep.Streams[0].Outputs
	if len(got) != len(want) {
		t.Fatalf("served %d frames, offline runner produced %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Frame != w.Frame || g.Scale != w.Scale || g.Health != w.Health {
			t.Fatalf("frame %d: served (scale %d, health %+v), offline (scale %d, health %+v)",
				i, g.Scale, g.Health, w.Scale, w.Health)
		}
		if len(g.Detections) != len(w.Detections) {
			t.Fatalf("frame %d: %d detections, offline %d", i, len(g.Detections), len(w.Detections))
		}
		for k := range w.Detections {
			if g.Detections[k] != w.Detections[k] {
				t.Fatalf("frame %d det %d: %+v, offline %+v", i, k, g.Detections[k], w.Detections[k])
			}
		}
	}
}

// TestServeAdmissionControl: streams past MaxStreams are rejected up
// front, reported, counted, and never served.
func TestServeAdmissionControl(t *testing.T) {
	ds, sys := system(t)
	cfg := Config{Workers: 2, QueueDepth: 8, MaxStreams: 2, Resilient: adascale.DefaultResilientConfig()}
	rep := newServer(t, sys, cfg).Run(load(t, ds, 5, 10, 6, 17))

	if len(rep.Streams) != 2 {
		t.Fatalf("admitted %d streams, want 2", len(rep.Streams))
	}
	if len(rep.Rejected) != 3 {
		t.Fatalf("rejected %v, want streams 2..4", rep.Rejected)
	}
	for i, id := range rep.Rejected {
		if id != i+2 {
			t.Fatalf("rejected %v, want [2 3 4]", rep.Rejected)
		}
	}
	if got := rep.Metrics.Counter("sessions/rejected"); got != 3 {
		t.Fatalf("sessions/rejected = %d, want 3", got)
	}
	if got := len(rep.Served()); got != 2*6 {
		t.Fatalf("served %d frames, want %d from the admitted streams only", got, 2*6)
	}
}

// TestServeConfigValidation rejects nonsense configs at New time with the
// typed *ConfigError, naming the offending field. Zero and negative queue
// capacities in particular must fail fast: before they were validated, a
// depth-0 stream panicked on its first arrival (evicting from an empty
// queue).
func TestServeConfigValidation(t *testing.T) {
	_, sys := system(t)
	base := func() Config {
		return Config{Workers: 2, QueueDepth: 4, Resilient: adascale.DefaultResilientConfig()}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"negative SLO", func(c *Config) { c.SLOMS = -1 }, "SLOMS"},
		{"zero queue depth", func(c *Config) { c.QueueDepth = 0 }, "QueueDepth"},
		{"negative queue depth", func(c *Config) { c.QueueDepth = -3 }, "QueueDepth"},
		{"negative max streams", func(c *Config) { c.MaxStreams = -2 }, "MaxStreams"},
		{"negative tick", func(c *Config) { c.TickMS = -5 }, "TickMS"},
		{"chaos without workers", func(c *Config) {
			c.Workers = 0
			c.Chaos = &faults.SystemPlan{}
		}, "Workers"},
		{"chaos targeting a missing worker", func(c *Config) {
			c.Chaos = &faults.SystemPlan{Events: []faults.SystemEvent{
				{AtMS: 10, Kind: faults.SysWorkerKill, Worker: 7},
			}}
		}, "Chaos"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		_, err := New(sys.Detector, sys.Regressor, cfg)
		if err == nil {
			t.Fatalf("%s: config accepted", tc.name)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error %v is not a *ConfigError", tc.name, err)
		}
		if ce.Field != tc.field {
			t.Fatalf("%s: rejected field %q, want %q", tc.name, ce.Field, tc.field)
		}
	}
	if _, err := New(sys.Detector, sys.Regressor, base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestServeConfigRejectsNonFinite: NaN passes a `< 0` check, and an infinite
// tick pushes the virtual clock to +Inf, so both knobs must be finite — a NaN
// SLO used to run silently with no SLO at all. cluster.Config inherits this
// through Node.Validate.
func TestServeConfigRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"SLOMS", Config{SLOMS: math.NaN()}},
		{"SLOMS", Config{SLOMS: math.Inf(1)}},
		{"SLOMS", Config{SLOMS: math.Inf(-1)}},
		{"TickMS", Config{TickMS: math.NaN()}},
		{"TickMS", Config{TickMS: math.Inf(1)}},
	} {
		tc.cfg.QueueDepth = 4
		var ce *ConfigError
		if err := tc.cfg.Validate(); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("SLOMS %v, TickMS %v: Validate = %v, want a *ConfigError on %s", tc.cfg.SLOMS, tc.cfg.TickMS, err, tc.field)
		}
	}
}

// TestServeTicksFireDeterministically: ticks fire at exact virtual
// instants, strictly increasing, and stop with the simulation; they only
// observe it, so the snapshot and DurationMS are the ones the same run
// gives without ticks. Covered on a plain run and on one that stalls
// worker 0 a millisecond into the first frame for longer than the whole
// load: the watchdog reassigns that frame, the stall's end is the run's
// last live event, and the superseded completion is left in the heap after
// it.
func TestServeTicksFireDeterministically(t *testing.T) {
	const tickMS = 10
	ds, sys := system(t)
	streams := load(t, ds, 2, 10, 10, 21)
	first := min(streams[0].Frames[0].ArrivalMS, streams[1].Frames[0].ArrivalMS)
	stall := &faults.SystemPlan{Seed: 1, Events: []faults.SystemEvent{
		{AtMS: first + 1, Kind: faults.SysWorkerStall, Worker: 0, DurationMS: 2000},
	}}
	for _, plan := range []*faults.SystemPlan{nil, stall} {
		cfg := Config{
			Workers: 2, QueueDepth: 4,
			Resilient: adascale.DefaultResilientConfig(),
			Chaos:     plan,
		}
		quiet := newServer(t, sys, cfg).Run(streams)
		if plan != nil && (quiet.Metrics.Counter("watchdog/reassigned") != 1 || quiet.DurationMS != first+1+2000) {
			t.Fatalf("the stall did not reassign the first frame and end the run:\n%s", quiet.Metrics.Snapshot())
		}

		var ticks []float64
		cfg.TickMS = tickMS
		cfg.OnTick = func(simMS float64, m *obs.Metrics) {
			if m.Snapshot() == "" {
				t.Error("tick observed an empty registry")
			}
			ticks = append(ticks, simMS)
		}
		rep := newServer(t, sys, cfg).Run(streams)
		for i, at := range ticks {
			if want := tickMS * float64(i+1); at != want {
				t.Fatalf("tick %d at %vms, want %vms", i, at, want)
			}
		}
		// A tick re-arms while live work remains, so the last one is the
		// first at or after the last event.
		if n := len(ticks); n == 0 || ticks[n-1] < rep.DurationMS || ticks[n-1] >= rep.DurationMS+tickMS {
			t.Fatalf("chaos %v: %d ticks around a %vms simulation", plan != nil, n, rep.DurationMS)
		}
		if rep.DurationMS != quiet.DurationMS {
			t.Fatalf("chaos %v: ticks stretched the run from %vms to %vms", plan != nil, quiet.DurationMS, rep.DurationMS)
		}
		if a, b := quiet.Metrics.Snapshot(), rep.Metrics.Snapshot(); a != b {
			t.Fatalf("chaos %v: ticks changed the snapshot:\n--- without ---\n%s\n--- with ---\n%s", plan != nil, a, b)
		}
	}
}

// TestServeNoGoroutineLeak: a full serve run, including its compute pool,
// leaves no goroutines behind.
func TestServeNoGoroutineLeak(t *testing.T) {
	ds, sys := system(t)
	streams := load(t, ds, 3, 20, 10, 23)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		newServer(t, sys, Config{Workers: 4, QueueDepth: 4, Resilient: adascale.DefaultResilientConfig()}).Run(streams)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTallyAllocsIndependentOfStreams: a model-only Tally allocates per run,
// not per stream — its sessions, their resilient sessions (budgets inline)
// and their queue rings each come from one slab, a report checkpoint is a
// copy of its session's state (no detections to copy when model-only), and
// no arrival enters the event heap. So 1024 streams cost at most a few
// allocations more than 64 (slice growth is logarithmic in the stream count).
func TestTallyAllocsIndependentOfStreams(t *testing.T) {
	ds, sys := system(t)
	srv := newServer(t, sys, Config{
		Workers: 4, QueueDepth: 8, SLOMS: 80, Resilient: adascale.DefaultResilientConfig(), ModelOnly: true,
	})
	allocs := func(streams int) float64 {
		ld := load(t, ds, streams, 30, 4, 13)
		return testing.AllocsPerRun(5, func() { srv.Tally(ld) })
	}
	few, many := allocs(64), allocs(1024)
	if many-few > 16 {
		t.Fatalf("Tally allocates %.0f times at 64 streams and %.0f at 1024: per-stream allocation is back", few, many)
	}
}
