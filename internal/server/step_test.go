package server

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/detect"
	"adascale/internal/obs"
	"adascale/internal/serve"
)

// These tests hold the two drivers of the frame step (serve/step.go) — this
// package's engine and the discrete-event scheduler — to the same per-frame
// answers on the same frames arriving at the same instants.

// post is one ingestion request: frames for one stream, all stamped atMS.
type post struct {
	stream int
	atMS   float64
	frames []FrameSpec
}

// served is what a driver did with one frame.
type served struct {
	Scale           int
	LatencyMS       float64
	Fault, Fallback string
	Digest          uint64
}

// ledger is one stream's accounting and its served frames in order.
type ledger struct {
	Offered, Served, Dropped, SLOMisses int
	Frames                              []served
}

const (
	stepSeed  = 11
	stepSLOMS = 60
	stepDepth = 64 // never the constraint: neither driver may drop
)

// httpLedgers reads every stream's ledger back out of a drained server.
func httpLedgers(t *testing.T, srv *Server, streams int) []ledger {
	t.Helper()
	out := make([]ledger, streams)
	for id := range out {
		rep, err := srv.engine.results(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = ledger{Offered: rep.Offered, Served: rep.Served, Dropped: rep.Dropped, SLOMisses: rep.SLOMisses}
		for _, fr := range rep.Results {
			dets := make([]detect.Detection, len(fr.Dets))
			for i, d := range fr.Dets {
				dets[i] = detect.Detection{Class: d.Class, Score: d.Score, Box: detect.Box{X1: d.X1, Y1: d.Y1, X2: d.X2, Y2: d.Y2}}
			}
			out[id].Frames = append(out[id].Frames, served{
				Scale: fr.Scale, LatencyMS: fr.LatencyMS, Fault: fr.Fault, Fallback: fr.Fallback,
				Digest: adascale.DetectionDigest(dets),
			})
		}
	}
	return out
}

// driveDES materialises the posts' frames exactly as the engine does
// (FrameSpec.frame over the server seed, stream and running index) and
// serves them through the scheduler with one worker per stream at least, so
// that — as in the engine — a stream only ever waits for itself. The
// scheduler reports no per-frame latency; it is rebuilt from the trace's
// dispatch instant and the output's modelled cost, which is exact for every
// frame whose detector ran.
func driveDES(t *testing.T, workers, streams int, posts []post) ([]ledger, *obs.Metrics) {
	t.Helper()
	sys := system(t)
	load := make([]serve.Stream, streams)
	for id := range load {
		load[id].ID = id
	}
	for _, p := range posts {
		st := &load[p.stream]
		for i := range p.frames {
			st.Frames = append(st.Frames, serve.TimedFrame{
				Frame: p.frames[i].frame(stepSeed, p.stream, len(st.Frames)), ArrivalMS: p.atMS,
			})
		}
	}
	tracer := obs.NewTracer()
	srv, err := serve.New(sys.Detector, sys.Regressor, serve.Config{
		Workers: max(workers, streams), QueueDepth: stepDepth, SLOMS: stepSLOMS,
		Resilient: adascale.DefaultResilientConfig(), Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := srv.Run(load)

	type key struct{ stream, frame int }
	startMS := map[key]float64{}
	for _, sp := range tracer.Spans() {
		k := key{sp.Stream, sp.Frame}
		if at, ok := startMS[k]; !ok || sp.StartMS < at {
			startMS[k] = sp.StartMS
		}
	}
	out := make([]ledger, streams)
	for id, sr := range rep.Streams {
		out[id] = ledger{Offered: sr.Offered, Served: len(sr.Outputs), Dropped: len(sr.Dropped), SLOMisses: sr.SLOMisses}
		if len(sr.Dropped) != 0 {
			t.Fatalf("scheduler dropped %d frames of stream %d at depth %d", len(sr.Dropped), id, stepDepth)
		}
		for i, o := range sr.Outputs {
			fr := served{
				Scale:     o.Scale,
				LatencyMS: startMS[key{id, i}] + o.TotalMS() - load[id].Frames[i].ArrivalMS,
				Digest:    adascale.DetectionDigest(o.Detections),
			}
			if o.Health.Fault != 0 {
				fr.Fault = o.Health.Fault.String()
			}
			if o.Health.Fallback != adascale.FallbackNone {
				fr.Fallback = o.Health.Fallback.String()
			}
			out[id].Frames = append(out[id].Frames, fr)
		}
	}
	return out, rep.Metrics
}

// stepScript is the differential test's request script: three cameras of
// different geometry, ten posts each of one to four frames, an object
// drifting across the frame and absent from every fifth (the flicker the
// propagation rung answers), under an SLO tight enough that multi-frame
// posts miss it and the scale ladder engages.
func stepScript(t *testing.T) (script string, streams int) {
	t.Helper()
	dims := [][2]int{{1280, 720}, {640, 480}, {320, 240}}
	var b strings.Builder
	for id := range dims {
		fmt.Fprintf(&b, "POST /v1/streams tenant=cam%d\n{\"tenant\":\"cam%d\"}\n\n", id, id)
	}
	n := 0
	for p := 0; p < 10; p++ {
		for id, wh := range dims {
			w, h := float64(wh[0]), float64(wh[1])
			req := IngestRequest{}
			for k := 0; k < 1+(p+id)%4; k++ {
				n++
				fs := FrameSpec{W: wh[0], H: wh[1], Clutter: 0.1 * float64(n%4)}
				if n%5 != 0 {
					x := w * (0.1 + 0.05*float64(n%10))
					fs.Objects = []ObjectSpec{{ID: 1, Class: (id + 2) % 5, X1: x, Y1: 0.2 * h, X2: x + 0.3*w, Y2: 0.7 * h, Speed: 2}}
				}
				req.Frames = append(req.Frames, fs)
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "@%d\nPOST /v1/streams/%d/frames tenant=cam%d\n%s\n\n", 45*p+7*id, id, id, body)
		}
	}
	b.WriteString("DRAIN\n")
	return b.String(), len(dims)
}

// scriptPosts reads the ingestion posts back out of a parsed script.
func scriptPosts(t *testing.T, steps []ScriptStep, numClasses int) []post {
	t.Helper()
	var posts []post
	now := 0.0
	for _, st := range steps {
		rest, ok := strings.CutPrefix(st.Path, "/v1/streams/")
		switch {
		case st.Advance:
			now = math.Max(now, st.AdvanceMS)
		case ok && strings.HasSuffix(rest, "/frames"):
			id, err := strconv.Atoi(strings.TrimSuffix(rest, "/frames"))
			if err != nil {
				t.Fatal(err)
			}
			req, err := DecodeIngest([]byte(st.Body), numClasses)
			if err != nil {
				t.Fatal(err)
			}
			posts = append(posts, post{stream: id, atMS: now, frames: req.Frames})
		}
	}
	return posts
}

// TestDriversAgreePerFrame is the differential test of the frame step's two
// drivers: one request script replayed over HTTP (sync, scripted clock) and,
// frame for frame at the same arrival stamps, through the discrete-event
// scheduler, must produce identical per-frame scale, latency, fault,
// fallback and detections, identical per-stream ledgers, and identical
// values under every metric name both registries record. Two names are
// compared loosely or not at all, because the drivers legitimately differ
// there: service/ms is the engine's own cost where the scheduler observes
// (start + cost) − start, equal only to the last bit; queue/depth and its
// peak are sampled per arrival by the scheduler and per POST by the engine.
func TestDriversAgreePerFrame(t *testing.T) {
	script, streams := stepScript(t)
	steps, err := ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			clock := NewScriptClock()
			srv := newServer(t, Config{
				Workers: workers, Sync: true, Clock: clock, Seed: stepSeed,
				SLOMS: stepSLOMS, QueueDepth: stepDepth, Resilient: adascale.DefaultResilientConfig(),
			})
			transcript, err := srv.Replay(steps, clock)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(transcript, "lost=0") || strings.Contains(transcript, "\n4") {
				t.Fatalf("replay did not run clean:\n%s", transcript)
			}
			httpLed, httpM := httpLedgers(t, srv, streams), srv.Metrics()
			desLed, desM := driveDES(t, workers, streams, scriptPosts(t, steps, srv.engine.numClasses))

			scales, fallbacks := map[int]bool{}, 0
			for id := range httpLed {
				h, d := httpLed[id], desLed[id]
				if len(h.Frames) != len(d.Frames) {
					t.Fatalf("stream %d: HTTP served %d frames, scheduler %d", id, len(h.Frames), len(d.Frames))
				}
				for i := range h.Frames {
					if h.Frames[i] != d.Frames[i] {
						t.Fatalf("stream %d frame %d:\n  HTTP      %+v\n  scheduler %+v", id, i, h.Frames[i], d.Frames[i])
					}
					scales[h.Frames[i].Scale] = true
					if h.Frames[i].Fallback != "" {
						fallbacks++
					}
				}
				h.Frames, d.Frames = nil, nil
				if !reflect.DeepEqual(h, d) {
					t.Fatalf("stream %d ledger: HTTP %+v, scheduler %+v", id, h, d)
				}
				if h.SLOMisses == 0 || h.Offered != h.Served+h.Dropped {
					t.Fatalf("stream %d ledger %+v: want SLO misses and conservation", id, h)
				}
			}
			if len(scales) < 3 || fallbacks == 0 {
				t.Fatalf("script too tame to tell the drivers apart: %d scales, %d fallbacks", len(scales), fallbacks)
			}
			if n := compareRegistries(t, httpM, desM); n < 15 {
				t.Fatalf("only %d metric names in common; the registries no longer share a vocabulary", n)
			}
		})
	}
}

// compareRegistries requires equal values under every name both registries
// hold (every sample, for histograms) and returns how many names that was.
func compareRegistries(t *testing.T, a, b *obs.Metrics) (common int) {
	t.Helper()
	inB := map[string]bool{}
	for _, line := range strings.Split(b.Snapshot(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] != "hist" {
			inB[f[1]] = true
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(a.Snapshot(), "\n"), "\n") {
		f := strings.Fields(line)
		kind, name := f[0], f[1]
		switch {
		case kind == "counter" && inB[name]:
			common++
			if av, bv := a.Counter(name), b.Counter(name); av != bv {
				t.Errorf("counter %s: HTTP %d, scheduler %d", name, av, bv)
			}
			continue
		case kind == "gauge" && inB[name] && name != "queue/peak_depth":
			common++
			if av, bv := a.Gauge(name), b.Gauge(name); av != bv {
				t.Errorf("gauge %s: HTTP %v, scheduler %v", name, av, bv)
			}
			continue
		}
		n := b.Count(name)
		if kind != "hist" || n == 0 || name == "queue/depth" {
			continue
		}
		common++
		if a.Count(name) != n {
			t.Errorf("hist %s: HTTP n=%d, scheduler n=%d", name, a.Count(name), n)
			continue
		}
		tol := 0.0
		if name == "service/ms" {
			tol = 1e-9
		}
		for k := 1; k <= n; k++ {
			q := float64(k) / float64(n)
			if av, bv := a.Quantile(name, q), b.Quantile(name, q); math.Abs(av-bv) > tol {
				t.Errorf("hist %s sample %d of %d: HTTP %v, scheduler %v", name, k, n, av, bv)
				break
			}
		}
	}
	return common
}

// TestPoisonedFrameBothDrivers drives each driver over a stream whose
// third frame panics the detector (an object class outside the detector's
// vocabulary — unreachable over the wire, where DecodeIngest rejects it, so
// the engine is fed directly). The step's contract is the same under both:
// the panic is counted once, the worker is rebuilt, the poisoned frame is
// still served (degraded, by propagation), every later frame is served by
// the detector again, and nothing is lost.
func TestPoisonedFrameBothDrivers(t *testing.T) {
	const frames, poisoned = 6, 2
	var posts []post
	for i := 0; i < frames; i++ {
		fs := FrameSpec{W: 320, H: 240, Objects: []ObjectSpec{{ID: 1, Class: 0, X1: 40, Y1: 40, X2: 120, Y2: 120}}}
		if i == poisoned {
			fs.Objects[0].Class = 1 << 20
		}
		posts = append(posts, post{stream: 0, atMS: 100 * float64(i), frames: []FrameSpec{fs}})
	}
	drivers := []struct {
		name  string
		drive func(t *testing.T) ([]ledger, *obs.Metrics)
	}{
		{"http", func(t *testing.T) ([]ledger, *obs.Metrics) {
			clock := NewScriptClock()
			srv := newServer(t, Config{
				Workers: 2, Sync: true, Clock: clock, Seed: stepSeed,
				SLOMS: stepSLOMS, QueueDepth: stepDepth, Resilient: adascale.DefaultResilientConfig(),
			})
			admit(t, srv, "cam")
			for _, p := range posts {
				clock.AdvanceTo(p.atMS)
				if _, err := srv.engine.ingest(p.stream, p.frames); err != nil {
					t.Fatal(err)
				}
			}
			srv.Drain()
			return httpLedgers(t, srv, 1), srv.Metrics()
		}},
		{"scheduler", func(t *testing.T) ([]ledger, *obs.Metrics) { return driveDES(t, 2, 1, posts) }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			led, m := d.drive(t)
			if got := m.Counter("frames/panic"); got != 1 {
				t.Fatalf("frames/panic = %d, want 1", got)
			}
			if got := m.Counter("pool/panic_rebuild"); got != 1 {
				t.Fatalf("pool/panic_rebuild = %d, want 1", got)
			}
			s := led[0]
			if s.Offered != frames || s.Offered != s.Served+s.Dropped || s.Dropped != 0 || len(s.Frames) != frames {
				t.Fatalf("ledger %+v with %d frames: want %d offered, all served", s, len(s.Frames), frames)
			}
			for i, fr := range s.Frames {
				if want := map[bool]string{true: "propagate", false: ""}[i == poisoned]; fr.Fallback != want {
					t.Fatalf("frame %d fallback = %q, want %q", i, fr.Fallback, want)
				}
			}
			if got := m.Counter("frames/served"); got != frames {
				t.Fatalf("frames/served = %d, want %d", got, frames)
			}
		})
	}
}
