// Package synth procedurally generates labelled video datasets that stand in
// for ImageNet VID and mini YouTube-BoundingBoxes. Every factor AdaScale
// reacts to is under explicit control: per-class apparent-size
// distributions, texture complexity, object counts, background clutter,
// motion blur, and temporal consistency (objects move smoothly between
// consecutive frames). Ground truth is exact by construction.
//
// Scenes are parametric (boxes + texture descriptions), so frames can be
// rasterised on demand at the paper's native resolution divided by the
// configured render divisor, keeping CPU rendering and the convolutional
// backbone tractable while preserving all relative geometry.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"adascale/internal/detect"
	"adascale/internal/parallel"
	"adascale/internal/raster"
	"adascale/internal/rng"
)

// Object is one tracked object instance in a frame. ID is stable across the
// frames of a snippet, which SeqNMS and the dynamics analysis rely on.
type Object struct {
	ID        int
	Class     int
	Box       detect.Box // native coordinates
	Texture   raster.Texture
	Intensity float32
	Speed     float64 // native px/frame, drives motion blur
}

// Frame is one video frame: native geometry plus rendering parameters.
type Frame struct {
	SnippetID int
	Index     int
	W, H      int
	Objects   []Object
	Clutter   float64 // background clutter density in [0, 1]
	Blur      float64 // motion-blur radius in native px
	seed      int64
	trackSeed int64

	// Fault records the sensor fault injected into this frame
	// (internal/faults); nil means the frame is clean. Objects always
	// holds the *sensed* content — what the detector gets to see.
	Fault *Fault

	// Truth holds the scene's real objects when a fault made the sensed
	// content (Objects) diverge from reality — a dropped/blacked-out frame
	// senses nothing, a stale frame senses an old scene. nil means Objects
	// is the truth. Evaluation always scores against the truth.
	Truth []Object

	// gts caches the GroundTruth conversion; gtsFor witnesses the object
	// slice it was computed from (first element's address + length), so a
	// wholesale replacement of Objects/Truth invalidates the cache and
	// GroundTruth falls back to computing fresh. In-place mutation of an
	// Object's fields is not detected — replace the slice instead.
	gts    []detect.GroundTruth
	gtsFor *Object
}

// TrackSeed returns a seed shared by every frame of the snippet. The
// behavioural detector mixes it into its detection draws so that failures
// are temporally correlated — a detector that misses a hard object tends to
// keep missing it on neighbouring frames rather than flickering randomly.
func (f *Frame) TrackSeed() int64 { return f.trackSeed }

// Seed returns the frame's deterministic randomness base, derived from the
// dataset seed, snippet ID and frame index. The behavioural detector uses
// it so detections are reproducible and consistent across test scales.
func (f *Frame) Seed() int64 { return f.seed }

// GroundTruth converts the frame's real objects to evaluation ground
// truth: the Truth override when a fault made the sensed content diverge
// from the scene, the sensed Objects otherwise.
// The result is cached at generation time (the eval loop asks for it once
// per frame per method); callers must treat it as read-only.
func (f *Frame) GroundTruth() []detect.GroundTruth {
	objs := f.Objects
	if f.Truth != nil {
		objs = f.Truth
	}
	if len(objs) == 0 {
		return nil
	}
	if f.gts != nil && f.gtsFor == &objs[0] && len(f.gts) == len(objs) {
		return f.gts
	}
	gts := make([]detect.GroundTruth, len(objs))
	for i, o := range objs {
		gts[i] = detect.GroundTruth{Box: o.Box, Class: o.Class}
	}
	return gts
}

// cacheGroundTruth fills the GroundTruth cache. Called once per frame at
// generation time, before the frame is shared across goroutines.
func (f *Frame) cacheGroundTruth() {
	f.gts, f.gtsFor = nil, nil
	if gts := f.GroundTruth(); len(gts) > 0 {
		objs := f.Objects
		if f.Truth != nil {
			objs = f.Truth
		}
		f.gts, f.gtsFor = gts, &objs[0]
	}
}

// Snippet is a short video: a sequence of temporally-consistent frames.
type Snippet struct {
	ID     int
	Frames []Frame
}

// ClassProfile describes one object category's statistics. The calibration
// values in vid.go / ytbb.go are derived from the paper's Table 1 so the
// simulator reproduces per-class behaviour shapes.
type ClassProfile struct {
	Name string

	// BaseQuality is the single-scale-trained detector's quality ceiling
	// for this class (≈ target SS/SS AP / 100).
	BaseQuality float64

	// SizeFrac is the mean object shortest side as a fraction of the frame
	// shortest side; SizeSpread is the lognormal sigma around it. Classes
	// that film large (lion close-ups, cats) benefit from down-scaling.
	SizeFrac   float64
	SizeSpread float64

	// Texture is the dominant texture; higher complexity produces more
	// distracting detail at high resolution.
	Texture raster.Texture

	// Clutter in [0,1] is how cluttered scenes containing this class are;
	// clutter spawns false positives whose count grows with test scale.
	Clutter float64

	// MSConfusion in [0,1] is the quality penalty multi-scale training
	// inflicts on this class (the paper observes large drops for red panda
	// and bear).
	MSConfusion float64
}

// Config parameterises dataset generation.
type Config struct {
	Name    string
	Classes []ClassProfile

	// NativeW×NativeH is the nominal video resolution (the paper's VID
	// frames are predominantly 1280×720-ish).
	NativeW, NativeH int

	// RenderDiv divides native resolution when rasterising, keeping CPU
	// rendering and convolution tractable. Geometry is unaffected.
	RenderDiv int

	FramesPerSnippet int
	MaxObjects       int // objects per snippet in [1, MaxObjects]
	Seed             int64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case len(c.Classes) == 0:
		return fmt.Errorf("synth: config %q has no classes", c.Name)
	case c.NativeW <= 0 || c.NativeH <= 0:
		return fmt.Errorf("synth: config %q has invalid native size %dx%d", c.Name, c.NativeW, c.NativeH)
	case c.RenderDiv <= 0:
		return fmt.Errorf("synth: config %q has invalid render divisor %d", c.Name, c.RenderDiv)
	case c.FramesPerSnippet <= 0:
		return fmt.Errorf("synth: config %q has no frames per snippet", c.Name)
	case c.MaxObjects <= 0:
		return fmt.Errorf("synth: config %q allows no objects", c.Name)
	}
	return nil
}

// Dataset is a generated train/val corpus.
type Dataset struct {
	Config Config
	Train  []Snippet
	Val    []Snippet
}

// Frames returns all frames of the given split flattened in order.
func Frames(snippets []Snippet) []*Frame {
	var out []*Frame
	for i := range snippets {
		for j := range snippets[i].Frames {
			out = append(out, &snippets[i].Frames[j])
		}
	}
	return out
}

// Generate builds a dataset with the requested number of train and val
// snippets. Snippet classes cycle round-robin with jitter so every class is
// represented in both splits when counts permit.
//
// Each snippet's scene randomness comes from its own generator seeded by
// (dataset seed, snippet ID), so snippets are independent and generation
// fans out across the worker pool with deterministic, ID-ordered output:
// the same config always produces the same dataset at any worker count.
func Generate(cfg Config, trainSnippets, valSnippets int) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds := &Dataset{Config: cfg}
	n := trainSnippets + valSnippets
	snippets := parallel.Map(n, func(id int) Snippet {
		split := id // index within the train split
		if id >= trainSnippets {
			split = id - trainSnippets
		}
		rng := rand.New(rand.NewSource(snippetSeed(cfg.Seed, id)))
		return genSnippet(&cfg, rng, id, split%len(cfg.Classes))
	})
	ds.Train = snippets[:trainSnippets:trainSnippets]
	ds.Val = snippets[trainSnippets:]
	return ds, nil
}

// snippetSeed derives the per-snippet generator seed; the distinct frame
// tag keeps it independent of every frameSeed stream.
func snippetSeed(base int64, id int) int64 { return frameSeed(base, id, -1337) }

// genSnippet generates one snippet whose primary object has the given
// class; secondary objects draw random classes.
func genSnippet(cfg *Config, rng *rand.Rand, id, primaryClass int) Snippet {
	w, h := float64(cfg.NativeW), float64(cfg.NativeH)
	short := math.Min(w, h)

	nObj := 1 + rng.Intn(cfg.MaxObjects)
	type track struct {
		obj        Object
		vx, vy     float64
		growth     float64 // per-frame multiplicative size drift
		sizeNative float64 // shortest side in native px
		aspect     float64
		cx, cy     float64
		from, to   int // visibility window (frames), inclusive
	}
	tracks := make([]track, nObj)
	clutter := 0.0
	for k := range tracks {
		class := primaryClass
		if k > 0 {
			class = rng.Intn(len(cfg.Classes))
		}
		p := cfg.Classes[class]
		size := p.SizeFrac * math.Exp(rng.NormFloat64()*p.SizeSpread) * short
		size = clampF(size, 0.04*short, 0.92*short)
		aspect := 0.7 + float64(rng.Float64()*0.9)
		speed := rng.Float64() * 0.02 * short
		ang := float64(rng.Float64()) * 2 * math.Pi
		tracks[k] = track{
			obj: Object{
				ID:        k,
				Class:     class,
				Texture:   p.Texture,
				Intensity: float32(0.55 + float64(rng.Float64()*0.4)),
				Speed:     speed,
			},
			vx:         math.Cos(ang) * speed,
			vy:         math.Sin(ang) * speed,
			growth:     1 + float64((float64(rng.Float64())-0.5)*0.02),
			sizeNative: size,
			aspect:     aspect,
			cx:         float64(w*0.15) + float64(rng.Float64()*w*0.7),
			cy:         float64(h*0.15) + float64(rng.Float64()*h*0.7),
			from:       0,
			to:         cfg.FramesPerSnippet - 1,
		}
		// A quarter of the secondary tracks enter or leave mid-snippet
		// (objects walk into and out of real videos) — the failure mode
		// that punishes propagation-based systems like DFF. The primary
		// track stays for the whole snippet so every snippet represents
		// its class.
		if k > 0 && rng.Float64() < 0.25 && cfg.FramesPerSnippet >= 4 {
			half := cfg.FramesPerSnippet / 2
			if rng.Float64() < 0.5 {
				tracks[k].from = 1 + rng.Intn(half) // enters late
			} else {
				tracks[k].to = cfg.FramesPerSnippet - 2 - rng.Intn(half) // leaves early
			}
		}
		clutter += p.Clutter
	}
	clutter = clampF(clutter/float64(nObj)+float64(rng.NormFloat64()*0.08), 0, 1)

	sn := Snippet{ID: id}
	for t := 0; t < cfg.FramesPerSnippet; t++ {
		fr := Frame{
			SnippetID: id,
			Index:     t,
			W:         cfg.NativeW,
			H:         cfg.NativeH,
			Clutter:   clutter,
			seed:      frameSeed(cfg.Seed, id, t),
			trackSeed: frameSeed(cfg.Seed, id, -1),
		}
		maxSpeed := 0.0
		for k := range tracks {
			tr := &tracks[k]
			bw := tr.sizeNative * math.Max(tr.aspect, 1)
			bh := tr.sizeNative * math.Max(1/tr.aspect, 1)
			if t >= tr.from && t <= tr.to {
				fr.Objects = append(fr.Objects, Object{
					ID:        tr.obj.ID,
					Class:     tr.obj.Class,
					Texture:   tr.obj.Texture,
					Intensity: tr.obj.Intensity,
					Speed:     tr.obj.Speed,
					Box: detect.Box{
						X1: tr.cx - float64(bw/2), Y1: tr.cy - float64(bh/2),
						X2: tr.cx + float64(bw/2), Y2: tr.cy + float64(bh/2),
					},
				})
			}
			if tr.obj.Speed > maxSpeed {
				maxSpeed = tr.obj.Speed
			}
			// Advance the track: drift, bounce off frame borders, drift size.
			tr.cx += tr.vx + float64(rng.NormFloat64()*0.002*short)
			tr.cy += tr.vy + float64(rng.NormFloat64()*0.002*short)
			if tr.cx < w*0.1 || tr.cx > w*0.9 {
				tr.vx = -tr.vx
				tr.cx = clampF(tr.cx, w*0.1, w*0.9)
			}
			if tr.cy < h*0.1 || tr.cy > h*0.9 {
				tr.vy = -tr.vy
				tr.cy = clampF(tr.cy, h*0.1, h*0.9)
			}
			tr.sizeNative = clampF(tr.sizeNative*tr.growth, 0.04*short, 0.92*short)
		}
		fr.Blur = maxSpeed * 0.35
		fr.cacheGroundTruth()
		sn.Frames = append(sn.Frames, fr)
	}
	return sn
}

// frameSeed mixes the dataset seed, snippet ID and frame index into a
// deterministic 64-bit seed (splitmix64-style finaliser).
func frameSeed(base int64, snippet, frame int) int64 {
	z := uint64(base) ^ uint64(snippet)*0x9E3779B97F4A7C15 ^ uint64(frame)*0xBF58476D1CE4E5B9
	return int64(rng.Mix64(z) & 0x7FFFFFFFFFFFFFFF)
}

// Render rasterises the frame with its shortest side equal to renderShort
// pixels (longest side capped per the Fast R-CNN protocol scaled by the
// render divisor). The caller chooses renderShort = testScale / RenderDiv.
func (f *Frame) Render(renderShort, maxLongNative, renderDiv int) *raster.Image {
	return f.RenderInto(nil, renderShort, maxLongNative, renderDiv)
}

// RenderInto is Render into caller-owned storage, for a caller that drops
// each render before the next: the image is built in and returned as buf
// (raster.Reuse rules — its pixel storage is kept while the capacity
// suffices, nil allocates). Pixels are bit-identical to Render's whatever
// buf held.
func (f *Frame) RenderInto(buf *raster.Image, renderShort, maxLongNative, renderDiv int) *raster.Image {
	// ScaleFactor maps native → test space (shortest side renderShort·div,
	// longest capped at maxLongNative); dividing by the render divisor
	// yields the native → render-space factor.
	factor := raster.ScaleFactor(f.W, f.H, renderShort*renderDiv, maxLongNative) / float64(renderDiv)
	rw := int(math.Round(float64(f.W) * factor))
	rh := int(math.Round(float64(f.H) * factor))
	if rw < 1 {
		rw = 1
	}
	if rh < 1 {
		rh = 1
	}
	im := raster.Reuse(buf, rw, rh) // not cleared: both paths below write every pixel
	r := renderRng.Get().(*rng.Rand)
	defer renderRng.Put(r)
	r.Seed(f.seed)

	// Dropped/blacked-out frames carry no scene content: a black image
	// (with residual sensor noise for a blackout) is what the feature
	// extractor — and any mean-intensity fault check — actually sees.
	if f.Fault != nil && (f.Fault.Kind == FaultDrop || f.Fault.Kind == FaultBlackout) {
		clear(im.Pix)
		if f.Fault.Kind == FaultBlackout {
			im.AddNoise(r, 0.01)
		}
		return im
	}

	// Background: base level with a soft vertical gradient.
	for y := 0; y < rh; y++ {
		v := float32(0.3 + 0.1*float64(y)/float64(rh))
		row := im.Pix[y*rw:][:rw]
		for x := range row {
			row[x] = v
		}
	}
	// Clutter: small high-contrast distractors whose count scales with the
	// clutter level. Drawn under the objects.
	nClutter := int(f.Clutter * 40)
	for i := 0; i < nClutter; i++ {
		cx := float64(r.Float64() * float64(rw))
		cy := float64(r.Float64() * float64(rh))
		s := (2 + float64(r.Float64()*6)) * float64(rw) / 160
		tex := raster.Texture(r.Intn(5))
		im.DrawRect(cx-float64(s/2), cy-float64(s/2), cx+float64(s/2), cy+float64(s/2), tex, float32(0.15+float64(r.Float64()*0.8)), 2)
	}
	// Objects.
	for _, o := range f.Objects {
		b := o.Box.Scaled(factor)
		period := math.Max(2, b.W()/7)
		im.DrawEllipse(b.X1, b.Y1, b.X2, b.Y2, o.Texture, o.Intensity, period)
	}
	// Motion blur and sensor noise.
	im.BoxBlurInPlace(int(math.Round(f.Blur * factor)))
	noise := 0.015
	if f.Fault != nil {
		switch f.Fault.Kind {
		case FaultNoise:
			noise += float64(0.2 * f.Fault.Severity)
		case FaultOverexpose:
			// Push pixels toward saturation before the final clamp.
			sev := float32(f.Fault.Severity)
			for i, v := range im.Pix {
				im.Pix[i] = v + float32(sev*(1.2-v))
			}
		}
	}
	im.AddNoise(r, noise)
	return im
}

// renderRng pools the per-render random generator. Render fully re-seeds
// the generator before any draw, so a recycled instance produces the stream
// of a fresh rand.New(rand.NewSource(seed)). The seed is free (rng.Seed
// computes no state word), so what a render pays is its draws — and every
// one of them, in this order, is part of the pixels: skipping or reordering a
// draw to save time changes the rest of the frame.
var renderRng = sync.Pool{New: func() any { return rng.New(1) }}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
