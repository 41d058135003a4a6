package experiments

import (
	"fmt"
	"io"

	"adascale/internal/adascale"
	"adascale/internal/detect"
	"adascale/internal/raster"
	"adascale/internal/synth"
)

// Fig9Clip is one crafted clip with the per-frame scales AdaScale chose.
type Fig9Clip struct {
	Name   string
	Scales []int
}

// Fig9Result reproduces the paper's scale-dynamics investigation: AdaScale
// should (i) stably down-sample a clip with one large object, (ii) stay at
// high scales for a small object, and (iii) jitter when multiple objects of
// very different sizes share the frame.
type Fig9Result struct {
	Clips []Fig9Clip
}

// Fig9 builds the three characteristic clips and runs Algorithm 1 on each.
func (b *Bundle) Fig9() *Fig9Result {
	sys := b.DefaultSystem()
	cfg := b.DS.Config
	cfg.FramesPerSnippet = 16
	cfg.Seed += 999

	mkClip := func(name string, sizes []float64) Fig9Clip {
		tmp, _ := synth.Generate(cfg, 1, 0)
		sn := &tmp.Train[0]
		for i := range sn.Frames {
			f := &sn.Frames[i]
			f.Clutter = 0.5
			f.Blur = 0
			var objs []synth.Object
			for k, size := range sizes {
				cx := float64(float64(f.W) * (0.25 + 0.5*float64(k)/float64(len(sizes))))
				cy := float64(float64(f.H) * 0.5)
				// Gentle drift keeps temporal consistency realistic.
				cx += float64(float64(i) * 3)
				objs = append(objs, synth.Object{
					ID: k, Class: (k * 7) % len(cfg.Classes), Texture: raster.TextureStripes,
					Intensity: 0.8,
					Box: detect.Box{
						X1: cx - float64(size/2), Y1: cy - float64(size/2),
						X2: cx + float64(size/2), Y2: cy + float64(size/2),
					},
				})
			}
			f.Objects = objs
		}
		outs := adascale.RunAdaScale(sys.Detector, sys.Regressor, sn)
		scales := make([]int, len(outs))
		for i, o := range outs {
			scales[i] = o.Scale
		}
		return Fig9Clip{Name: name, Scales: scales}
	}

	return &Fig9Result{Clips: []Fig9Clip{
		mkClip("single large object", []float64{480}),
		mkClip("single small object", []float64{90}),
		mkClip("mixed sizes", []float64{440, 100}),
	}}
}

// Print writes the per-frame scale traces.
func (f *Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 9: AdaScale scale dynamics over three characteristic clips")
	for _, c := range f.Clips {
		fmt.Fprintf(w, "%-22s %v  (mean %.0f, spread %d)\n", c.Name, c.Scales, meanInt(c.Scales), spread(c.Scales))
	}
	fmt.Fprintln(w, "(paper: stable low scale for large objects, stable high scale for small, jitter for mixed sizes)")
	fmt.Fprintln(w)
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// spread is max-min, a crude jitter measure (the first frame is always 600
// by Algorithm 1 and is excluded).
func spread(xs []int) int {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[1], xs[1]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
