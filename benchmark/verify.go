package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"adascale"
	"adascale/internal/detect"
	"adascale/internal/raster"
	"adascale/internal/synth"
)

// Output verification shared by the workloads: order-sensitive digests of
// served outputs, the S_reg scale bounds, and the reference session that
// http_closed results are compared against.

const (
	minScale = 128 // S_reg's smallest scale, Algorithm 1's lower clip
	maxScale = 600
)

// digest accumulates an FNV-1a hash over integers and exact float bits.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) float(v float64) { d.int(int(math.Float64bits(v))) }

func (d digest) string(s string) { d.h.Write([]byte(s)) }

func (d digest) detection(class int, score, x1, y1, x2, y2 float64) {
	d.int(class)
	for _, v := range [...]float64{score, x1, y1, x2, y2} {
		d.float(v)
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// frameDigest identifies one served frame's output.
type frameDigest struct {
	index, scale int
	dets         uint64
}

func digestDetections(dets []adascale.Detection) uint64 {
	d := newDigest()
	for _, det := range dets {
		d.detection(det.Class, det.Score, det.Box.X1, det.Box.Y1, det.Box.X2, det.Box.Y2)
	}
	return d.sum()
}

// digestOutputs hashes an output stream in order: frame identity, tested
// scale and every detection.
func digestOutputs(outs []adascale.FrameOutput) uint64 {
	d := newDigest()
	for i := range outs {
		d.int(outs[i].Frame.SnippetID)
		d.int(outs[i].Frame.Index)
		d.int(outs[i].Scale)
		d.int(int(digestDetections(outs[i].Detections)))
	}
	return d.sum()
}

// countScales adds the outputs' tested scales to hist and reports the first
// scale outside the S_reg bounds, if any.
func countScales(hist map[int]int, outs []adascale.FrameOutput) (bad int, ok bool) {
	ok = true
	for i := range outs {
		s := outs[i].Scale
		hist[s]++
		if ok && (s < minScale || s > maxScale) {
			bad, ok = s, false
		}
	}
	return bad, ok
}

// sameDigests verifies that every segment of a deterministic workload
// produced the same outputs.
func (w *window) sameDigests(name string, digests []uint64) {
	for i, d := range digests {
		if d != digests[0] {
			w.verify(name, false, fmt.Sprintf("segment %d digest %016x differs from segment 0 %016x", i, d, digests[0]))
			return
		}
	}
	w.verify(name, true, "")
}

// materialise rebuilds a frame from its wire form exactly as the server
// does: synth.NewFrame over the server seed, the stream and the index.
func materialise(serverSeed int64, stream, index int, spec wireFrame) *adascale.Frame {
	objs := make([]synth.Object, len(spec.Objects))
	for j, o := range spec.Objects {
		intensity := o.Intensity
		if intensity == 0 {
			intensity = 0.8 // the wire format's default
		}
		objs[j] = synth.Object{
			ID: o.ID, Class: o.Class,
			Box:       detect.Box{X1: o.X1, Y1: o.Y1, X2: o.X2, Y2: o.Y2},
			Texture:   raster.Texture(o.Texture),
			Intensity: float32(intensity),
			Speed:     o.Speed,
		}
	}
	fr := synth.NewFrame(serverSeed, synth.FrameSpec{
		Stream: stream, Index: index, W: spec.W, H: spec.H,
		Objects: objs, Clutter: spec.Clutter, Blur: spec.Blur,
	})
	return &fr
}

// referenceDigests drives a resilient session directly over the frames an
// HTTP stream was sent and returns what the server must have answered. It
// is the reference implementation the http_closed results are held to.
func referenceDigests(sys *adascale.System, serverSeed int64, stream int, specs []wireFrame) []frameDigest {
	det, reg := sys.Detector.Clone(), sys.Regressor.Clone()
	sess := adascale.NewResilientSession(reg.Kernels, adascale.DefaultResilientConfig())
	out := make([]frameDigest, len(specs))
	for i, spec := range specs {
		o := sess.Step(det, reg, materialise(serverSeed, stream, i, spec))
		out[i] = frameDigest{index: i, scale: o.Scale, dets: digestDetections(o.Detections)}
	}
	return out
}
