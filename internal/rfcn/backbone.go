package rfcn

import (
	"math"
	"math/rand"

	"adascale/internal/nn"
	"adascale/internal/raster"
	"adascale/internal/tensor"
)

// Deep-feature layout. A real detector's last convolutional layer encodes
// both image appearance and the size/placement evidence its heads decode
// boxes from; here the first backboneChannels planes carry appearance
// (conv stack below) and the last detChannels planes carry size-selective
// response maps rasterised from the detector's own outputs (rfcn.go) — the
// honest equivalent of what R-FCN's position-sensitive score maps contain.
const (
	backboneChannels = 12
	detChannels      = 4

	// FeatureChannels is the depth of the full deep-feature map — the
	// "deep features" of Fig. 4 that the scale regressor reads.
	FeatureChannels = backboneChannels + detChannels
)

// backboneStride is the total spatial down-sampling of the backbone.
const backboneStride = 8

// backboneSeed fixes the random projection filters; the backbone is
// "pre-trained and frozen", mirroring the paper's setup where only the
// scale-regressor module trains (Sec. 4.2).
const backboneSeed = 0x777

// Backbone is a small frozen convolutional feature extractor. The first
// layer uses hand-designed oriented-edge / centre-surround / smoothing
// filters so the features carry interpretable size and texture energy; the
// deeper layers are fixed random projections (extreme-learning style),
// which preserve information for the trainable regressor head. The
// nonlinearity is the magnitude |x| rather than ReLU: edge polarity is
// irrelevant for size/texture energy and rectifying by magnitude keeps
// twice the signal for the frozen random projections.
//
// A Backbone is not safe for concurrent use (layers cache activations);
// create one per goroutine via NewBackbone.
type Backbone struct {
	conv1, conv2, conv3 *nn.Conv2D

	// pool recycles the feature-map buffers across Extract calls so
	// steady-state serving allocates nothing here. Per-backbone (and the
	// parallel runners clone per worker), so Get/Put never contend.
	pool *tensor.Pool

	// xhdr is the reusable header wrapping the input image for Extract
	// (Backbone is single-goroutine by contract, so one suffices).
	xhdr *tensor.Tensor
}

// featureGain rescales the final feature map so globally-pooled values land
// around O(0.1–1), where the regressor head trains well.
const featureGain = 8

// NewBackbone builds the frozen extractor with deterministic weights.
func NewBackbone() *Backbone {
	rng := rand.New(rand.NewSource(backboneSeed))
	b := &Backbone{
		conv1: nn.NewConv2D(rng, 1, 8, 3, 2, 1),
		conv2: nn.NewConv2D(rng, 8, backboneChannels, 3, 2, 1),
		conv3: nn.NewConv2D(rng, backboneChannels, backboneChannels, 3, 2, 1),
		pool:  tensor.NewPool(),
	}
	b.installEdgeFilters()
	return b
}

// installEdgeFilters overwrites conv1 with hand-designed kernels:
// horizontal, vertical and two diagonal edges, a Laplacian
// (centre-surround), a box smoother, and two seeded random filters.
func (b *Backbone) installEdgeFilters() {
	k := [][9]float32{
		{-1, -1, -1, 0, 0, 0, 1, 1, 1},                // horizontal edge
		{-1, 0, 1, -1, 0, 1, -1, 0, 1},                // vertical edge
		{0, 1, 1, -1, 0, 1, -1, -1, 0},                // diagonal /
		{1, 1, 0, 1, 0, -1, 0, -1, -1},                // diagonal \
		{0, -1, 0, -1, 4, -1, 0, -1, 0},               // Laplacian
		{.11, .11, .11, .11, .11, .11, .11, .11, .11}, // box smoother
	}
	w := b.conv1.Weight.W
	for f := range k {
		for i, v := range k[f] {
			w.Data()[f*9+i] = v * 0.5
		}
	}
	b.conv1.Bias.W.Zero()
}

// Clone returns an independent backbone with identical (frozen) weights
// and empty activation caches, safe to use from another goroutine.
func (b *Backbone) Clone() *Backbone {
	return &Backbone{
		conv1: b.conv1.Clone(),
		conv2: b.conv2.Clone(),
		conv3: b.conv3.Clone(),
		pool:  tensor.NewPool(),
	}
}

// Extract converts a rendered grayscale image to a backboneChannels×h×w
// appearance feature map, where h ≈ H/8 and w ≈ W/8 of the input image.
// Detector.Features stacks the detection-response planes on top.
// The returned tensor is backed by the backbone's buffer pool: the caller
// owns it and should hand it back via Recycle once done (keeping it
// forever is safe, it just isn't recycled).
func (b *Backbone) Extract(im *raster.Image) *tensor.Tensor {
	// Wrapping im.Pix is safe: the convolutions only read their input and
	// nothing below retains x.
	x := tensor.FromSliceInto(b.xhdr, im.Pix, 1, im.H, im.W)
	b.xhdr = x
	t1 := abs(b.conv1.Infer(x, b.pool))
	t2 := abs(b.conv2.Infer(t1, b.pool))
	b.pool.PutTensor(t1)
	t3 := abs(b.conv3.Infer(t2, b.pool))
	b.pool.PutTensor(t2)
	t3.ScaleInPlace(featureGain)
	return t3
}

// Recycle returns a tensor obtained from Extract (or Detector.Features)
// to the backbone's buffer pool. The tensor must not be used afterwards.
func (b *Backbone) Recycle(t *tensor.Tensor) { b.pool.PutTensor(t) }

// abs rectifies a tensor by magnitude in place and returns it. It clears
// the float32 sign bit rather than branching on the sign, which on
// random-signed activations mispredicts every other element; so -0 becomes
// +0 and a NaN loses its sign. Neither reaches it from the backbone: a
// convolution of finite values never yields -0 (tensor/conv.go).
func abs(t *tensor.Tensor) *tensor.Tensor {
	d := t.Data()
	for i, v := range d {
		d[i] = math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
	}
	return t
}
