package rfcn

import (
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
// nonlinearity is the magnitude |x| (see layer).
//
// A Backbone is not safe for concurrent use (layers cache activations);
// create one per goroutine via NewBackbone.
type Backbone struct {
	conv1, conv2, conv3 *nn.Conv2D

	// pool recycles the feature-map buffers across Extract calls so
	// steady-state serving allocates nothing here. Per-backbone (and the
	// parallel runners clone per worker), so Get/Put never contend.
	pool *tensor.Pool

	// xhdr and app are the reusable headers wrapping the input image and
	// the appearance planes of the map extractInto fills (Backbone is
	// single-goroutine by contract, so one of each suffices).
	xhdr, app *tensor.Tensor
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
	h, w := b.featureSize(im)
	out := b.pool.GetTensor(backboneChannels, h, w)
	b.extractInto(out, im)
	return out
}

// featureSize is the h×w of the feature map the backbone extracts from im.
func (b *Backbone) featureSize(im *raster.Image) (h, w int) {
	h, w = im.H, im.W
	for _, c := range [...]*nn.Conv2D{b.conv1, b.conv2, b.conv3} {
		h, w = tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad), tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)
	}
	return h, w
}

// extractInto writes Extract's appearance planes into the first
// backboneChannels planes of dst, a C×h×w map of im's featureSize; the
// planes after them are left as they are. conv3 stores straight into dst
// and featureGain is applied there, so no plane is copied.
func (b *Backbone) extractInto(dst *tensor.Tensor, im *raster.Image) {
	// Wrapping im.Pix is safe: the convolutions only read their input and
	// nothing below retains x.
	x := tensor.FromSliceInto(b.xhdr, im.Pix, 1, im.H, im.W)
	b.xhdr = x
	t1 := b.layer(b.conv1, x)
	t2 := b.layer(b.conv2, t1)
	b.pool.PutTensor(t1)
	h, w := dst.Dim(1), dst.Dim(2)
	app := tensor.FromSliceInto(b.app, dst.Data()[:backboneChannels*h*w], backboneChannels, h, w)
	b.app = app
	tensor.ConvAbsInto(app, t2, b.conv3.Weight.W, b.conv3.Bias.W, b.conv3.Stride, b.conv3.Pad)
	b.pool.PutTensor(t2)
	app.ScaleInPlace(featureGain)
}

// layer runs conv c over x into pooled storage, rectified by magnitude. The
// nonlinearity is |x| rather than ReLU: edge polarity is irrelevant for
// size/texture energy, and rectifying by magnitude keeps twice the signal
// for the frozen random projections. ConvAbsInto applies it as the
// convolution stores each element, by clearing the sign bit rather than
// branching on the sign (which on random-signed activations mispredicts
// every other element).
func (b *Backbone) layer(c *nn.Conv2D, x *tensor.Tensor) *tensor.Tensor {
	out := b.pool.GetTensor(c.OutC, tensor.ConvOutSize(x.Dim(1), c.Kernel, c.Stride, c.Pad), tensor.ConvOutSize(x.Dim(2), c.Kernel, c.Stride, c.Pad))
	tensor.ConvAbsInto(out, x, c.Weight.W, c.Bias.W, c.Stride, c.Pad)
	return out
}

// Recycle returns a tensor obtained from Extract (or Detector.Features)
// to the backbone's buffer pool. The tensor must not be used afterwards.
func (b *Backbone) Recycle(t *tensor.Tensor) { b.pool.PutTensor(t) }
