// Package flow implements block-matching optical flow between grayscale
// frames. Deep Feature Flow (Zhu et al., 2017b) uses a small flow network
// (FlowNet) to propagate deep features from key frames; this package is the
// classical equivalent — sum-of-absolute-differences block search — which
// provides the same interface a learned flow would: a dense-ish motion
// field that can warp boxes and report its own reliability.
package flow

import (
	"fmt"
	"math"

	"adascale/internal/detect"
	"adascale/internal/raster"
)

// Field is a coarse optical-flow field: one (u, v) displacement per
// Block×Block cell of the image the flow was estimated on.
type Field struct {
	// Cols, Rows are the grid dimensions; Block the cell size in pixels.
	Cols, Rows, Block int

	// U, V hold per-cell displacement in pixels (row-major), prev → cur.
	U, V []float32

	// Residual holds the per-cell matched SAD per pixel — a flow-quality
	// signal (high residual = unreliable motion, e.g. occlusion).
	Residual []float32
}

// Estimate computes block-matching flow from prev to cur. Both images must
// have identical dimensions. block is the cell size, radius the maximum
// displacement searched (both in pixels). A malformed frame pair (nil or
// mismatched sizes) returns an error rather than panicking, so one bad
// frame cannot kill a whole evaluation — callers degrade instead (the DFF
// runner propagates unwarped detections).
func Estimate(prev, cur *raster.Image, block, radius int) (*Field, error) {
	if prev == nil || cur == nil {
		return nil, fmt.Errorf("flow: nil frame (prev=%v cur=%v)", prev != nil, cur != nil)
	}
	if prev.W != cur.W || prev.H != cur.H {
		return nil, fmt.Errorf("flow: frame sizes differ (%dx%d vs %dx%d)", prev.W, prev.H, cur.W, cur.H)
	}
	if block < 2 {
		block = 2
	}
	return estimate(prev, cur, block, radius, blockSAD), nil
}

// sadFunc is blockSAD's signature.
type sadFunc func(prev, cur *raster.Image, x0, y0, dx, dy, block int, limit float64) float64

// estimate is Estimate's search on well-formed frames with the block SAD sad:
// blockSAD in Estimate, edgeSAD alone as the oracle FuzzFlowEstimate holds
// it to.
func estimate(prev, cur *raster.Image, block, radius int, sad sadFunc) *Field {
	cols := (prev.W + block - 1) / block
	rows := (prev.H + block - 1) / block
	f := &Field{
		Cols: cols, Rows: rows, Block: block,
		U: make([]float32, cols*rows), V: make([]float32, cols*rows),
		Residual: make([]float32, cols*rows),
	}
	for by := 0; by < rows; by++ {
		for bx := 0; bx < cols; bx++ {
			x0, y0 := bx*block, by*block
			bestDX, bestDY, bestSAD := 0, 0, math.Inf(1)
			// Spiral-free full search: fine for the small radii used here.
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					s := sad(prev, cur, x0, y0, dx, dy, block, bestSAD)
					// Prefer the smaller displacement on ties so static
					// regions report zero motion.
					if s < bestSAD-1e-9 ||
						(s < bestSAD+1e-9 && dx*dx+dy*dy < bestDX*bestDX+bestDY*bestDY) {
						bestSAD, bestDX, bestDY = s, dx, dy
					}
				}
			}
			// Sub-pixel refinement: fit a parabola through the SAD values
			// around the integer optimum on each axis. Without it, the
			// quantisation error of ±0.5 px per estimation accumulates into
			// significant drift when propagating boxes over many frames.
			du := subpixel(
				sad(prev, cur, x0, y0, bestDX-1, bestDY, block, math.Inf(1)),
				bestSAD,
				sad(prev, cur, x0, y0, bestDX+1, bestDY, block, math.Inf(1)),
			)
			dv := subpixel(
				sad(prev, cur, x0, y0, bestDX, bestDY-1, block, math.Inf(1)),
				bestSAD,
				sad(prev, cur, x0, y0, bestDX, bestDY+1, block, math.Inf(1)),
			)
			i := by*cols + bx
			f.U[i] = float32(float64(bestDX) + du)
			f.V[i] = float32(float64(bestDY) + dv)
			f.Residual[i] = float32(bestSAD / float64(block*block))
		}
	}
	return f
}

// blockSAD computes the sum of absolute differences between the block at
// (x0,y0) in prev and the block displaced by (dx,dy) in cur. Out-of-bounds
// pixels are compared against 0.5 (mid-gray), penalising displacements off
// the frame. Aborts early once the running sum exceeds limit.
//
// An interior block — wholly inside prev, and displaced wholly inside cur —
// reads one row slice of each image per row and no pixel needs a bounds
// test; the terms, their order and the per-row abort are edgeSAD's, so the
// sum is the same bit for bit. Other blocks take edgeSAD.
func blockSAD(prev, cur *raster.Image, x0, y0, dx, dy, block int, limit float64) float64 {
	if x0+block > prev.W || y0+block > prev.H || x0+dx < 0 || y0+dy < 0 ||
		x0+dx+block > cur.W || y0+dy+block > cur.H {
		return edgeSAD(prev, cur, x0, y0, dx, dy, block, limit)
	}
	var sad float64
	for y := y0; y < y0+block; y++ {
		pa := prev.Pix[y*prev.W+x0:][:block]
		pb := cur.Pix[(y+dy)*cur.W+x0+dx:][:len(pa)]
		for x, a := range pa {
			d := float64(a - pb[x])
			sad += absSAD(d)
		}
		if sad > limit {
			return math.Inf(1)
		}
	}
	return sad
}

// absSAD is |d| without a branch, which mispredicts on pixel differences
// of either sign: the sign bit is cleared unless d is a NaN, whose bits pass
// through as they did through `if d < 0 { d = -d }` (math.Abs would clear a
// NaN's sign). A −0 becomes +0, which adds to the sum as −0 did.
func absSAD(d float64) float64 {
	u := math.Float64bits(d)
	if d == d {
		u &^= 1 << 63
	}
	return math.Float64frombits(u)
}

// edgeSAD is blockSAD pixel by pixel, bounds-testing each: the loop for
// blocks at the frame's edges.
func edgeSAD(prev, cur *raster.Image, x0, y0, dx, dy, block int, limit float64) float64 {
	var sad float64
	for y := y0; y < y0+block; y++ {
		for x := x0; x < x0+block; x++ {
			var a, b float32
			if x < prev.W && y < prev.H {
				a = prev.Pix[y*prev.W+x]
			} else {
				continue // block hangs off the frame edge; skip those pixels
			}
			cx, cy := x+dx, y+dy
			if cx >= 0 && cx < cur.W && cy >= 0 && cy < cur.H {
				b = cur.Pix[cy*cur.W+cx]
			} else {
				b = 0.5
			}
			d := float64(a - b)
			sad += absSAD(d)
		}
		if sad > limit {
			return math.Inf(1)
		}
	}
	return sad
}

// subpixel returns the parabolic-interpolated offset of the minimum given
// the cost at -1, 0, +1; clamped to [-0.5, 0.5]. Degenerate (flat or
// non-finite) neighbourhoods return 0.
func subpixel(l, c, r float64) float64 {
	if math.IsInf(l, 1) || math.IsInf(r, 1) {
		return 0
	}
	if c <= 1e-9 {
		return 0 // exact match at the integer optimum
	}
	den := l - 2*c + r
	if den <= 1e-12 {
		return 0
	}
	d := 0.5 * (l - r) / den
	if d > 0.5 {
		d = 0.5
	}
	if d < -0.5 {
		d = -0.5
	}
	return d
}

// MeanResidual returns the average per-pixel matching residual — the flow
// quality metric DFF-style systems use to decide how trustworthy
// propagation is.
func (f *Field) MeanResidual() float64 {
	if len(f.Residual) == 0 {
		return 0
	}
	var s float64
	for _, r := range f.Residual {
		s += float64(r)
	}
	return s / float64(len(f.Residual))
}

// WarpBox translates a box (given in the estimation image's coordinates) by
// the mean flow over the cells it covers and returns the result.
func (f *Field) WarpBox(b detect.Box) detect.Box {
	bx0 := int(b.X1) / f.Block
	by0 := int(b.Y1) / f.Block
	bx1 := int(b.X2) / f.Block
	by1 := int(b.Y2) / f.Block
	var du, dv float64
	n := 0
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			if bx < 0 || bx >= f.Cols || by < 0 || by >= f.Rows {
				continue
			}
			du += float64(f.U[by*f.Cols+bx])
			dv += float64(f.V[by*f.Cols+bx])
			n++
		}
	}
	if n == 0 {
		return b
	}
	return b.Shifted(du/float64(n), dv/float64(n))
}
