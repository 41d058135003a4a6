package flow

import (
	"testing"

	"adascale/internal/detect"
	"adascale/internal/raster"
)

// TestEstimateRejectsMalformedPairs: nil or size-mismatched frames must
// error, not panic — the DFF runner degrades on these instead of dying.
func TestEstimateRejectsMalformedPairs(t *testing.T) {
	im := raster.New(8, 8)
	other := raster.New(8, 6)
	cases := []struct {
		name      string
		prev, cur *raster.Image
	}{
		{"nil prev", nil, im},
		{"nil cur", im, nil},
		{"both nil", nil, nil},
		{"height mismatch", im, other},
		{"width mismatch", raster.New(6, 8), im},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if f, err := Estimate(tc.prev, tc.cur, 4, 1); err == nil {
				t.Fatalf("Estimate accepted malformed pair, returned %+v", f)
			}
		})
	}
}

// TestEstimateDegenerateGeometry: a 1×1 frame, a block larger than the
// frame, and a sub-minimum block size must all produce a well-formed field
// (single cell, zero motion for identical frames) rather than dividing by
// zero or indexing out of range.
func TestEstimateDegenerateGeometry(t *testing.T) {
	cases := []struct {
		name          string
		w, h          int
		block, radius int
		wantCols      int
		wantRows      int
	}{
		{"1x1 frame", 1, 1, 4, 1, 1, 1},
		{"block larger than frame", 4, 4, 16, 1, 1, 1},
		{"block below minimum", 6, 6, 1, 1, 3, 3}, // block clamps to 2
		{"single row", 9, 1, 3, 2, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im := raster.New(tc.w, tc.h)
			for i := range im.Pix {
				im.Pix[i] = 0.25
			}
			f, err := Estimate(im, im, tc.block, tc.radius)
			if err != nil {
				t.Fatal(err)
			}
			if f.Cols != tc.wantCols || f.Rows != tc.wantRows {
				t.Fatalf("grid %dx%d, want %dx%d", f.Cols, f.Rows, tc.wantCols, tc.wantRows)
			}
			if n := f.Cols * f.Rows; len(f.U) != n || len(f.V) != n || len(f.Residual) != n {
				t.Fatalf("field slices sized %d/%d/%d, want %d", len(f.U), len(f.V), len(f.Residual), n)
			}
			// Identical frames: zero motion everywhere (ties prefer the
			// smaller displacement), zero residual.
			for i := range f.U {
				if f.U[i] != 0 || f.V[i] != 0 {
					t.Fatalf("cell %d reports motion (%v, %v) between identical frames", i, f.U[i], f.V[i])
				}
				if f.Residual[i] != 0 {
					t.Fatalf("cell %d residual %v between identical frames", i, f.Residual[i])
				}
			}
		})
	}
}

// TestFieldAtBorderCells pins which cells WarpBox averages for a box at or
// past the field's border: only the cells inside the field that the box
// covers, so a box hanging off an edge moves with the border cell under it.
// (The name is kept from when it pinned the per-cell lookup's clamp, which
// WarpBox's border handling replaced; its subtests are the same five.)
func TestFieldAtBorderCells(t *testing.T) {
	f := &Field{Cols: 2, Rows: 2, Block: 4,
		U: []float32{1, 2, 3, 4}, V: []float32{10, 20, 30, 40},
		Residual: make([]float32, 4)}
	cases := []struct {
		name  string
		box   detect.Box
		wantU float64
	}{
		{"inside first cell", detect.Box{X1: 0, Y1: 0, X2: 3, Y2: 3}, 1},
		{"negative coords", detect.Box{X1: -100, Y1: -100, X2: 3, Y2: 3}, 1},
		{"past right edge", detect.Box{X1: 4, Y1: 0, X2: 1000, Y2: 3}, 2},
		{"past bottom edge", detect.Box{X1: 0, Y1: 4, X2: 3, Y2: 1000}, 3},
		{"past both edges", detect.Box{X1: 4, Y1: 4, X2: 1000, Y2: 1000}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := f.WarpBox(tc.box), tc.box.Shifted(tc.wantU, tc.wantU*10); got != want {
				t.Fatalf("WarpBox(%v) = %v, want %v", tc.box, got, want)
			}
		})
	}
}

// TestEmptyFieldStats: the zero-cell field (never produced by Estimate, but
// reachable through manual construction) must not divide by zero.
func TestEmptyFieldStats(t *testing.T) {
	f := &Field{Block: 4}
	if got := f.MeanResidual(); got != 0 { // NaN fails this too
		t.Fatalf("MeanResidual on empty field = %v", got)
	}
}
