package rfcn

import "math"

// The behavioural response model. A CNN detector is competent over a band
// of apparent object sizes (pixels at the tested scale): below the band the
// RPN's smallest anchor (128 px in the paper, with proposals degrading well
// before that) under-covers the object; above it the object exceeds the
// receptive field / anchor range and confidence drops. The paper's key
// observation — down-sampling sometimes *increases* accuracy — falls out of
// this band: over-large objects re-enter it when the image shrinks
// (source (ii) in Sec. 1), and high-resolution distracting detail that
// spawns false positives disappears (source (i)).

// Single-scale (600) training response band, in apparent pixels.
const (
	ssSizeLo      = 45.0  // lower band edge
	ssSizeLoWidth = 12.0  // lower edge softness
	ssSizeHi      = 330.0 // upper band edge
	ssSizeHiWidth = 70.0  // upper edge softness
)

// Multi-scale training effects.
const (
	// msQualityTax is the peak-quality cost of spreading model capacity
	// over scales (why MS/SS mAP dips below SS/SS in Table 1).
	msQualityTax = 0.05

	// msUpperWidth widens the upper band edge: the detector has seen each
	// object at several apparent sizes.
	msUpperWidth = 90.0

	blurPenaltyCoeff = 0.015
)

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// plateau is a soft band-pass over apparent size a, normalised so its peak
// is exactly 1 — BaseQuality then maps directly to in-band detectability.
func plateau(a, lo, loW, hi, hiW float64) float64 {
	return rawPlateau(a, lo, loW, hi, hiW) / plateauPeak(lo, loW, hi, hiW)
}

func rawPlateau(a, lo, loW, hi, hiW float64) float64 {
	return sigmoid((a-lo)/loW) * sigmoid((hi-a)/hiW)
}

// plateauPeak finds the band-pass maximum by grid search between the edges.
func plateauPeak(lo, loW, hi, hiW float64) float64 {
	peak := 0.0
	for i := 0; i <= 64; i++ {
		a := lo + float64((hi-lo)*float64(i)/64)
		if v := rawPlateau(a, lo, loW, hi, hiW); v > peak {
			peak = v
		}
	}
	if peak <= 0 {
		return 1
	}
	return peak
}

// sizeResponse returns the detectability multiplier for an object of
// apparent size a under a detector trained at the given scales.
func sizeResponse(a float64, trainScales []int) float64 {
	if len(trainScales) <= 1 {
		return plateau(a, ssSizeLo, ssSizeLoWidth, ssSizeHi, ssSizeHiWidth)
	}
	// Multi-scale training shows each object at sizes down to
	// native·(s_min/600), pushing the competent band's lower edge down
	// proportionally (partially — small objects remain intrinsically hard).
	smin := minScale(trainScales)
	lo := ssSizeLo * (0.35 + 0.65*float64(smin)/600.0)
	return plateau(a, lo, ssSizeLoWidth, ssSizeHi+25, msUpperWidth)
}

// fpTrainingFactor scales the false-positive rate by training diversity:
// multi-scale training stops the classifier from using absolute scale as a
// discriminative feature, which the paper's Fig. 6 shows slashes false
// positives.
func fpTrainingFactor(trainScales []int) float64 {
	switch len(trainScales) {
	case 0, 1:
		return 1.0
	case 2:
		return 0.72
	case 3:
		return 0.58
	default:
		return 0.48
	}
}

// blurPenalty models motion blur / camera-focus failure: blur measured in
// test-scale pixels mildly suppresses confidence.
func blurPenalty(blurTestPx float64) float64 {
	return 1 / (1 + float64(blurPenaltyCoeff*blurTestPx))
}

// scaleFamiliarity penalises testing at scales the detector never saw in
// training — the paper's core premise that CNN detectors are not
// scale-invariant. Inside the convex hull of the training scales the
// penalty is mild (interpolation); outside it grows with distance. This is
// what makes AdaScale on a {600}-only detector learn to stay near 600
// (Table 2's last column) while the full S_train lets it roam.
func scaleFamiliarity(m int, trainScales []int) float64 {
	lo, hi := trainScales[0], trainScales[0]
	dNear := math.Inf(1)
	for _, s := range trainScales {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
		if d := math.Abs(float64(m - s)); d < dNear {
			dNear = d
		}
	}
	if m >= lo && m <= hi {
		return 1 - float64(0.12*math.Min(1, dNear/200))
	}
	return 1 - float64(0.2*math.Min(1, dNear/400))
}

func minScale(scales []int) int {
	m := scales[0]
	for _, s := range scales[1:] {
		if s < m {
			m = s
		}
	}
	return m
}
