package nn

import "math"

// SmoothL1Scalar is the Huber-style smooth-L1 loss used for bounding-box
// regression in Fast R-CNN and R-FCN (Eq. 1's L_reg term):
//
//	0.5·x²        if |x| < 1
//	|x| - 0.5     otherwise
func SmoothL1Scalar(x float64) float64 {
	if x < 0 {
		x = -x
	}
	if x < 1 {
		return 0.5 * x * x
	}
	return x - 0.5
}

// CrossEntropy returns -log p[label] for a probability vector p, clamping
// probabilities to avoid infinities. Used by the optimal-scale metric to
// score classification confidence (Eq. 1's L_cls term).
func CrossEntropy(p []float64, label int) float64 {
	q := p[label]
	if q < 1e-12 {
		q = 1e-12
	}
	return -math.Log(q)
}
