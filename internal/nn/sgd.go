package nn

import "adascale/internal/tensor"

// SGD implements stochastic gradient descent with classical momentum and
// optional L2 weight decay, matching the optimiser used by the paper's
// MXNet training recipe.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Tensor
}

// NewSGD creates an optimiser with the given base learning rate and
// momentum 0.9, the Fast R-CNN / R-FCN default.
func NewSGD(lr float64) *SGD {
	return &SGD{LR: lr, Momentum: 0.9, velocity: make(map[*Param]*tensor.Tensor)}
}

// Step applies one update to every parameter from its accumulated gradient,
// then leaves the gradients untouched (call ZeroGrads before the next
// accumulation).
func (s *SGD) Step(params []*Param) {
	lr := float32(s.LR)
	mom := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for _, p := range params {
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.W.Shape()...)
			s.velocity[p] = v
		}
		vd, gd, wdta := v.Data(), p.Grad.Data(), p.W.Data()
		for i := range wdta {
			// Each product is rounded before its sum (float32(…)), so no
			// architecture fuses a multiply-add here.
			g := gd[i]
			if wd != 0 {
				g += float32(wd * wdta[i])
			}
			vd[i] = float32(mom*vd[i]) - float32(lr*g)
			wdta[i] += vd[i]
		}
	}
}

// StepSchedule is a piecewise-constant learning-rate schedule: the base
// rate is divided by Factor at each listed fraction of total training
// progress. The paper divides by 10 after 1.3/2 epochs for the regressor
// and after 1.3 and 2.6 of 4 epochs for detector fine-tuning.
type StepSchedule struct {
	Base   float64
	Drops  []float64 // progress fractions in [0,1] at which LR /= Factor
	Factor float64   // divisor applied at each drop (default 10)
}

// LR returns the learning rate at the given progress fraction in [0,1].
func (s StepSchedule) LR(progress float64) float64 {
	f := s.Factor
	if f == 0 {
		f = 10
	}
	lr := s.Base
	for _, d := range s.Drops {
		if progress >= d {
			lr /= f
		}
	}
	return lr
}
