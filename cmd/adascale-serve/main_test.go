package main

import (
	"math"
	"testing"
)

func TestCheckRate(t *testing.T) {
	for _, tc := range []struct {
		v  float64
		ok bool
	}{
		{0, true},
		{0.2, true},
		{1.5, true},
		{-0.5, false},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		if err := checkRate("-chaos", tc.v); (err == nil) != tc.ok {
			t.Errorf("checkRate(-chaos, %g) = %v, want ok=%v", tc.v, err, tc.ok)
		}
	}
}
