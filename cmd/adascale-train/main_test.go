package main

import (
	"math"
	"testing"
)

func TestCheckRecipe(t *testing.T) {
	for _, tc := range []struct {
		name   string
		epochs int
		lr     float64
		ok     bool
	}{
		{"defaults", 2, 0.01, true},
		{"one epoch, tiny rate", 1, 1e-9, true},
		{"zero epochs would train the default two", 0, 0.01, false},
		{"negative epochs", -1, 0.01, false},
		{"zero rate", 2, 0, false},
		{"negative rate", 2, -1, false},
		{"NaN rate", 2, math.NaN(), false},
		{"infinite rate", 2, math.Inf(1), false},
	} {
		if err := checkRecipe(tc.epochs, tc.lr); (err == nil) != tc.ok {
			t.Errorf("%s: checkRecipe(%d, %g) = %v, want ok=%v", tc.name, tc.epochs, tc.lr, err, tc.ok)
		}
	}
}
