package serve

import (
	"fmt"

	"adascale/internal/adascale"
	"adascale/internal/regressor"
	"adascale/internal/synth"
)

// scaleKeys holds the "scale/<s>" counter names over the regressor's test
// range, built once: the per-frame path then names its scale counter
// without formatting (and allocating) a string per served frame.
var scaleKeys = func() (keys [regressor.MaxScale - regressor.MinScale + 1]string) {
	for i := range keys {
		keys[i] = fmt.Sprintf("scale/%d", regressor.MinScale+i)
	}
	return keys
}()

// faultKeys and fallbackKeys are the "fault/<kind>" and "fallback/<rung>"
// counter names Settle increments, built once for the same reason: a
// model-only node settles every frame through a fallback rung.
var faultKeys, fallbackKeys = func() (faults [synth.NumFaultKinds]string, fallbacks [adascale.NumFallbacks]string) {
	for k := range faults {
		faults[k] = "fault/" + synth.FaultKind(k).String()
	}
	for k := range fallbacks {
		fallbacks[k] = "fallback/" + adascale.Fallback(k).String()
	}
	return faults, fallbacks
}()

// ScaleKey returns the served-scale counter's name, "scale/<scale>" — the
// one spelling the scheduler and the HTTP engine (internal/server) share.
func ScaleKey(scale int) string {
	if scale >= regressor.MinScale && scale <= regressor.MaxScale {
		return scaleKeys[scale-regressor.MinScale]
	}
	return fmt.Sprintf("scale/%d", scale)
}
