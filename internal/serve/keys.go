package serve

import (
	"fmt"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/obs"
	"adascale/internal/regressor"
	"adascale/internal/synth"
)

// Every metric name serve records is a constant: a literal at its call site
// or an entry of a table below, built once at init. The registry's key set
// therefore depends only on the code — never on how many streams, frames or
// fault events a run saw — and the per-frame path formats no string.

// scaleKeys holds the "scale/<s>" counter names over the regressor's test
// range, built once: a Core resolves its per-scale handles (stepMetrics)
// from them without formatting (and allocating) a string per run.
var scaleKeys = func() (keys [regressor.MaxScale - regressor.MinScale + 1]string) {
	for i := range keys {
		keys[i] = fmt.Sprintf("scale/%d", regressor.MinScale+i)
	}
	return keys
}()

// faultKeys and fallbackKeys are the "fault/<kind>" and "fallback/<rung>"
// counter names behind Settle's handle tables, built once for the same
// reason: a model-only node settles every frame through a fallback rung.
var faultKeys, fallbackKeys = func() (faults [synth.NumFaultKinds]string, fallbacks [adascale.NumFallbacks]string) {
	for k := range faults {
		faults[k] = "fault/" + synth.FaultKind(k).String()
	}
	for k := range fallbacks {
		fallbacks[k] = "fallback/" + adascale.Fallback(k).String()
	}
	return faults, fallbacks
}()

// stageKeys and sloMissStageKeys are the "stage/<name>/ms" and
// "slo_miss/stage/<name>/ms" histogram names a traced Settle observes for
// each span.
var stageKeys, sloMissStageKeys = func() (all, sloMiss [obs.NumStages]string) {
	for st := range obs.NumStages {
		all[st] = "stage/" + st.String() + "/ms"
		sloMiss[st] = "slo_miss/" + all[st]
	}
	return all, sloMiss
}()

// chaosKeys are the "chaos/<kind>" counter names, one per system fault kind
// the scheduler applies.
var chaosKeys = func() (keys [faults.NumSystemEventKinds]string) {
	for k := range faults.NumSystemEventKinds {
		keys[k] = "chaos/" + k.String()
	}
	return keys
}()

// The "fail/<reason>" counter names, one per way a dispatch is lost.
const (
	failKill     = "fail/kill"
	failBlackout = "fail/blackout"
	failWatchdog = "fail/watchdog"
)

// ScaleKey returns the served-scale counter's name, "scale/<scale>", from
// scaleKeys. Only a scale outside the regressor's range is formatted, and no
// session serves one: every scale it plans is clipped to that range.
func ScaleKey(scale int) string {
	if scale >= regressor.MinScale && scale <= regressor.MaxScale {
		return scaleKeys[scale-regressor.MinScale]
	}
	return fmt.Sprintf("scale/%d", scale)
}
