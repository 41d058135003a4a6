package serve

import (
	"fmt"

	"adascale/internal/regressor"
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

// ScaleKey returns the served-scale counter's name, "scale/<scale>" — the
// one spelling the scheduler and the HTTP engine (internal/server) share.
func ScaleKey(scale int) string {
	if scale >= regressor.MinScale && scale <= regressor.MaxScale {
		return scaleKeys[scale-regressor.MinScale]
	}
	return fmt.Sprintf("scale/%d", scale)
}
