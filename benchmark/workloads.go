package main

// workload is one set of inputs the benchmark runs. The names are the
// contract later changes cite; the reasons are recorded in BENCHMARK.json
// and the README.
type workload struct {
	name    string
	prepare func(e *env) (instance, error)
}

// instance is a prepared workload: everything up to "ready to serve" is
// done (and timed as set-up) before the first measure call.
type instance interface {
	// measure runs the workload for about seconds of measured time after an
	// unmeasured warm-up and returns what it observed. A non-nil recorder
	// turns tracing on: the workload records a span around each call it
	// makes into the system.
	measure(seconds float64, rec *recorder) (*window, error)

	// finish ends the workload and adds the end-of-run checks (conservation
	// after drain) to w. It is also called, with a nil window, to discard
	// an instance that was only prepared.
	finish(w *window)
}

var workloads = []workload{
	{"offline_eval", prepareOfflineEval},
	{"http_closed", prepareHTTPClosed},
	{"http_fanin", prepareHTTPFanIn},
	{"des_serve", prepareDESServe},
	{"cluster_model", prepareClusterModel},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
