package main

import "adascale/internal/parallel"

// probeParallel times a no-op job's round trip through the worker pool:
// submit, run, completion signalled back — the hand-off every served frame
// pays on top of its compute.
func probeParallel(p *prober) error {
	pool := parallel.NewPool(p.e.nproc, func() struct{} { return struct{}{} })
	defer pool.Close()
	done := make(chan struct{})
	job := func(struct{}) { done <- struct{}{} }
	const trips = 2000
	p.out["parallel.submit_rtt_us"] = 1000 * p.timedN("parallel.submit_rtt", trips, func() {
		pool.Submit(job)
		<-done
	})
	return nil
}
