package main

import "time"

// probeBench measures the load generator's own floor: how late a goroutine
// that sleeps until a due time wakes up on this machine. The open-loop
// generator of http_fanin is built on exactly that, and on a virtual
// machine whose idle CPUs are descheduled the wake-up, not the server, can
// be most of an acknowledgement latency. The http_fanin traced run replaces
// the figure with its real generator's lateness.
func probeBench(p *prober) error {
	const wakeups = 200
	late := make([]float64, wakeups)
	for i := range late {
		due := time.Now().Add(time.Millisecond)
		id := p.rec.begin("bench.timer_wakeup", 0, i)
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		p.rec.end(id)
	}
	p.out["bench.gen_late_ms_p99"] = percentile(sorted(late), 99)
	return nil
}
