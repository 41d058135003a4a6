package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
)

// usage is one reading of the process's resource counters. Readings are
// taken only at segment boundaries: ReadMemStats stops the world, so it
// must never run inside a timed call.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system, getrusage(RUSAGE_SELF)
	mallocs uint64
	heap    uint64 // heap bytes held from the OS (MemStats.HeapSys − HeapReleased)
	gcs     uint32
	pause   time.Duration // cumulative GC stop-the-world pause
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		heap:    ms.HeapSys - ms.HeapReleased,
		gcs:     ms.NumGC,
		pause:   time.Duration(ms.PauseTotalNs),
	}
}

// segment is one measured stretch of fixed work (batch workloads: one
// unit) or fixed time (HTTP workloads: one second of the schedule). Every
// end-to-end metric is a statistic of one segment, and a run reports the
// median of it over the segments: a stall (another tenant's burst, a GC
// cycle landing badly) spoils one segment, not the run's figure. A
// percentile over the whole run's pooled samples does not have that
// property — one 150 ms stall delays every post due inside it, and on the
// reference box moved a pooled p99 between 13 and 169 ms run to run.
type segment struct {
	frames  int // frames served (cluster_model: settled) in the segment
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	lat     []float64 // ms; the latency samples that fell in the segment

	// speed is the machine-speed factor of the segment (calibrate.go): how
	// much slower than the reference container the reference kernel ran
	// just before and just after it. idleSpeed is the same for the idle
	// reference, taken around the segments of an open-loop workload only.
	speed, idleSpeed float64
}

func segmentBetween(a, b usage, frames int) segment {
	return segment{frames: frames, wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs}
}

// window is everything one measured run of a workload observed.
type window struct {
	segments []segment
	tailPct  float64 // the tail percentile the workload aims for
	heapPeak uint64  // largest heap reading over the segment boundaries
	gcs      uint32
	gcPause  time.Duration

	// openLoop marks a workload that offers a fixed rate well below
	// capacity. Its frame rate is set by the schedule, and its time goes on
	// waking idle CPUs and fixed per-request costs, which do not move with
	// the full-load speed the reference kernel measures. Its rate and
	// latencies are reported as measured, its CPU time against the idle
	// reference (calibrate.go).
	openLoop bool

	attempted, failed int
	quality           float64 // mAP of the served outputs, where detections exist
	checks            []check
	scales            map[int]int // tested scale -> served frames
	genLate           []float64   // ms the open-loop generator sent after schedule
	scrapes           []float64   // ms per /metrics scrape, in order
}

// check is one output verification; a failed check makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (w *window) verify(name string, ok bool, detail string) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = detail
	}
	w.checks = append(w.checks, c)
}

func (w *window) correct() bool {
	for _, c := range w.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// observe folds the boundary readings of a run into the window's
// process-level totals.
func (w *window) observe(bounds []usage) {
	for _, u := range bounds {
		if u.heap > w.heapPeak {
			w.heapPeak = u.heap
		}
	}
	// Readings come in (before, after) pairs, one per segment.
	for i := 0; i+1 < len(bounds); i += 2 {
		w.gcs += bounds[i+1].gcs - bounds[i].gcs
		w.gcPause += bounds[i+1].pause - bounds[i].pause
	}
}

// fewestSamples is the smallest latency sample count of any segment: the
// count that decides which tail percentile every segment can support.
func (w *window) fewestSamples() int {
	n := 0
	for i, s := range w.segments {
		if i == 0 || len(s.lat) < n {
			n = len(s.lat)
		}
	}
	return n
}

// servedFrames sums the measured segments.
func (w *window) servedFrames() int {
	n := 0
	for _, s := range w.segments {
		n += s.frames
	}
	return n
}

// meanScale is the served-frame-weighted mean tested scale.
func (w *window) meanScale() float64 {
	var sum, n float64
	for scale, c := range w.scales {
		sum += float64(scale) * float64(c)
		n += float64(c)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// speed is the median of the segments' machine-speed factors, idleSpeed of
// their idle-reference factors (0 unless the workload is open-loop).
func (w *window) speed() float64 {
	return median(w.perSegment(func(s segment) float64 { return s.speed }))
}

func (w *window) idleSpeed() float64 {
	return median(w.perSegment(func(s segment) float64 { return s.idleSpeed }))
}

// perSegment maps each segment with served frames through f.
func (w *window) perSegment(f func(segment) float64) []float64 {
	out := make([]float64, 0, len(w.segments))
	for _, s := range w.segments {
		if s.frames > 0 && s.wall > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

func framesPerS(s segment) float64 { return float64(s.frames) / s.wall.Seconds() }
func cpuMSPerFrame(s segment) float64 {
	return float64(s.cpu.Microseconds()) / 1000 / float64(s.frames)
}
func allocsPerFrame(s segment) float64 { return float64(s.mallocs) / float64(s.frames) }

// refRate and refTime turn a segment's rate or duration into reference
// seconds: a machine running at factor 1.3 does 1/1.3 of the reference
// machine's work per wall second.
func refRate(f func(segment) float64) func(segment) float64 {
	return func(s segment) float64 { return f(s) * s.speed }
}

func refTime(f func(segment) float64) func(segment) float64 {
	return func(s segment) float64 { return f(s) / s.speed }
}

func asMeasured(f func(segment) float64) func(segment) float64 { return f }

// idleRefTime is refTime against the idle reference.
func idleRefTime(f func(segment) float64) func(segment) float64 {
	return func(s segment) float64 { return f(s) / s.idleSpeed }
}

// runSegments is every workload's measurement loop: one unmeasured warm-up
// segment (index −1), then count segments — or, with count 0, segments
// until their measured time reaches seconds — with the reference kernel
// timed before the first and after each one, and for an open-loop workload
// the idle reference after it. A smoke run stops after one. Resource
// counters are read around each segment — never inside one, and never
// across a kernel timing. A segment that returns no latency samples is
// itself the unit of service: its wall time is its one sample.
func runSegments(e *env, seconds float64, count int, openLoop bool, run func(i int) (frames int, lat []float64, err error)) (*window, error) {
	w := &window{tailPct: 50, openLoop: openLoop}
	if _, _, err := run(-1); err != nil {
		return nil, err
	}
	runtime.GC()
	cal := newCalibrator(e.nproc, e.sz)
	kernelBefore := cal.sample()
	var idleBefore float64
	if openLoop {
		idleBefore = cal.sampleIdle()
	}
	var readings []usage
	var measured time.Duration
	for i := 0; ; i++ {
		before := readUsage()
		frames, lat, err := run(i)
		if err != nil {
			return nil, err
		}
		after := readUsage()
		kernelAfter := cal.sample()
		seg := segmentBetween(before, after, frames)
		seg.speed = cal.speed(kernelBefore, kernelAfter)
		kernelBefore = kernelAfter
		if openLoop {
			idleAfter := cal.sampleIdle()
			seg.idleSpeed = cal.idleSpeed(idleBefore, idleAfter)
			idleBefore = idleAfter
		}
		seg.lat = lat
		if lat == nil {
			seg.lat = []float64{float64(seg.wall.Microseconds()) / 1000}
		}
		w.segments = append(w.segments, seg)
		measured += seg.wall
		readings = append(readings, before, after)
		if e.sz.oneSegment || (count > 0 && i+1 >= count) || (count == 0 && measured.Seconds() >= seconds) {
			break
		}
	}
	w.observe(readings)
	return w, nil
}

// segmentLength is how long an HTTP workload drives load per segment: one
// second, or the whole run if that is shorter.
func segmentLength(seconds float64) time.Duration {
	return time.Duration(min(1, seconds) * float64(time.Second))
}

// segmentCount is how many such segments an HTTP workload measures. The
// count is fixed by the run length, not by how long the segments turned out
// to take, so every run of a workload serves the same stretch of its
// streams.
func segmentCount(seconds float64) int {
	return max(1, int(math.Round(seconds/segmentLength(seconds).Seconds())))
}
