// Command benchmark is the repository's benchmark: five workloads, measured
// wall/CPU end-to-end metrics, and an outside-in layer ladder. See README.md
// in this directory for the glossary and BENCHMARK.json at the repository
// root for the contract with the driver.
//
//	bash benchmark/run.sh [-workload W] [-seed S] [-seconds T] [-trace 0|1]
//	                      [-smoke] [-out F] [-append F] [-spans F]
//
// run.sh builds this module (benchmark/go.mod, which replaces the adascale
// module with the directory above) and runs it from the checkout's root.
//
// Without -workload every workload runs in turn on one system. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics, for the (last) workload run; the exit code
// is non-zero if any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

const defaultSeed = 1

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	out      string
	appendTo string
	spans    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five in turn)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "drives the load: order, stream content, arrival phases, load and plan seeds")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes that only prove every path runs")
	flag.StringVar(&o.out, "out", "", "write the full stamped record to this file")
	flag.StringVar(&o.appendTo, "append", "", "append the full stamped record as one line to this trajectory file")
	flag.StringVar(&o.spans, "spans", "", "traced runs: span file (default .bench_build/spans-<workload>.jsonl)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workloads and reports whether every output
// check passed.
func run(o options, stdout io.Writer) (bool, error) {
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	if o.seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	traced := o.trace != 0
	if traced {
		sz.setupReps = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}

	cal := newCalibrator(runtime.GOMAXPROCS(0), sz)
	e, buildRef, buildRaw, err := timedSetup(sz.setupReps, cal, func() (*env, error) { return buildEnv(o.seed, sz) }, func(*env) {})
	if err != nil {
		return false, err
	}
	rec := record{Stamp: newStamp(o.seed, o.seconds, traced, o.smoke)}
	fmt.Fprintf(stdout, "benchmark: seed %d, %d CPUs, GOMAXPROCS %d, %s, %gs per workload, trace %d\n",
		o.seed, runtime.NumCPU(), e.nproc, runtime.Version(), o.seconds, o.trace)

	allOK := true
	for _, wl := range selected {
		inst, prepRef, prepRaw, err := timedSetup(sz.setupReps, cal, func() (instance, error) { return wl.prepare(e) },
			func(i instance) { i.finish(nil) })
		if err != nil {
			return false, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		// Garbage from set-up (and, in an all-workloads run, from the
		// previous workload) must not count against this workload's heap.
		debug.FreeOSMemory()

		var wr workloadRecord
		if traced {
			wr, err = runTraced(e, wl, inst, o)
		} else {
			wr, err = runUntraced(wl, inst, o.seconds, buildRef+prepRef, buildRaw+prepRaw)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		rec.Workloads = append(rec.Workloads, wr)
		allOK = allOK && wr.Correct
		printWorkload(stdout, wr, traced)
	}

	if o.out != "" {
		if err := writeRecord(o.out, rec); err != nil {
			return false, err
		}
	}
	if o.appendTo != "" {
		if err := appendRecord(o.appendTo, rec); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(rec.Workloads[len(rec.Workloads)-1].driverLine())
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return allOK, nil
}

// runUntraced measures the end-to-end metrics with tracing off. Time-based
// figures are reported in reference seconds (calibrate.go), segment by
// segment, with the raw median beside them; an open-loop workload's rate
// and latencies are reported as measured and its CPU time against the idle
// reference.
func runUntraced(wl workload, inst instance, seconds, setupRef, setupRaw float64) (workloadRecord, error) {
	w, err := inst.measure(seconds, nil)
	if err != nil {
		inst.finish(nil)
		return workloadRecord{}, err
	}
	inst.finish(w)
	wr := newWorkloadRecord(wl.name, w)
	p50 := func(s segment) float64 { return median(s.lat) }
	tail := func(s segment) float64 { return percentile(sorted(s.lat), wr.TailPct) }
	rate, duration, cpuTime := refRate, refTime, refTime
	if w.openLoop {
		rate, duration, cpuTime = asMeasured, asMeasured, idleRefTime
	}
	wr.Metrics["setup_s"] = reported{Value: setupRef, Raw: &setupRaw}
	for name, m := range map[string]struct{ ref, raw func(segment) float64 }{
		"frames_per_s":     {rate(framesPerS), framesPerS},
		"cpu_ms_per_frame": {cpuTime(cpuMSPerFrame), cpuMSPerFrame},
		"allocs_per_frame": {allocsPerFrame, allocsPerFrame},
		"latency_ms_p50":   {duration(p50), p50},
		"latency_ms_tail":  {duration(tail), tail},
	} {
		s := summarize(w.perSegment(m.ref))
		r := reported{Value: s.Median, Segments: &s}
		if raw := median(w.perSegment(m.raw)); raw != s.Median {
			r.Raw = &raw
		}
		wr.Metrics[name] = r
	}
	wr.Metrics["heap_peak_mb"] = reported{Value: float64(w.heapPeak) / (1 << 20)}
	for _, d := range endToEnd {
		m := wr.Metrics[d.name]
		m.Unit, m.Kind = d.unit, d.kind
		wr.Metrics[d.name] = m
	}
	return wr, nil
}

// runTraced produces the per-layer metrics: the workload runs untraced and
// then traced for 0.4×seconds each (their difference is the tracing
// overhead), then the layer ladder runs on the workload's frames at the
// scales it was seen to test. Spans are written when the run ends.
func runTraced(e *env, wl workload, inst instance, o options) (workloadRecord, error) {
	plain, err := inst.measure(0.4*o.seconds, nil)
	if err != nil {
		inst.finish(nil)
		return workloadRecord{}, err
	}
	rec := newRecorder()
	w, err := inst.measure(0.4*o.seconds, rec)
	if err != nil {
		inst.finish(nil)
		return workloadRecord{}, err
	}
	inst.finish(w)
	wr := newWorkloadRecord(wl.name, w)

	values, err := runProbes(e, rec, w.scales)
	if err != nil {
		return workloadRecord{}, err
	}
	values["adascale.mean_scale"] = w.meanScale()
	values["go.gc_pause_ms"] = float64(w.gcPause.Microseconds()) / 1000
	values["go.gc_cycles"] = float64(w.gcs)
	if len(w.genLate) > 0 {
		values["bench.gen_late_ms_p99"] = percentile(sorted(w.genLate), 99)
	}
	untraced, withSpans := median(plain.perSegment(refRate(framesPerS))), median(w.perSegment(refRate(framesPerS)))
	values["bench.trace_overhead_pct"] = 100 * (untraced - withSpans) / untraced
	values["bench.speed_factor"] = w.speed()
	values["bench.failed_share"] = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	values["bench.quality_map"] = w.quality
	if scrapes := append(plain.scrapes, w.scrapes...); len(scrapes) > 0 {
		values["obs.scrape_ms_first"], values["obs.scrape_ms_last"] = scrapes[0], scrapes[len(scrapes)-1]
	}
	for _, d := range perLayer {
		v, ok := values[d.name]
		if !ok {
			return workloadRecord{}, fmt.Errorf("traced run produced no %s", d.name)
		}
		wr.Metrics[d.name] = reported{Value: v, Unit: d.unit, Kind: d.kind}
	}

	path := o.spans
	if path == "" {
		path = filepath.Join(".bench_build", "spans-"+wl.name+".jsonl")
	}
	if err := writeSpans(path, rec.all()); err != nil {
		return workloadRecord{}, err
	}
	return wr, nil
}

// newWorkloadRecord carries the window's verification outcome over.
func newWorkloadRecord(name string, w *window) workloadRecord {
	w.verify("attempted_at_least_one", w.attempted >= 1, "the run attempted nothing")
	return workloadRecord{
		Workload: name, Correct: w.correct(),
		Attempted: w.attempted, Failed: w.failed, Speed: w.speed(), IdleSpeed: w.idleSpeed(),
		TailPct: min(w.tailPct, supportedTail(w.fewestSamples())),
		Quality: w.quality,
		Checks:  w.checks, Metrics: map[string]reported{},
	}
}

// printWorkload prints every metric by name with its unit and, where it is
// a per-segment median, the min–max and the sample count behind it.
func printWorkload(out io.Writer, wr workloadRecord, traced bool) {
	fmt.Fprintf(out, "\n== %s: attempted %d, failed %d, quality_map %.16f, speed factor %.3f, correct %v\n",
		wr.Workload, wr.Attempted, wr.Failed, wr.Quality, wr.Speed, wr.Correct)
	if wr.IdleSpeed > 0 {
		fmt.Fprintf(out, "  open loop: rate and latencies as measured, CPU time ÷ the idle-reference factor %.3f\n", wr.IdleSpeed)
	}
	for _, c := range wr.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(out, "  check %-46s %s\n", c.Name, status)
	}
	names := make([]string, 0, len(wr.Metrics))
	for name := range wr.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := wr.Metrics[name]
		fmt.Fprintf(out, "  %-34s %14.4f %-8s %s", name, m.Value, m.Unit, m.Kind)
		if m.Raw != nil {
			fmt.Fprintf(out, "  raw %.4f", *m.Raw)
		}
		if s := m.Segments; s != nil {
			fmt.Fprintf(out, "  segments min %.4f max %.4f n %d", s.Min, s.Max, s.N)
		}
		if name == "latency_ms_tail" {
			fmt.Fprintf(out, "  (p%g)", wr.TailPct)
		}
		fmt.Fprintln(out)
	}
	if !traced {
		fmt.Fprintln(out, "  (medians over segments; a value with a raw beside it is in reference seconds: each segment's figure")
		fmt.Fprintln(out, "   ÷ its speed factor, rates × it; HTTP figures include the in-process load generator's own cost)")
	}
}
