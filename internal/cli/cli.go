// Package cli carries the flag conventions shared by every adascale
// command (adascale-train, adascale-eval, adascale-bench, adascale-serve),
// so the four binaries parse and seed identically.
//
// Seeding contract: -seed is the single master seed. It drives the
// synthetic dataset generation directly, and every derived stochastic
// stream — fault injection (internal/faults) and serving load generation
// (internal/serve) — is seeded by mixing the master seed through an
// independent splitmix64-style finaliser (FaultSeed, LoadSeed below). The
// streams are therefore decorrelated from each other but all pinned by the
// one flag: the same -seed reproduces the same dataset, the same fault
// pattern and the same arrival schedule on any machine and worker count.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adascale/internal/obs"
	"adascale/internal/parallel"
	"adascale/internal/rng"
	"adascale/internal/synth"
)

// Common is the flag block every adascale command shares.
type Common struct {
	// Dataset selects the synthetic corpus profile: "vid" or "ytbb".
	Dataset string

	// Train and Val are the corpus sizes in snippets.
	Train, Val int

	// Seed is the master seed (see the package comment for what it pins).
	Seed int64

	// Workers sizes the shared worker pool; 0 means GOMAXPROCS.
	Workers int

	// TracePath, when non-empty, collects per-frame pipeline spans during
	// the run and writes them (plus the stage breakdown) to this file at
	// exit via WriteTrace. Every span is a modelled duration, so the file
	// is byte-identical across runs and worker counts.
	TracePath string

	// PprofAddr, when non-empty, serves net/http/pprof on this address
	// for the life of the process.
	PprofAddr string

	tracer *obs.Tracer
}

// Register installs the common flags on the default flag set with the
// given corpus-size defaults. Call before flag.Parse.
func (c *Common) Register(defTrain, defVal int) {
	flag.StringVar(&c.Dataset, "dataset", "vid", "dataset: vid or ytbb")
	flag.IntVar(&c.Train, "train", defTrain, "training snippets")
	if defVal >= 0 {
		flag.IntVar(&c.Val, "val", defVal, "validation snippets")
	}
	flag.Int64Var(&c.Seed, "seed", 5, "master seed: drives the dataset and every derived fault/load stream")
	flag.IntVar(&c.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.StringVar(&c.TracePath, "trace", "", "write per-stage pipeline trace to this file")
	flag.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// Apply finalises parsed flags: worker pool sizing, the pprof server and
// the tracer. Call after flag.Parse; cmd names the command in messages.
func (c *Common) Apply(cmd string) {
	parallel.SetWorkers(c.Workers)
	if c.PprofAddr != "" {
		addr, err := obs.StartPprof(c.PprofAddr)
		if err != nil {
			Fail(cmd, err)
		}
		fmt.Fprintf(os.Stderr, "%s: pprof at http://%s/debug/pprof/\n", cmd, addr)
	}
	if c.TracePath != "" {
		c.tracer = obs.NewTracer()
	}
}

// Tracer returns the tracer Apply built from the -trace flag,
// or nil when tracing is off — safe to pass anywhere, every obs.Tracer
// method is nil-safe.
func (c *Common) Tracer() *obs.Tracer { return c.tracer }

// WriteTrace writes the collected trace — canonical spans followed by the
// per-stage breakdown — to the -trace file. No-op when tracing is off.
func (c *Common) WriteTrace(cmd string) {
	if c.tracer == nil || c.TracePath == "" {
		return
	}
	var b strings.Builder
	b.WriteString(c.tracer.Format())
	if bd := c.tracer.FormatBreakdown(); bd != "" {
		b.WriteString("\n")
		b.WriteString(bd)
	}
	if err := os.WriteFile(c.TracePath, []byte(b.String()), 0o644); err != nil {
		Fail(cmd, err)
	}
	fmt.Fprintf(os.Stderr, "%s: trace written to %s (%d spans)\n", cmd, c.TracePath, c.tracer.Len())
}

// SynthConfig resolves the dataset flag to its generator configuration,
// seeded by the master seed.
func (c *Common) SynthConfig() (synth.Config, error) {
	switch c.Dataset {
	case "vid":
		return synth.VIDLike(c.Seed), nil
	case "ytbb":
		return synth.MiniYTBBLike(c.Seed), nil
	}
	return synth.Config{}, fmt.Errorf("unknown dataset %q (want vid or ytbb)", c.Dataset)
}

// FaultSeed derives the fault-injection stream's seed from the master
// seed. The constant offset keeps it decorrelated from the dataset draw
// while staying a pure function of -seed.
func (c Common) FaultSeed() int64 { return mix(c.Seed, 0xFA17) }

// LoadSeed derives the serving load generator's seed from the master seed,
// independent of both the dataset and the fault stream.
func (c Common) LoadSeed() int64 { return mix(c.Seed, 0x10AD) }

// ChaosSeed derives the system fault plan's seed (worker kills, stalls,
// blackouts — faults.GenSystemPlan) from the master seed, independent of
// the dataset, frame-fault and load streams.
func (c Common) ChaosSeed() int64 { return mix(c.Seed, 0xC405) }

// mix is a splitmix64-style finaliser over (seed, stream tag).
func mix(seed int64, tag uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + tag
	return int64(rng.Mix64(z) & 0x7FFFFFFFFFFFFFFF)
}

// Fail prints "cmd: err" to stderr and exits 1.
func Fail(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(1)
}

// ParseInts parses a comma-separated integer list ("1,3,5").
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated float list ("0,0.05,0.1").
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
