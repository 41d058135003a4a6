package serve

import (
	"math"
	"reflect"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/faults"
	"adascale/internal/synth"
)

// fuzzSnippets is a minimal frame corpus for the load generator: GenLoad
// only takes frame pointers, so zero-value frames are enough.
func fuzzSnippets() []synth.Snippet {
	sn := make([]synth.Snippet, 2)
	for i := range sn {
		sn[i] = synth.Snippet{ID: i, Frames: make([]synth.Frame, 3)}
	}
	return sn
}

// FuzzLoadgen drives GenLoad with adversarial configs. The invariants: an
// invalid config (non-positive/NaN/Inf rate, no streams, no frames) must
// error rather than panic; a valid config must produce exactly the
// requested schedule with finite, non-negative, non-decreasing arrival
// times; and the schedule must be a pure function of the config (two calls
// agree exactly). Every accepted schedule is then served model-only — under
// a chaos plan derived from the seed two times in three — with the dispatch
// index audited against the linear-scan oracle at every pick (ready_test.go).
func FuzzLoadgen(f *testing.F) {
	f.Add(2, 8.0, 5, int64(5))
	f.Add(1, 30.0, 1, int64(0))
	f.Add(4, 0.5, 16, int64(123))
	f.Add(0, 10.0, 4, int64(9))        // invalid: no streams
	f.Add(3, 0.0, 8, int64(-7))        // invalid: zero rate
	f.Add(3, math.NaN(), 8, int64(1))  // invalid: NaN rate
	f.Add(2, math.Inf(1), 4, int64(2)) // invalid: infinite rate
	f.Add(2, 1e308, 4, int64(3))       // huge but finite rate
	f.Add(5, 1e-9, 2, int64(44))       // near-zero rate, huge gaps
	f.Add(-1, 8.0, -3, int64(77))      // invalid: negative sizes
	ds, sys := system(f)
	f.Fuzz(func(t *testing.T, streams int, fps float64, frames int, seed int64) {
		// Bound the work, not the validity: huge requests are legal, just
		// too slow/large to fuzz.
		if streams > 64 || frames > 512 {
			t.Skip("oversized workload")
		}
		snippets := fuzzSnippets()
		cfg := LoadConfig{Streams: streams, FPS: fps, FramesPerStream: frames, Seed: seed}
		out, err := GenLoad(snippets, cfg)
		if err != nil {
			return // rejected cleanly; nothing more to check
		}
		if streams <= 0 || frames <= 0 || fps <= 0 || math.IsNaN(fps) || math.IsInf(fps, 0) {
			t.Fatalf("GenLoad accepted invalid config %+v", cfg)
		}
		if len(out) != streams {
			t.Fatalf("streams = %d, want %d", len(out), streams)
		}
		for _, st := range out {
			if len(st.Frames) != frames {
				t.Fatalf("stream %d: %d frames, want %d", st.ID, len(st.Frames), frames)
			}
			prev := 0.0
			for i, tf := range st.Frames {
				a := tf.ArrivalMS
				if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
					t.Fatalf("stream %d frame %d: bad arrival %v", st.ID, i, a)
				}
				if a < prev {
					t.Fatalf("stream %d frame %d: arrival %v before predecessor %v", st.ID, i, a, prev)
				}
				prev = a
				if tf.Frame == nil {
					t.Fatalf("stream %d frame %d: nil frame", st.ID, i)
				}
			}
		}
		again, err := GenLoad(snippets, cfg)
		if err != nil || !reflect.DeepEqual(out, again) {
			t.Fatalf("GenLoad not deterministic (err=%v)", err)
		}

		served, err := GenLoad(ds.Val, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := Config{
			Workers: 1 + int(uint64(seed)%4), QueueDepth: 1 + int(uint64(seed)>>2%8), SLOMS: 80,
			Resilient: adascale.DefaultResilientConfig(), ModelOnly: true,
		}
		// The plan's event count grows with its horizon; a near-zero frame
		// rate stretches the schedule over years of virtual time.
		horizon := math.Min(served[0].Frames[frames-1].ArrivalMS, 5000)
		if rate := float64(uint64(seed) % 3); rate > 0 && horizon > 0 {
			plan, err := faults.GenSystemPlan(faults.ScaledSystemConfig(rate, seed, horizon, scfg.Workers))
			if err != nil {
				t.Fatal(err)
			}
			scfg.Chaos = plan
		}
		if rep := audited(newServer(t, sys, scfg), served, oracleAudit(t, nil), true); rep.Lost() != 0 {
			t.Fatalf("lost %d frames serving %+v", rep.Lost(), cfg)
		}
	})
}
