package obs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// exactQuantile is the nearest-rank quantile the registry used to compute
// over every kept sample; it is the reference the bucketed one is held to.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(float64(len(sorted))*q + 0.999999999)
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// logUniform draws n samples log-uniformly over [lo, hi), a share of them
// replaced by zero.
func logUniform(r *rand.Rand, n int, lo, hi, zeroShare float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		if r.Float64() >= zeroShare {
			s[i] = lo * math.Pow(hi/lo, r.Float64())
		}
	}
	return s
}

// TestMetricsQuantilesBounded is the histogram's stated contract: count,
// min, max and mean exact; every quantile at most 1/32 below the exact
// nearest-rank sample and never above it.
func TestMetricsQuantilesBounded(t *testing.T) {
	m := NewMetrics()
	if m.Quantile("empty", 0.5) != 0 || m.Mean("empty") != 0 || m.Count("empty") != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		samples := logUniform(r, 1+r.Intn(3000), 1e-3, 1e6, 0.1*float64(seed%3))
		m := NewMetrics()
		var sum float64
		for _, v := range samples {
			m.Observe("h", v)
			sum += v
		}
		sort.Float64s(samples)
		n := len(samples)
		if m.Count("h") != n || m.Mean("h") != sum/float64(n) {
			t.Fatalf("seed %d: n=%d mean=%v, want %d %v", seed, m.Count("h"), m.Mean("h"), n, sum/float64(n))
		}
		if lo, hi := m.Quantile("h", 1e-9), m.Quantile("h", 1); lo != samples[0] || hi != samples[n-1] {
			t.Fatalf("seed %d: min/max = %v/%v, want %v/%v", seed, lo, hi, samples[0], samples[n-1])
		}
		for _, q := range []float64{0.01, 0.25, 0.50, 0.75, 0.95, 0.99, 0.999} {
			got, want := m.Quantile("h", q), exactQuantile(samples, q)
			if got > want || want-got > want/32 {
				t.Fatalf("seed %d n=%d: p%v = %v, exact %v: outside [exact·31/32, exact]", seed, n, q*100, got, want)
			}
		}
	}
}

// TestMetricsSmallIntegersExact: queue depths and batch sizes are small
// integers, and every integer up to 64 is the lower edge of its own bucket,
// so their quantiles are the exact ones.
func TestMetricsSmallIntegersExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := NewMetrics()
	var samples []float64
	for i := 0; i < 5000; i++ {
		v := float64(r.Intn(65))
		samples = append(samples, v)
		m.Observe("queue/depth", v)
	}
	sort.Float64s(samples)
	for q := 0.01; q <= 1; q += 0.01 {
		if got, want := m.Quantile("queue/depth", q), exactQuantile(samples, q); got != want {
			t.Fatalf("p%.0f = %v, want %v", q*100, got, want)
		}
	}
}

// TestMetricsMergeOrderIndependent merges k registries in every order of a
// permutation set: both renders must be byte-identical, and equal to
// observing everything into one registry. The samples are multiples of
// 1/1024, so float64 addition of them is exact and the sums — the one part
// of a histogram that follows the order it was added in — must agree too.
func TestMetricsMergeOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const k = 4
	parts := make([]*Metrics, k)
	all := NewMetrics()
	for i := range parts {
		parts[i] = NewMetrics()
		for _, v := range logUniform(r, 200+100*i, 1e-3, 1e6, 0.05) {
			v = math.Round(v*1024) / 1024
			name := []string{"latency/ms", "queue/wait_ms", "only/" + string(rune('a'+i))}[r.Intn(3)]
			for _, m := range []*Metrics{parts[i], all} {
				m.Observe(name, v)
				m.Inc("frames/served", 1)
				m.SetMax("queue/peak_depth", v)
			}
		}
	}
	parts[2].Observe("latency/ms", math.NaN()) // one non-finite sample on each side:
	all.Observe("latency/ms", math.Inf(1))     // only the tally may show, and it merges

	wantSnap, wantProm := all.Snapshot(), all.Prometheus("x")
	var permute func(order []int, rest []int)
	permute = func(order, rest []int) {
		if len(rest) == 0 {
			m := NewMetrics()
			for _, i := range order {
				m.Merge(parts[i])
			}
			if got := m.Snapshot(); got != wantSnap {
				t.Fatalf("merge order %v: snapshot differs:\n%s\nwant:\n%s", order, got, wantSnap)
			}
			if got := m.Prometheus("x"); got != wantProm {
				t.Fatalf("merge order %v: Prometheus render differs", order)
			}
			return
		}
		for j := range rest {
			next := append(append([]int(nil), rest[:j]...), rest[j+1:]...)
			permute(append(order, rest[j]), next)
		}
	}
	permute(nil, []int{0, 1, 2, 3})
}

// TestMetricsNonFinite: NaN and ±Inf are tallied and change nothing else
// but the snapshot's trailing nonfinite= field.
func TestMetricsNonFinite(t *testing.T) {
	m := NewMetrics()
	m.Observe("h", 1)
	m.Observe("h", 3)
	clean, cleanProm := m.Snapshot(), m.Prometheus("x")
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m.Observe("h", v)
	}
	if m.Count("h") != 2 || m.Mean("h") != 2 || m.Quantile("h", 1e-9) != 1 || m.Quantile("h", 1) != 3 {
		t.Fatalf("non-finite samples leaked into the histogram:\n%s", m.Snapshot())
	}
	snap := m.Snapshot()
	if want := clean[:len(clean)-1] + " nonfinite=3\n"; snap != want {
		t.Fatalf("snapshot = %q, want %q", snap, want)
	}
	if got := m.Prometheus("x"); got != cleanProm {
		t.Fatalf("Prometheus render changed by non-finite samples:\n%s", got)
	}
}

// retainedBytes is what the registry's histograms keep alive.
func retainedBytes(m *Metrics) int {
	total := 0
	for _, h := range m.hists {
		total += int(unsafe.Sizeof(*h)) + 8*cap(h.counts)
	}
	return total
}

// TestMetricsBoundedMemory: a sample into a warmed histogram allocates
// nothing, and what a registry retains is set by the range of the
// distribution — the same after 1e6 samples as after 1e4.
func TestMetricsBoundedMemory(t *testing.T) {
	m := NewMetrics()
	m.Observe("latency/ms", 12.5)
	if a := testing.AllocsPerRun(1000, func() { m.Observe("latency/ms", 12.5) }); a != 0 {
		t.Fatalf("Observe on a warmed histogram allocates %v times", a)
	}

	const lo, hi = 0.1, 1000.0
	r := rand.New(rand.NewSource(3))
	m = NewMetrics()
	observe := func(n int) int {
		for i := 0; i < n; i++ {
			m.Observe("latency/ms", lo*math.Pow(hi/lo, r.Float64()))
		}
		return retainedBytes(m)
	}
	at1e4 := observe(1e4)
	at1e6 := observe(1e6 - 1e4)
	// Padded growth may overshoot the span by half on each side.
	if bound := 2*8*(bucketOf(hi)-bucketOf(lo)+1) + 128; at1e4 > bound || at1e6 > bound {
		t.Fatalf("retained %d B at 1e4 samples, %d B at 1e6: above the span's bound %d B", at1e4, at1e6, bound)
	}
	if at1e6 > at1e4+at1e4/20 {
		t.Fatalf("retained bytes grew with the sample count: %d B at 1e4, %d B at 1e6", at1e4, at1e6)
	}
}

// FuzzHistogram drives observe/merge/quantile with arbitrary float bits:
// nine input bytes are one operation — an opcode and a float64 — observed
// into one of two registries, the second merged into the first on demand.
// Nothing may panic, Merge conserves counts and non-finite tallies, and
// quantiles are monotone in q and inside [min, max].
func FuzzHistogram(f *testing.F) {
	op := func(code byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{code}, math.Float64bits(v))
	}
	f.Add([]byte{})
	f.Add(append(op(0, 12.5), op(3, 0)...))
	f.Add(append(append(op(0, math.NaN()), op(2, math.Inf(-1))...), op(3, 0)...))
	f.Add(append(append(op(0, 5e-324), op(2, math.MaxFloat64)...), op(3, 0)...))
	f.Add(append(append(op(1, -3), op(2, -0.0)...), op(0, 1e-3)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A merge between the two ends of the float64 range walks 65k
		// buckets; 256 operations keep the slowest input in milliseconds.
		data = data[:min(len(data), 9*256)]
		a, b := NewMetrics(), NewMetrics()
		finite, nonfinite := 0, 0
		for ; len(data) >= 9; data = data[9:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
			switch data[0] % 4 {
			case 0, 1:
				a.Observe("h", v)
			case 2:
				b.Observe("h", v)
			case 3:
				na, nb := a.Count("h"), b.Count("h")
				a.Merge(b)
				if a.Count("h") != na+nb || b.Count("h") != nb {
					t.Fatalf("Merge: %d + %d samples became %d (source now %d)", na, nb, a.Count("h"), b.Count("h"))
				}
				b = NewMetrics()
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				nonfinite++
			} else {
				finite++
			}
		}
		a.Merge(b)
		h := a.hists["h"]
		if h == nil {
			h = &hist{}
		}
		if h.n != finite || h.nonfinite != nonfinite {
			t.Fatalf("n=%d nonfinite=%d, want %d and %d", h.n, h.nonfinite, finite, nonfinite)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{1e-9, 0.01, 0.5, 0.95, 0.99, 1} {
			got := a.Quantile("h", q)
			if h.n > 0 && (got < prev || got < h.min || got > h.max || math.IsNaN(got)) {
				t.Fatalf("p%v = %v after %v, min %v max %v", q*100, got, prev, h.min, h.max)
			}
			prev = got
		}
	})
}
