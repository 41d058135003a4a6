package tensor

import "sync"

// This file is the memory side of the hot-path compute engine: a
// size-classed arena/free-list for float32 buffers so steady-state serving
// allocates near zero in the detect stage. Buffers are recycled by rounded
// power-of-two size class; a Get may return a slice whose backing array is
// larger than requested and whose contents are stale — every consumer in
// this package fully overwrites its buffers (Im2ColInto, MatMulInto,
// ConvInto), which is exactly what makes pooling safe.
//
// Ownership rules (see DESIGN.md §4g):
//
//   - A buffer/tensor obtained from a Pool is owned by the caller until it
//     is returned with Put/PutTensor. Returning it transfers ownership back
//     to the pool; using it afterwards is a use-after-free bug.
//   - Never Put the same buffer twice, and never Put a buffer that is
//     still referenced elsewhere (e.g. a features tensor retained by a
//     training label).
//   - Retaining a pooled tensor forever is safe and merely prevents that
//     one buffer from being recycled — the pool never reclaims by itself.
//   - A Pool is safe for concurrent use, but the intended deployment is
//     one pool per worker (per detector/regressor clone), where Get/Put
//     never contend.
//
// A nil *Pool is valid everywhere and degrades to plain allocation, so
// cold paths and tests need no pool plumbing.

// poolMaxClass bounds the size classes: 1<<poolMaxClass floats (256 MiB of
// float32 at 26) is far above any tensor in the pipeline; larger requests
// bypass the pool entirely.
const poolMaxClass = 26

// poolMaxPerClass bounds retained buffers per class so a burst cannot pin
// unbounded memory; excess Puts are dropped for the GC to collect.
const poolMaxPerClass = 8

// poolMaxHeaders bounds the recycled Tensor headers kept by a pool.
const poolMaxHeaders = 64

// Pool is a size-classed free list of float32 buffers. The zero value is
// ready to use; a nil *Pool is also valid and falls back to make/new (Put
// becomes a no-op), so callers thread pools only where recycling matters.
type Pool struct {
	mu      sync.Mutex
	classes [poolMaxClass + 1][][]float32

	// headers recycles the Tensor structs (and their shape slices)
	// travelling through GetTensor/PutTensor, so a steady-state
	// Get/Put cycle allocates neither storage nor header.
	headers []*Tensor

	gets, hits, puts int64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// sizeClass returns the class index for a request of n floats (smallest c
// with 1<<c >= n), or -1 if n is outside the pooled range.
func sizeClass(n int) int {
	if n <= 0 || n > 1<<poolMaxClass {
		return -1
	}
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// Get returns a length-n float32 slice. Contents are unspecified (stale
// data from a previous user); callers must fully overwrite. A nil pool, or
// a request outside the pooled size range, allocates fresh (zeroed).
func (p *Pool) Get(n int) []float32 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if p == nil || c < 0 {
		return make([]float32, n)
	}
	p.mu.Lock()
	p.gets++
	if l := len(p.classes[c]); l > 0 {
		buf := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		p.hits++
		p.mu.Unlock()
		return buf[:n]
	}
	p.mu.Unlock()
	return make([]float32, n, 1<<c)
}

// Put returns a buffer to the pool for reuse. The caller must not use buf
// afterwards. Buffers whose capacity is not an exact class size (i.e. not
// obtained from a Pool) and nil pools are accepted and dropped silently.
func (p *Pool) Put(buf []float32) {
	if p == nil || cap(buf) == 0 {
		return
	}
	c := sizeClass(cap(buf))
	if c < 0 || 1<<c != cap(buf) {
		return // not a pool-shaped buffer; let the GC have it
	}
	p.mu.Lock()
	p.puts++
	if len(p.classes[c]) < poolMaxPerClass {
		p.classes[c] = append(p.classes[c], buf[:cap(buf)])
	}
	p.mu.Unlock()
}

// GetTensor returns a tensor with the given shape backed by pooled
// storage. Contents are unspecified; callers must fully overwrite. Release
// with PutTensor.
func (p *Pool) GetTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in pooled shape")
		}
		n *= d
	}
	var t *Tensor
	if p != nil {
		p.mu.Lock()
		if l := len(p.headers); l > 0 {
			t = p.headers[l-1]
			p.headers[l-1] = nil
			p.headers = p.headers[:l-1]
		}
		p.mu.Unlock()
	}
	if t == nil {
		return &Tensor{shape: append([]int(nil), shape...), data: p.Get(n)}
	}
	t.shape = append(t.shape[:0], shape...)
	t.data = p.Get(n)
	return t
}

// PutTensor returns a tensor's storage — and the Tensor header itself — to
// the pool. The tensor (and any view sharing its storage) must not be used
// afterwards: the header may be handed out again by the next GetTensor.
func (p *Pool) PutTensor(t *Tensor) {
	if t == nil {
		return
	}
	p.Put(t.data)
	t.data = nil
	if p == nil {
		return
	}
	t.shape = t.shape[:0]
	p.mu.Lock()
	if len(p.headers) < poolMaxHeaders {
		p.headers = append(p.headers, t)
	}
	p.mu.Unlock()
}

// Stats reports cumulative gets, free-list hits and puts — observability
// for tests and the microbenchmarks, not a public contract.
func (p *Pool) Stats() (gets, hits, puts int64) {
	if p == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits, p.puts
}
