package tensor

import (
	"sync"
	"testing"
)

func TestPoolRecyclesBySizeClass(t *testing.T) {
	p := NewPool()
	a := p.Get(100) // class 7 (128)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100/128", len(a), cap(a))
	}
	p.Put(a)
	b := p.Get(120) // same class: must reuse a's backing array
	if &a[0] != &b[0] {
		t.Fatalf("Get after Put did not reuse the buffer")
	}
	if len(b) != 120 {
		t.Fatalf("reused buffer has len %d, want 120", len(b))
	}
	gets, hits, puts := p.Stats()
	if gets != 2 || hits != 1 || puts != 1 {
		t.Fatalf("Stats = %d/%d/%d, want 2/1/1", gets, hits, puts)
	}
}

func TestPoolNilSafety(t *testing.T) {
	var p *Pool
	buf := p.Get(16)
	if len(buf) != 16 {
		t.Fatalf("nil pool Get(16): len %d", len(buf))
	}
	for _, v := range buf {
		if v != 0 {
			t.Fatal("nil pool Get must allocate zeroed")
		}
	}
	p.Put(buf) // must not panic
	tt := p.GetTensor(2, 3)
	if tt.Dim(0) != 2 || tt.Dim(1) != 3 {
		t.Fatalf("nil pool GetTensor shape %v", tt.Shape())
	}
	p.PutTensor(tt)
}

func TestPoolBoundsRetention(t *testing.T) {
	p := NewPool()
	bufs := make([][]float32, poolMaxPerClass+3)
	for i := range bufs {
		bufs[i] = p.Get(64)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if got := len(p.classes[sizeClass(64)]); got != poolMaxPerClass {
		t.Fatalf("retained %d buffers, want cap %d", got, poolMaxPerClass)
	}
	// Oversized and foreign buffers are dropped, not stored.
	p.Put(make([]float32, 100)) // cap 100 is not a class size
	p.Put(nil)
	if got := len(p.classes[sizeClass(128)]); got != 0 {
		t.Fatalf("foreign buffer was retained")
	}
}

func TestPoolTensorRoundTrip(t *testing.T) {
	p := NewPool()
	a := p.GetTensor(3, 4, 5)
	if a.Size() != 60 {
		t.Fatalf("Size = %d", a.Size())
	}
	back := a.Data()
	p.PutTensor(a)
	b := p.GetTensor(5, 12)
	if &back[0] != &b.Data()[0] {
		t.Fatal("PutTensor/GetTensor did not recycle storage")
	}
}

func TestPoolConcurrentUse(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				buf := p.Get(1 << uint(i%10))
				buf[0] = float32(i)
				p.Put(buf)
			}
		}()
	}
	wg.Wait()
}
