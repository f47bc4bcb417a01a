package tensor

import "testing"

func TestPoolReusesBySizeClass(t *testing.T) {
	p := NewPool()
	a := p.GetF32(100) // class 128
	p.PutF32(a)
	b := p.GetF32(120) // same class: must reuse
	if p.Stats().Misses != 1 {
		t.Fatalf("misses = %d, want 1 (second get should reuse)", p.Stats().Misses)
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want 128", cap(b))
	}
	p.PutF32(b)
	c := p.GetF32(200) // class 256: fresh
	if p.Stats().Misses != 2 {
		t.Fatalf("misses = %d, want 2", p.Stats().Misses)
	}
	p.PutF32(c)

	st := p.Stats()
	if st.Gets != 3 || st.Puts != 3 || st.Reuses() != 1 {
		t.Fatalf("stats = %+v (reuses %d)", st, st.Reuses())
	}
	if st.Bytes != 4*(128+256) {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 4*(128+256))
	}
}

func TestPoolZeroedGet(t *testing.T) {
	p := NewPool()
	a := p.GetF32(64)
	for i := range a {
		a[i] = 42
	}
	p.PutF32(a)
	b := p.GetF32Zeroed(64)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("GetF32Zeroed[%d] = %g", i, v)
		}
	}
}

func TestPoolForeignCapacityBinsSafely(t *testing.T) {
	p := NewPool()
	// A non-power-of-two capacity (e.g. a GC-allocated activation adopted by
	// the executor) must bin below its capacity so a later Get never
	// over-slices it.
	foreign := make([]float32, 100, 100)
	p.PutF32(foreign)
	got := p.GetF32(64) // class 64: the adopted buffer can serve this
	if cap(got) < 64 {
		t.Fatalf("cap = %d, want ≥64", cap(got))
	}
}

func TestPoolTensorRoundTrip(t *testing.T) {
	p := NewPool()
	shape := Shape{2, 3, 4}
	a := p.NewTensor(shape)
	if a.NumElements() != 24 {
		t.Fatalf("elements = %d", a.NumElements())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("NewTensor must be zeroed")
		}
	}
	a.Fill(5)
	p.ReleaseTensor(a)
	b := p.NewTensorUninit(shape)
	if p.Stats().Misses != 1 {
		t.Fatalf("misses = %d, want 1 (release→reuse)", p.Stats().Misses)
	}
	p.ReleaseTensor(b)
	p.ReleaseTensor(nil) // must not panic
}

func TestWorkspaceSidePools(t *testing.T) {
	ws := NewWorkspace(NewPool())
	f64 := ws.GetF64(16)
	i32 := ws.GetI32(16)
	if len(f64) != 16 || len(i32) != 16 {
		t.Fatal("side pool lengths wrong")
	}
	ws.PutF64(f64)
	ws.PutI32(i32)
	if ws.Pool().Stats().Reuses() != 0 {
		t.Fatal("no reuse expected yet")
	}
	f64b := ws.GetF64(10)
	i32b := ws.GetI32(12)
	if ws.Pool().Stats().Reuses() != 2 {
		t.Fatalf("reuses = %d, want 2", ws.Pool().Stats().Reuses())
	}
	ws.PutF64(f64b)
	ws.PutI32(i32b)
	if NewWorkspace(nil).Pool() != defaultPool {
		t.Fatal("nil workspace must fall back to the default pool")
	}
}

func TestPoolLargeBuffersExactReuse(t *testing.T) {
	p := NewPool()
	const n = 1<<14 + 1000 // above the exact-alloc threshold
	a := p.GetF32(n)
	if cap(a) != n {
		t.Fatalf("large alloc cap = %d, want exact %d", cap(a), n)
	}
	p.PutF32(a)
	b := p.GetF32(n) // identical request (recurring training shape): must reuse
	if p.Stats().Misses != 1 {
		t.Fatalf("misses = %d, want 1 (exact-capacity bin must serve repeats)", p.Stats().Misses)
	}
	p.PutF32(b)
	if got := p.GetF32(n - 1); cap(got) != n-1 {
		t.Fatalf("different large size must allocate exact, got cap %d", cap(got))
	}
}
