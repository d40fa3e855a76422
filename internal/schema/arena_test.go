package schema

import (
	"testing"
)

func arenaTuple(id int64, name string) Tuple {
	return Tuple{IntVal(id), StrVal(name)}
}

// TestArenaResetReusesSlabs pins the reuse contract: after Reset, the
// arena hands out zeroed memory again and — once warmed to its
// steady-state slab sizes — carves without allocating.
func TestArenaResetReusesSlabs(t *testing.T) {
	var a TupleArena
	in := arenaTuple(7, "part#9999")
	fill := func() {
		for i := 0; i < 500; i++ {
			in[0].Int = int64(i)
			a.Clone(in)
			a.Ints(4)
			a.Sel(3)
		}
	}
	fill()
	a.Reset()

	// Carves after Reset must be zeroed even though the slab was used.
	for i, n := range a.Ints(16) {
		if n != 0 {
			t.Fatalf("Ints carve not zero at %d after Reset", i)
		}
	}
	for i, n := range a.Sel(16) {
		if n != 0 {
			t.Fatalf("Sel carve not zero at %d after Reset", i)
		}
	}

	// Cloned data must still round-trip correctly on a reused slab.
	got := a.Clone(arenaTuple(42, "hello"))
	if got[0].Int != 42 || string(got[1].Bytes) != "hello" {
		t.Fatalf("Clone after Reset corrupted: %+v", got)
	}

	// Warm one more cycle so every slab has grown to hold a full fill,
	// then a reset-and-refill cycle must not allocate at all.
	a.Reset()
	fill()
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		fill()
	})
	if allocs != 0 {
		t.Fatalf("reset-and-refill allocated %v times per run, want 0", allocs)
	}
}

// TestArenaGeometricGrowth pins that an oversized run doesn't thrash:
// slab capacity at least doubles on overflow, so carve count per fill
// is O(log n) slabs, and Reset right-sizes the retained slab to the
// whole cycle's demand — a repeat of the same fill allocates nothing,
// even though the fill spilled across several doubling slabs.
func TestArenaGeometricGrowth(t *testing.T) {
	var a TupleArena
	const n = 50_000
	for i := 0; i < n; i++ {
		a.Ints(4)
	}
	if grown := cap(a.ints); grown < 4*arenaValChunk {
		t.Fatalf("ints slab did not grow geometrically: cap %d", grown)
	}
	a.Reset()
	if cap(a.ints) < 4*n {
		t.Fatalf("Reset retained cap %d, below the cycle demand %d", cap(a.ints), 4*n)
	}
	if len(a.ints) != 0 {
		t.Fatalf("Reset left len %d", len(a.ints))
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < n; i++ {
			a.Ints(4)
		}
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("refill after right-sizing Reset allocated %v times, want 0", allocs)
	}
}
