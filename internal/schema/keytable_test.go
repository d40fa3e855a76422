package schema

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func newKeyTable(width int) *KeyTable {
	t := &KeyTable{}
	t.Reset(width)
	return t
}

// TestKeyTableCollisions files keys that all hash to the same home
// slot: each must still get its own id, in first-seen order, and be
// found again.
func TestKeyTableCollisions(t *testing.T) {
	tab := newKeyTable(1)
	home := func(k uint64) int { return int((k * fib) >> tab.shift) }
	var keys []uint64
	for k := uint64(0); len(keys) < minKeySlots/2-1; k++ {
		if home(k) == home(0) {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		if id, added := tab.Insert1(k); !added || id != int32(i) {
			t.Fatalf("Insert1(%d) = %d, %v; want %d, new", k, id, added, i)
		}
	}
	if len(tab.slots) != minKeySlots {
		t.Fatalf("the probe grew the table to %d slots", len(tab.slots))
	}
	for i, k := range keys {
		if id, added := tab.Insert1(k); added || id != int32(i) {
			t.Fatalf("second Insert1(%d) = %d, %v; want %d, old", k, id, added, i)
		}
		if id := tab.Find1(k); id != int32(i) {
			t.Fatalf("Find1(%d) = %d, want %d", k, id, i)
		}
	}
	if id := tab.Find1(keys[len(keys)-1] + 1); id != -1 {
		t.Fatalf("Find1 of a missing key = %d", id)
	}
}

// TestKeyTableGrowsPastReserve reserves for a few keys, then files
// many: growth must keep every id and lookup, and the batch insert
// must agree with the one-at-a-time one.
func TestKeyTableGrowsPastReserve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	one, batch := newKeyTable(1), newKeyTable(1)
	one.Reserve(8)
	batch.Reserve(8)
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(3000)) // duplicates galore
	}
	want := make([]int32, len(keys))
	for i, k := range keys {
		want[i], _ = one.Insert1(k)
	}
	got := make([]int32, len(keys))
	batch.InsertBatch1(keys[:100], got[:100])
	batch.InsertBatch1(keys[100:], got[100:])
	seen := map[uint64]int32{}
	for i, k := range keys {
		if got[i] != want[i] {
			t.Fatalf("key %d: batch id %d, single id %d", i, got[i], want[i])
		}
		id, ok := seen[k]
		if !ok {
			id = int32(len(seen))
			seen[k] = id
		}
		if want[i] != id {
			t.Fatalf("key %d (%d): id %d, first-seen order says %d", i, k, want[i], id)
		}
	}
	if one.Len() != len(seen) || batch.Len() != len(seen) {
		t.Fatalf("Len = %d / %d, want %d", one.Len(), batch.Len(), len(seen))
	}
	for k, id := range seen {
		if g := one.Find1(k); g != id {
			t.Fatalf("Find1(%d) = %d, want %d", k, g, id)
		}
	}
}

// TestKeyTableChainsKeepInsertionOrder files rows under duplicate
// keys: each key's chain must list its rows in the order they came.
func TestKeyTableChainsKeepInsertionOrder(t *testing.T) {
	tab := newKeyTable(1)
	tab.Reserve(2)
	keys := []uint64{5, 7, 5, 5, 9, 7, 5}
	for i, k := range keys {
		if r := tab.AddRow1(k); r != int32(i) {
			t.Fatalf("AddRow1 #%d numbered %d", i, r)
		}
	}
	chain := func(k uint64) []int32 {
		var rows []int32
		for r := tab.Chain1(k); r >= 0; r = tab.Next(r) {
			rows = append(rows, r)
		}
		return rows
	}
	for k, want := range map[uint64][]int32{5: {0, 2, 3, 6}, 7: {1, 5}, 9: {4}, 6: nil} {
		got := chain(k)
		if len(got) != len(want) {
			t.Fatalf("chain %d = %v, want %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chain %d = %v, want %v", k, got, want)
			}
		}
	}
}

// TestKeyTableEmpty covers a table nothing was filed in, and one
// Reset after use.
func TestKeyTableEmpty(t *testing.T) {
	tab := newKeyTable(1)
	if tab.Len() != 0 || tab.Find1(0) != -1 || tab.Chain1(42) != -1 {
		t.Fatal("a fresh table reports content")
	}
	tab.AddRow1(42)
	tab.Reset(1)
	if tab.Len() != 0 || tab.Find1(42) != -1 || tab.Chain1(42) != -1 {
		t.Fatal("Reset left content behind")
	}
	tab.InsertBatch1(nil, nil)
	if tab.Len() != 0 {
		t.Fatal("an empty batch filed a key")
	}
}

// keyTestSchema mixes every kind, with a CHAR wider than a word and
// columns that straddle word boundaries.
func keyTestSchema() *Schema {
	return New(
		Column{Name: "flag", Kind: Char, Len: 1},
		Column{Name: "n", Kind: Int32},
		Column{Name: "name", Kind: Char, Len: 13},
		Column{Name: "big", Kind: Int64},
		Column{Name: "day", Kind: Date},
		Column{Name: "code", Kind: Char, Len: 3},
	)
}

func randomKeyValue(rng *rand.Rand, c Column) Value {
	if c.Kind != Char {
		return IntVal(rng.Int63n(7) - 3) // negatives and a small domain
	}
	b := make([]byte, rng.Intn(c.Len+3)) // short, exact, and too long
	for i := range b {
		b[i] = "ab "[rng.Intn(3)]
	}
	return Value{Bytes: b}
}

// TestKeyLayoutPacksEncodeValueBytes pins the key format: the packed
// words of any column list hold exactly the bytes EncodeValue writes,
// concatenated and zero-padded, whether packed value by value or a
// batch at a time.
func TestKeyLayoutPacksEncodeValueBytes(t *testing.T) {
	s := keyTestSchema()
	rng := rand.New(rand.NewSource(7))
	lists := [][]int{{0}, {0, 5}, {2}, {1, 2, 3}, {5, 4, 3, 2, 1, 0}, {3, 0}}
	const rows = 64
	for _, cols := range lists {
		l := s.KeyLayout(cols)
		b := NewBatch(s.NumColumns())
		b.SetLen(rows)
		tuples := make([]Tuple, rows)
		for i := range tuples {
			tuples[i] = make(Tuple, s.NumColumns())
			for c := range tuples[i] {
				tuples[i][c] = randomKeyValue(rng, s.Column(c))
			}
		}
		for _, c := range cols {
			if s.Column(c).Kind == Char {
				vec := make([][]byte, rows)
				for i := range vec {
					vec[i] = tuples[i][c].Bytes
				}
				b.SetBytesVec(c, vec)
			} else {
				vec := make([]int64, rows)
				for i := range vec {
					vec[i] = tuples[i][c].Int
				}
				b.SetInt64Vec(c, vec)
			}
		}
		sel := []int32{3, 0, 63, 17, 17}
		w := l.Words()
		packed := make([]uint64, len(sel)*w)
		l.PackBatch(packed, b, sel)
		for k, r := range sel {
			var enc []byte
			for _, c := range cols {
				enc = s.EncodeValue(enc, c, tuples[r][c])
			}
			want := make([]byte, 8*w)
			copy(want, enc)
			got := make([]byte, 8*w)
			one := make([]uint64, w)
			for i, c := range cols {
				l.PackValue(one, i, tuples[r][c])
			}
			for i := 0; i < w; i++ {
				binary.LittleEndian.PutUint64(got[8*i:], packed[k*w+i])
				if one[i] != packed[k*w+i] {
					t.Fatalf("cols %v row %d word %d: PackValue %#x, PackBatch %#x", cols, r, i, one[i], packed[k*w+i])
				}
			}
			if string(got) != string(want) {
				t.Fatalf("cols %v row %d: packed %q, EncodeValue %q", cols, r, got, want)
			}
		}
	}
}

// TestKeyTableMultiWordCharKeys groups by a key wider than a word:
// CHAR values equal up to trailing spaces share an id, others do not.
func TestKeyTableMultiWordCharKeys(t *testing.T) {
	s := keyTestSchema()
	l := s.KeyLayout([]int{2, 1}) // CHAR(13) then INT: 17 bytes, 3 words
	if l.Words() != 3 {
		t.Fatalf("Words = %d, want 3", l.Words())
	}
	tab := newKeyTable(l.Words())
	id := func(name string, n int64) int32 {
		key := make([]uint64, l.Words())
		l.PackValue(key, 0, StrVal(name))
		l.PackValue(key, 1, IntVal(n))
		g, _ := tab.Insert(key)
		return g
	}
	a := id("customer#0001", 1)
	if id("customer#0002", 1) == a || id("customer#0001", 2) == a {
		t.Fatal("distinct keys share an id")
	}
	if id("customer#0001", 1) != a {
		t.Fatal("an equal key got a new id")
	}
	short := id("bob", 1)
	if id("bob  ", 1) != short || id("bob          ", 1) != short {
		t.Fatal("trailing spaces split a CHAR key")
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tab.Len())
	}
	// Enough keys to grow a multi-word table several times over.
	for i := int64(0); i < 1000; i++ {
		id("x", i)
	}
	if tab.Len() != 1004 || id("customer#0001", 2) != 2 {
		t.Fatalf("growth lost keys: Len %d", tab.Len())
	}
}

// BenchmarkKeyTable times the table's two hot loops: a group fold's
// batch insert over a few distinct keys, and a join's chain probe of a
// 4000-row build side.
func BenchmarkKeyTable(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(rng.Intn(6))
	}
	b.Run("group", func(b *testing.B) {
		tab := newKeyTable(1)
		ids := make([]int32, len(keys))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab.InsertBatch1(keys, ids)
		}
	})
	b.Run("probe", func(b *testing.B) {
		tab := newKeyTable(1)
		tab.Reserve(4000)
		for k := uint64(1); k <= 4000; k++ {
			tab.AddRow1(k)
		}
		for i := range keys {
			keys[i] = uint64(rng.Intn(5000))
		}
		b.ReportAllocs()
		b.ResetTimer()
		var hits int
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				for r := tab.Chain1(k); r >= 0; r = tab.Next(r) {
					hits++
				}
			}
		}
		_ = hits
	})
}
