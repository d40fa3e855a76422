package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"smartssd/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Kind: schema.Int64},
		schema.Column{Name: "qty", Kind: schema.Int32},
		schema.Column{Name: "ship", Kind: schema.Date},
		schema.Column{Name: "tag", Kind: schema.Char, Len: 10},
	)
}

func makeTuple(i int) schema.Tuple {
	return schema.Tuple{
		schema.IntVal(int64(i) * 1000),
		schema.IntVal(int64(i % 50)),
		schema.IntVal(int64(8000 + i)),
		schema.StrVal(fmt.Sprintf("t%03d", i)),
	}
}

func buildPage(t testing.TB, s *schema.Schema, l Layout, n int) []byte {
	t.Helper()
	b := NewBuilder(s, l)
	if n > b.Capacity() {
		t.Fatalf("test wants %d tuples, page holds %d", n, b.Capacity())
	}
	b.Reset(7)
	for i := 0; i < n; i++ {
		if !b.Append(makeTuple(i)) {
			t.Fatalf("Append(%d) reported full", i)
		}
	}
	out := make([]byte, PageSize)
	copy(out, b.Finish())
	return out
}

func TestCapacity(t *testing.T) {
	s := testSchema() // width 8+4+4+10 = 26
	if got, want := Capacity(s, NSM), (PageSize-HeaderSize)/(26+2); got != want {
		t.Errorf("NSM capacity = %d, want %d", got, want)
	}
	if got, want := Capacity(s, PAX), (PageSize-HeaderSize)/26; got != want {
		t.Errorf("PAX capacity = %d, want %d", got, want)
	}
	if Capacity(s, PAX) <= Capacity(s, NSM) {
		t.Error("PAX capacity should exceed NSM (no slot overhead)")
	}
}

func TestRoundTripBothLayouts(t *testing.T) {
	s := testSchema()
	for _, l := range []Layout{NSM, PAX} {
		t.Run(l.String(), func(t *testing.T) {
			const n = 100
			buf := buildPage(t, s, l, n)
			r, err := NewReader(s, buf)
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			if r.Count() != n {
				t.Fatalf("Count = %d, want %d", r.Count(), n)
			}
			if r.Layout() != l {
				t.Fatalf("Layout = %v, want %v", r.Layout(), l)
			}
			if r.PageNo() != 7 {
				t.Fatalf("PageNo = %d, want 7", r.PageNo())
			}
			var tup schema.Tuple
			for i := 0; i < n; i++ {
				tup = r.Tuple(tup, i)
				want := makeTuple(i)
				for c := 0; c < 3; c++ {
					if tup[c].Int != want[c].Int {
						t.Fatalf("tuple %d col %d = %d, want %d", i, c, tup[c].Int, want[c].Int)
					}
				}
				if !schema.Equal(schema.Char, tup[3], want[3]) {
					t.Fatalf("tuple %d tag = %q, want %q", i, tup[3].Bytes, want[3].Bytes)
				}
			}
		})
	}
}

func TestColumnAccessMatchesTuple(t *testing.T) {
	s := testSchema()
	for _, l := range []Layout{NSM, PAX} {
		buf := buildPage(t, s, l, 50)
		r, err := NewReader(s, buf)
		if err != nil {
			t.Fatal(err)
		}
		var tup schema.Tuple
		for i := 0; i < 50; i++ {
			tup = r.Tuple(tup, i)
			for c := 0; c < s.NumColumns(); c++ {
				v := r.Column(i, c)
				if s.Column(c).Kind == schema.Char {
					if !bytes.Equal(v.Bytes, tup[c].Bytes) {
						t.Fatalf("%v col(%d,%d) bytes mismatch", l, i, c)
					}
				} else if v.Int != tup[c].Int {
					t.Fatalf("%v col(%d,%d) = %d, want %d", l, i, c, v.Int, tup[c].Int)
				}
			}
		}
	}
}

func TestAppendUntilFull(t *testing.T) {
	s := testSchema()
	for _, l := range []Layout{NSM, PAX} {
		b := NewBuilder(s, l)
		b.Reset(0)
		n := 0
		for b.Append(makeTuple(n)) {
			n++
		}
		if n != b.Capacity() {
			t.Errorf("%v: appended %d, capacity %d", l, n, b.Capacity())
		}
		// One more append must keep failing without corrupting count.
		if b.Append(makeTuple(n)) {
			t.Errorf("%v: Append succeeded past capacity", l)
		}
		if b.Count() != b.Capacity() {
			t.Errorf("%v: Count = %d after overfill attempts", l, b.Count())
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	s := testSchema()
	buf := buildPage(t, s, NSM, 10)
	buf[HeaderSize+3] ^= 0xFF
	if _, err := NewReader(s, buf); err == nil {
		t.Fatal("corrupted page passed validation")
	}
}

func TestValidateAfterBind(t *testing.T) {
	s := testSchema()
	buf := buildPage(t, s, PAX, 10)
	r, err := NewReader(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(buf); err != nil {
		t.Fatalf("re-Bind of clean page: %v", err)
	}
	buf[PageSize-1] ^= 1
	if err := r.Bind(buf); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("re-Bind of corrupted page: %v, want ErrBadChecksum", err)
	}
}

func TestReaderRejectsBadInput(t *testing.T) {
	s := testSchema()
	if _, err := NewReader(s, make([]byte, 100)); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := NewReader(s, make([]byte, PageSize)); err == nil {
		t.Error("zero page accepted")
	}
	// Wrong schema width.
	buf := buildPage(t, s, NSM, 5)
	other := schema.New(schema.Column{Name: "x", Kind: schema.Int32})
	if _, err := NewReader(other, buf); err == nil {
		t.Error("schema-width mismatch accepted")
	}
}

func TestBuilderResetClearsPage(t *testing.T) {
	s := testSchema()
	b := NewBuilder(s, NSM)
	b.Reset(1)
	for i := 0; i < 20; i++ {
		b.Append(makeTuple(i))
	}
	b.Finish()
	b.Reset(2)
	b.Append(makeTuple(99))
	buf := make([]byte, PageSize)
	copy(buf, b.Finish())
	r, err := NewReader(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 1 {
		t.Fatalf("after reset Count = %d, want 1", r.Count())
	}
	if r.PageNo() != 2 {
		t.Fatalf("after reset PageNo = %d, want 2", r.PageNo())
	}
	if got := r.Column(0, 0).Int; got != 99000 {
		t.Fatalf("tuple survived reset wrong: %d", got)
	}
}

func TestInt64ColumnStreaming(t *testing.T) {
	s := testSchema()
	for _, l := range []Layout{NSM, PAX} {
		buf := buildPage(t, s, l, 30)
		r, _ := NewReader(s, buf)
		var seen []int64
		r.Int64Column(1, func(i int, v int64) {
			seen = append(seen, v)
		})
		if len(seen) != 30 {
			t.Fatalf("%v: streamed %d values, want 30", l, len(seen))
		}
		for i, v := range seen {
			if v != int64(i%50) {
				t.Fatalf("%v: value %d = %d, want %d", l, i, v, i%50)
			}
		}
	}
}

func TestInt64ColumnOnCharPanics(t *testing.T) {
	s := testSchema()
	buf := buildPage(t, s, PAX, 1)
	r, _ := NewReader(s, buf)
	defer func() {
		if recover() == nil {
			t.Fatal("Int64Column on CHAR did not panic")
		}
	}()
	r.Int64Column(3, func(int, int64) {})
}

func TestTupleOutOfRangePanics(t *testing.T) {
	s := testSchema()
	buf := buildPage(t, s, NSM, 5)
	r, _ := NewReader(s, buf)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Tuple did not panic")
		}
	}()
	r.Tuple(nil, 5)
}

// Property: for random tuple data, NSM and PAX pages decode identically.
func TestLayoutsAgreeProperty(t *testing.T) {
	s := schema.New(
		schema.Column{Name: "a", Kind: schema.Int64},
		schema.Column{Name: "b", Kind: schema.Int32},
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		tuples := make([]schema.Tuple, n)
		for i := range tuples {
			tuples[i] = schema.Tuple{schema.IntVal(rng.Int63()), schema.IntVal(int64(int32(rng.Int31())))}
		}
		var pages [2][]byte
		for li, l := range []Layout{NSM, PAX} {
			b := NewBuilder(s, l)
			b.Reset(0)
			for _, tup := range tuples {
				if !b.Append(tup) {
					return false
				}
			}
			pages[li] = append([]byte(nil), b.Finish()...)
		}
		rn, err1 := NewReader(s, pages[0])
		rp, err2 := NewReader(s, pages[1])
		if err1 != nil || err2 != nil {
			return false
		}
		var ta, tb schema.Tuple
		for i := 0; i < n; i++ {
			ta = rn.Tuple(ta, i)
			tb = rp.Tuple(tb, i)
			if ta[0].Int != tb[0].Int || ta[1].Int != tb[1].Int {
				return false
			}
			if ta[0].Int != tuples[i][0].Int {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPageAppendNSM(b *testing.B) { benchAppend(b, NSM) }
func BenchmarkPageAppendPAX(b *testing.B) { benchAppend(b, PAX) }

func benchAppend(b *testing.B, l Layout) {
	s := testSchema()
	bl := NewBuilder(s, l)
	tup := makeTuple(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl.Reset(0)
		for bl.Append(tup) {
		}
		bl.Finish()
	}
}

func BenchmarkColumnScanNSM(b *testing.B) { benchColScan(b, NSM) }
func BenchmarkColumnScanPAX(b *testing.B) { benchColScan(b, PAX) }

func benchColScan(b *testing.B, l Layout) {
	s := testSchema()
	bl := NewBuilder(s, l)
	bl.Reset(0)
	i := 0
	for bl.Append(makeTuple(i)) {
		i++
	}
	buf := append([]byte(nil), bl.Finish()...)
	r, err := NewReader(s, buf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for n := 0; n < b.N; n++ {
		r.Int64Column(1, func(_ int, v int64) { sum += v })
	}
	_ = sum
}

// reseal rewrites buf's checksum so it verifies, whatever else buf says.
func reseal(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[offCRC:], 0)
	binary.LittleEndian.PutUint32(buf[offCRC:], crc32.Checksum(buf, crcTable))
	return buf
}

// FuzzReaderBind feeds Bind arbitrary bytes: every input must either
// bind or fail with one of the page errors, never panic, and a page
// that binds must decode every tuple and column. An input is a page's
// head and tail — the header and the NSM slot directory — with zeros
// between, small enough for the fuzzer to mutate quickly; it is tried
// as given and again with a correct checksum, so the fuzzer reaches
// the checks behind the checksum. The head alone is tried too, as
// bytes of any length.
func FuzzReaderBind(f *testing.F) {
	const edge = 96
	s := testSchema()
	add := func(page []byte) { f.Add(page[:edge], page[PageSize-edge:]) }
	for _, l := range []Layout{NSM, PAX} {
		add(buildPage(f, s, l, 0))
		add(buildPage(f, s, l, 12))
		add(buildPage(f, s, l, Capacity(s, l)))
		over := buildPage(f, s, l, 3)
		binary.LittleEndian.PutUint16(over[offCount:], uint16(Capacity(s, l)+1))
		add(over)
	}
	stray := buildPage(f, s, NSM, 3)
	binary.LittleEndian.PutUint16(stray[PageSize-4:], PageSize-8) // slot 1
	add(stray)

	pageErrs := []error{ErrBadMagic, ErrBadChecksum, ErrBadLayout, ErrBadSize, ErrSchema, ErrBadCount, ErrBadSlot}
	r := ReaderFor(s)
	check := func(t *testing.T, buf []byte) {
		err := r.Bind(buf)
		if err != nil {
			for _, want := range pageErrs {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("Bind: untyped error %v", err)
		}
		var tup schema.Tuple
		for i := 0; i < r.Count(); i++ {
			tup = r.Tuple(tup, i)
		}
		for c := 0; c < s.NumColumns(); c++ {
			if s.Column(c).Kind == schema.Char {
				r.BytesColumnInto(c, nil)
			} else {
				r.Int64ColumnInto(c, nil)
			}
		}
	}
	f.Fuzz(func(t *testing.T, head, tail []byte) {
		check(t, head)
		buf := make([]byte, PageSize)
		copy(buf[PageSize-min(len(tail), PageSize):], tail)
		copy(buf, head)
		check(t, buf)
		check(t, reseal(buf))
	})
}
