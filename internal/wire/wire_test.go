package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"streamjoin/internal/tuple"
)

func roundtrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Marshal(m)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m.Kind(), err)
	}
	return got
}

func TestHelloRoundtrip(t *testing.T) {
	h := &Hello{
		Slave:       3,
		Epoch:       1234567,
		Occupancy:   0.375,
		WindowBytes: 1 << 30,
		MoveACKs:    []int64{9, 10, 11},
		Degraded:    []int64{10},
		Closing:     []int64{12},
	}
	got := roundtrip(t, h).(*Hello)
	if !reflect.DeepEqual(h, got) {
		t.Fatalf("got %+v want %+v", got, h)
	}
}

func TestHelloEmptyACKs(t *testing.T) {
	h := &Hello{Slave: 1, Epoch: 1}
	got := roundtrip(t, h).(*Hello)
	if len(got.MoveACKs) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestBatchRoundtrip(t *testing.T) {
	b := &Batch{
		Epoch:      42,
		Origin:     2_345_678_901,
		Activate:   true,
		Deactivate: false,
		Tuples: []tuple.Tuple{
			{Stream: tuple.S1, Key: 100, TS: 5},
			{Stream: tuple.S2, Key: -7, TS: 6},
		},
		Directives: []Directive{{MoveID: 1, Group: 2, From: 3, To: 4}},
	}
	got := roundtrip(t, b).(*Batch)
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("got %+v want %+v", got, b)
	}
}

// TestStateTransferRoundtrip round-trips the closing delta of a state
// transfer: catch-up runs, directory shape and backlog.
func TestStateTransferRoundtrip(t *testing.T) {
	st := &WindowDelta{
		From:        2,
		MoveID:      77,
		Group:       5,
		Epoch:       4,
		Close:       true,
		GlobalDepth: 3,
		Buckets: []BucketSpec{
			{LocalDepth: 2, Bits: 1},
			{LocalDepth: 3, Bits: 3},
			{LocalDepth: 3, Bits: 7},
		},
		Pending: []tuple.Tuple{{Stream: tuple.S1, Key: 1, TS: 2}},
	}
	st.Runs[0] = []tuple.Tuple{{Stream: tuple.S1, Key: 10, TS: 20}}
	st.Runs[1] = []tuple.Tuple{{Stream: tuple.S2, Key: 11, TS: 21}, {Stream: tuple.S2, Key: 12, TS: 22}}
	got := roundtrip(t, st).(*WindowDelta)
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("got %+v want %+v", got, st)
	}
}

func TestResultBatchRoundtrip(t *testing.T) {
	r := &ResultBatch{
		Slave:      2,
		Outputs:    1000,
		DelaySumMs: 123456,
		DelayMinMs: 3,
		DelayMaxMs: 999,
	}
	for i := range r.Hist {
		r.Hist[i] = int64(i * i)
	}
	got := roundtrip(t, r).(*ResultBatch)
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("got %+v want %+v", got, r)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty buffer should fail")
	}
	if _, err := Unmarshal([]byte{200}); err == nil {
		t.Fatal("unknown kind should fail")
	}
	// Truncated Hello.
	b := Marshal(&Hello{Slave: 1, Epoch: 2, MoveACKs: []int64{1, 2}})
	for cut := 1; cut < len(b); cut += 7 {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	// Trailing garbage.
	if _, err := Unmarshal(append(Marshal(&Hello{}), 0xff)); err == nil {
		t.Fatal("trailing bytes not detected")
	}
	// Hostile slice length.
	bad := []byte{byte(KindBatch)}
	bad = appendI64(bad, 1)
	bad = appendBool(bad, false)
	bad = appendBool(bad, false)
	bad = appendU32(bad, math.MaxUint32) // claimed tuple count
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("oversized slice length not rejected")
	}
}

func randomTuples(r *rand.Rand, n int) []tuple.Tuple {
	if n == 0 {
		return nil
	}
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{
			Stream: tuple.StreamID(r.Intn(2)),
			Key:    r.Int31(),
			TS:     r.Int31(),
		}
	}
	return out
}

func TestQuickBatchRoundtrip(t *testing.T) {
	f := func(epoch, origin int64, act, deact bool, seed int64, nt, nd uint8) bool {
		r := rand.New(rand.NewSource(seed))
		b := &Batch{Epoch: epoch, Origin: origin, Activate: act, Deactivate: deact,
			Tuples: randomTuples(r, int(nt))}
		for i := 0; i < int(nd)%8; i++ {
			b.Directives = append(b.Directives, Directive{
				MoveID: r.Int63(), Group: r.Int31(), From: r.Int31(), To: r.Int31(),
			})
		}
		got, err := Unmarshal(Marshal(b))
		return err == nil && reflect.DeepEqual(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStateTransferRoundtrip round-trips random closing deltas.
func TestQuickStateTransferRoundtrip(t *testing.T) {
	f := func(moveID int64, group int32, gd uint8, seed int64, n0, n1, np uint8) bool {
		r := rand.New(rand.NewSource(seed))
		st := &WindowDelta{MoveID: moveID, Group: group, Close: true, GlobalDepth: gd % 16}
		for i := 0; i < int(gd)%5; i++ {
			st.Buckets = append(st.Buckets, BucketSpec{LocalDepth: uint8(r.Intn(16)), Bits: r.Uint32() & 0xffff})
		}
		st.Runs[0] = randomTuples(r, int(n0))
		st.Runs[1] = randomTuples(r, int(n1))
		st.Pending = randomTuples(r, int(np))
		got, err := Unmarshal(Marshal(st))
		return err == nil && reflect.DeepEqual(got, st)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizeAccountsTuples(t *testing.T) {
	b := &Batch{Tuples: randomTuples(rand.New(rand.NewSource(1)), 10)}
	empty := &Batch{}
	if b.WireSize()-empty.WireSize() != 10*tuple.LogicalSize {
		t.Fatalf("batch tuple accounting: %d vs %d", b.WireSize(), empty.WireSize())
	}
	// The anchor's Origin is part of every batch's fixed overhead, so the
	// overhead stays one constant that a byte counter can be inverted with.
	if anchor := (&Batch{Epoch: -1, Origin: 1 << 40, Activate: true}); anchor.WireSize() != empty.WireSize() {
		t.Fatalf("anchor batch charged %d bytes, an empty batch %d", anchor.WireSize(), empty.WireSize())
	}
	r := &ResultBatch{Outputs: 5}
	r0 := &ResultBatch{}
	if r.WireSize()-r0.WireSize() != 5*tuple.ResultSize {
		t.Fatal("result batches must charge composite result size")
	}
}

// TestBatchLayout pins the encoding of an anchor batch byte for byte: kind,
// epoch, origin, the three flags, then the (empty) tuple and directive
// counts.
func TestBatchLayout(t *testing.T) {
	b := &Batch{Epoch: -1, Origin: 0x0102030405060708, Activate: true}
	want := []byte{byte(KindBatch)}
	want = binary.BigEndian.AppendUint64(want, math.MaxUint64) // epoch -1
	want = binary.BigEndian.AppendUint64(want, 0x0102030405060708)
	want = append(want, 1, 0, 0)
	want = binary.BigEndian.AppendUint32(want, 0)
	want = binary.BigEndian.AppendUint32(want, 0)
	if got := Marshal(b); !bytes.Equal(got, want) {
		t.Fatalf("anchor batch encodes as %x, want %x", got, want)
	}
}

// TestFrameRoundtrip flushes every message alone, so each travels in the
// single-message layout, and reads the frames back.
func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	msgs := []Message{
		&Hello{Slave: 1, Epoch: 2, Occupancy: 0.5},
		&Batch{Epoch: 3, Tuples: randomTuples(rand.New(rand.NewSource(2)), 100)},
		&Batch{Epoch: -1, Origin: 1_250_000_000, Activate: true},
		&ResultBatch{Slave: 1, Outputs: 7},
	}
	for _, m := range msgs {
		if err := fw.Append(m); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	whole := append([]byte(nil), buf.Bytes()...)
	// A lone message is framed as a big-endian u32 length then Marshal(m).
	var layout []byte
	for _, m := range msgs {
		body := Marshal(m)
		layout = binary.BigEndian.AppendUint32(layout, uint32(len(body)))
		layout = append(layout, body...)
	}
	if !bytes.Equal(whole, layout) {
		t.Fatalf("single-message frames = %x, want length-prefixed Marshal output %x", whole, layout)
	}
	fr := NewFrameReader(&buf)
	for _, want := range msgs {
		got, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame roundtrip: got %+v want %+v", got, want)
		}
	}
	if frames, _, _ := fr.Stats(); frames != int64(len(msgs)) {
		t.Fatalf("frames read = %d, want %d", frames, len(msgs))
	}
	if _, err := fr.Next(); err == nil {
		t.Fatal("read past end should fail")
	}
	// The first frame cut short, inside its header or its body, fails
	// instead of decoding.
	first := 4 + len(Marshal(msgs[0]))
	for _, cut := range []int{2, 4, 10, first - 1} {
		if _, err := NewFrameReader(bytes.NewReader(whole[:cut])).Next(); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes decoded", cut, first)
		}
	}
}

func TestFrameRejectsOversizedHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := NewFrameReader(&buf).Next(); err == nil {
		t.Fatal("oversized frame length not rejected")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindHello, KindBatch, KindWindowDelta, KindResultBatch, KindPairBatch} {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Fatalf("bad name %q", k.String())
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind formatting")
	}
}
