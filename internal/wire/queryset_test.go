package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streamjoin/internal/tuple"
)

func randQuerySet(r *rand.Rand, n int) *QuerySet {
	qs := &QuerySet{}
	if n > 0 {
		qs.Specs = make([]QuerySpec, n) // n == 0 stays nil, like a decode
	}
	addrs := []string{"", "127.0.0.1:9009", "collect.example:7"}
	for i := range qs.Specs {
		qs.Specs[i] = QuerySpec{
			Query:     r.Int31n(64),
			Prober:    uint8(r.Intn(3)),
			CountOnly: r.Intn(2) == 1,
			SinkAddr:  addrs[r.Intn(len(addrs))],
		}
	}
	return qs
}

// TestQuerySetRoundTrip checks Marshal/Unmarshal identity across sizes,
// including the empty set, and the WireSize accounting.
func TestQuerySetRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 64} {
		in := randQuerySet(r, n)
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, ok := out.(*QuerySet)
		if !ok {
			t.Fatalf("n=%d: decoded %T", n, out)
		}
		if len(got.Specs) != n || (n > 0 && !reflect.DeepEqual(got.Specs, in.Specs)) {
			t.Fatalf("n=%d: specs diverged: %+v != %+v", n, got.Specs, in.Specs)
		}
		want := int64(headerSize + 4)
		for _, sp := range in.Specs {
			want += 10 + int64(len(sp.SinkAddr))
		}
		if in.WireSize() != want {
			t.Fatalf("n=%d: WireSize = %d, want %d", n, in.WireSize(), want)
		}
	}
}

// TestQuerySetTruncated replays every strict prefix of an encoded set; each
// must fail cleanly (no panic, no fabricated message).
func TestQuerySetTruncated(t *testing.T) {
	full := Marshal(randQuerySet(rand.New(rand.NewSource(7)), 9))
	for cut := 0; cut < len(full); cut++ {
		if m, err := Unmarshal(full[:cut]); err == nil {
			t.Fatalf("prefix %d of %d decoded as %v", cut, len(full), m.Kind())
		}
	}
}

// TestQuerySetMutatedCount rewrites the spec-count prefix of a valid
// encoding to every interesting wrong value: decoding must error and never
// panic.
func TestQuerySetMutatedCount(t *testing.T) {
	full := Marshal(randQuerySet(rand.New(rand.NewSource(9)), 5))
	// Layout: kind(1) + count(4) + specs.
	const countOff = 1
	for _, count := range []uint32{0, 1, 4, 6, 1 << 16, 1 << 27, 1<<28 + 1, ^uint32(0)} {
		buf := append([]byte(nil), full...)
		binary.BigEndian.PutUint32(buf[countOff:], count)
		if m, err := Unmarshal(buf); err == nil {
			t.Fatalf("count %d accepted as %v", count, m.Kind())
		}
	}
}

// TestQuerySetCorruptAddrLenNoGiantAlloc proves a huge string length over a
// tiny body cannot force a proportional preallocation.
func TestQuerySetCorruptAddrLenNoGiantAlloc(t *testing.T) {
	in := &QuerySet{Specs: []QuerySpec{{Query: 1, Prober: 2, SinkAddr: "x:1"}}}
	buf := Marshal(in)
	// Layout: kind(1) + count(4) + query(4) + prober(1) + countOnly(1) +
	// addrLen(4) + addr.
	const addrLenOff = 1 + 4 + 4 + 1 + 1
	binary.BigEndian.PutUint32(buf[addrLenOff:], 1<<28)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Unmarshal(buf); err == nil {
			t.Fatal("corrupt addr length accepted")
		}
	})
	if allocs > 8 {
		t.Fatalf("corrupt addr length cost %.0f allocs/op", allocs)
	}
}

func randQueryPairBatch(r *rand.Rand, query int32, n int) *PairBatch {
	pb := randPairBatch(r, n)
	pb.Query = query
	return pb
}

// TestQueryTaggedKindSelection pins the kind rule: a pair or result batch
// has one kind whatever its query id, query 0 included.
func TestQueryTaggedKindSelection(t *testing.T) {
	for _, q := range []int32{0, 3, 1 << 20} {
		if k := (&PairBatch{Query: q}).Kind(); k != KindPairBatch {
			t.Fatalf("query-%d pair batch kind = %v", q, k)
		}
		if k := (&ResultBatch{Query: q}).Kind(); k != KindResultBatch {
			t.Fatalf("query-%d result batch kind = %v", q, k)
		}
	}
}

// TestQueryZeroEncodingUnchanged: a batch for query 0 and one for query 7
// have the same encoded length and WireSize, and their encodings differ only
// in the query id that follows the kind byte, so query 0's traffic is
// charged exactly as a batch of any other query.
func TestQueryZeroEncodingUnchanged(t *testing.T) {
	pb := randPairBatch(rand.New(rand.NewSource(2)), 12)
	pb7 := *pb
	pb7.Query = 7
	rb := &ResultBatch{Slave: 2, Outputs: 11, DelaySumMs: 40, DelayMinMs: 1, DelayMaxMs: 9}
	rb7 := *rb
	rb7.Query = 7
	for _, c := range [][2]Message{{pb, &pb7}, {rb, &rb7}} {
		zero, seven := c[0], c[1]
		if zero.WireSize() != seven.WireSize() {
			t.Fatalf("%v: query 0 charged %d bytes, query 7 %d",
				zero.Kind(), zero.WireSize(), seven.WireSize())
		}
		e0, e7 := Marshal(zero), Marshal(seven)
		want := append([]byte(nil), e0...)
		binary.BigEndian.PutUint32(want[1:], 7)
		if !bytes.Equal(e7, want) {
			t.Fatalf("%v: query 7 encodes as %x, want query 0's %x with id 7", zero.Kind(), e7, e0)
		}
	}
}

// TestQueryTaggedRoundTrip round-trips pair and result batches of query 0
// and of other query ids, directly and through the batched physical framing.
func TestQueryTaggedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	msgs := []Message{
		randQueryPairBatch(r, 1, 10),
		randQueryPairBatch(r, 9, 0),
		randQueryPairBatch(r, 0, 5),
		&ResultBatch{Slave: 1, Query: 2, Outputs: 3, Hist: [DelayHistBuckets]int64{1: 3}},
		&ResultBatch{Slave: 1, Outputs: 3, Hist: [DelayHistBuckets]int64{2: 3}},
		randQueryPairBatch(r, 1<<20, 300),
		randQueryPairBatch(r, math.MaxInt32, 1),
		&QuerySet{Specs: []QuerySpec{{Query: 1, Prober: 2, SinkAddr: "a:1"}, {Query: 2}}},
	}
	for i, in := range msgs {
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("message %d: %+v != %+v", i, out, in)
		}
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	for _, m := range msgs {
		if err := fw.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for i, want := range msgs {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("framed message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("framed message %d: %+v != %+v", i, got, want)
		}
	}
}

// TestQueryTaggedPairBatchTruncated replays every strict prefix of pair and
// result batches, of query 0 and of another id; each must fail cleanly.
func TestQueryTaggedPairBatchTruncated(t *testing.T) {
	for _, q := range []int32{0, 17} {
		for _, m := range []Message{
			randQueryPairBatch(rand.New(rand.NewSource(8)), q, 25),
			&ResultBatch{Slave: 1, Query: q, Outputs: 9},
		} {
			full := Marshal(m)
			for cut := 0; cut < len(full); cut++ {
				if got, err := Unmarshal(full[:cut]); err == nil {
					t.Fatalf("query %d: %v prefix %d of %d decoded as %v", q, m.Kind(), cut, len(full), got.Kind())
				}
			}
		}
	}
}

// TestQueryTaggedPairBatchMutatedCount rewrites the pair-count prefix of
// valid pair batches, of query 0 and of another id, to every interesting
// wrong value; decoding must error and never panic, and a huge count must
// stay within a small allocation budget.
func TestQueryTaggedPairBatchMutatedCount(t *testing.T) {
	for _, q := range []int32{0, 6} {
		full := Marshal(randQueryPairBatch(rand.New(rand.NewSource(9)), q, 8))
		for _, count := range []uint32{0, 1, 7, 9, 1 << 16, 1 << 27, 1<<28 + 1, ^uint32(0)} {
			buf := append([]byte(nil), full...)
			binary.BigEndian.PutUint32(buf[pairCountOff:], count)
			if m, err := Unmarshal(buf); err == nil {
				t.Fatalf("query %d: count %d accepted as %v", q, count, m.Kind())
			}
		}
		buf := append([]byte(nil), full...)
		binary.BigEndian.PutUint32(buf[pairCountOff:], 1<<28)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Unmarshal(buf); err == nil {
				t.Fatal("corrupt count accepted")
			}
		})
		if allocs > 8 {
			t.Fatalf("query %d: corrupt count cost %.0f allocs/op", q, allocs)
		}
	}
}

// TestQuerySetWireSizeHasResultSizeFreeAccounting pins that QuerySet is
// control-plane overhead only: its WireSize never scales with
// tuple.ResultSize (it carries no outputs).
func TestQuerySetWireSizeHasResultSizeFreeAccounting(t *testing.T) {
	qs := randQuerySet(rand.New(rand.NewSource(1)), 10)
	if qs.WireSize() >= tuple.ResultSize*10 {
		t.Fatalf("QuerySet charges %d bytes for 10 specs", qs.WireSize())
	}
}
