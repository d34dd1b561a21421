package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"streamjoin/internal/tuple"
)

// pairCountOff is the offset of a PairBatch's pair count in its encoding:
// kind(1) + query(4) + slave(4) + group(4) + epoch(8).
const pairCountOff = 1 + 4 + 4 + 4 + 8

func randPairBatch(r *rand.Rand, n int) *PairBatch {
	pb := &PairBatch{
		Slave: r.Int31n(16),
		Group: r.Int31n(64),
		Epoch: r.Int63n(1 << 30),
	}
	if n > 0 {
		pb.Pairs = make([]OutPair, n) // n == 0 stays nil, like a decode
	}
	for i := range pb.Pairs {
		pb.Pairs[i] = OutPair{
			Probe: tuple.Tuple{
				Stream: tuple.StreamID(r.Intn(2)),
				Key:    r.Int31(),
				TS:     r.Int31(),
			},
			Stored: tuple.Packed{Key: r.Int31(), TS: r.Int31()},
		}
	}
	return pb
}

// TestPairBatchRoundTrip checks Marshal/Unmarshal identity across sizes,
// including the empty batch, and the WireSize accounting (composite-result
// volume, like ResultBatch).
func TestPairBatchRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		in := randPairBatch(r, n)
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, ok := out.(*PairBatch)
		if !ok {
			t.Fatalf("n=%d: decoded %T", n, out)
		}
		if got.Slave != in.Slave || got.Group != in.Group || got.Epoch != in.Epoch {
			t.Fatalf("n=%d: header fields %+v != %+v", n, got, in)
		}
		if len(got.Pairs) != n || (n > 0 && !reflect.DeepEqual(got.Pairs, in.Pairs)) {
			t.Fatalf("n=%d: pairs diverged", n)
		}
		if want := int64(headerSize + 16 + tuple.ResultSize*n); in.WireSize() != want {
			t.Fatalf("n=%d: WireSize = %d, want %d", n, in.WireSize(), want)
		}
	}
}

// TestPairBatchFramedRoundTrip runs pair batches through the batched physical
// framing alongside other message kinds, interleaved in one stream.
func TestPairBatchFramedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	msgs := []Message{
		randPairBatch(r, 10),
		&Hello{Slave: 1, Epoch: 2},
		randPairBatch(r, 0),
		randPairBatch(r, 300),
		&ResultBatch{Slave: 1, Outputs: 3},
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
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: %+v != %+v", i, got, want)
		}
	}
}

// TestPairBatchTruncated replays every strict prefix of an encoded batch;
// each must fail cleanly (no panic, no fabricated message).
func TestPairBatchTruncated(t *testing.T) {
	full := Marshal(randPairBatch(rand.New(rand.NewSource(7)), 25))
	for cut := 0; cut < len(full); cut++ {
		if m, err := Unmarshal(full[:cut]); err == nil {
			t.Fatalf("prefix %d of %d decoded as %v", cut, len(full), m.Kind())
		}
	}
}

// TestPairBatchMutatedCount rewrites the pair-count prefix of a valid
// encoding to every interesting wrong value: decoding must error (or, when
// the count happens to describe a shorter valid prefix, reject the trailing
// bytes) and must never panic.
func TestPairBatchMutatedCount(t *testing.T) {
	full := Marshal(randPairBatch(rand.New(rand.NewSource(9)), 8))
	for _, count := range []uint32{0, 1, 7, 9, 1 << 16, 1 << 27, 1<<28 + 1, ^uint32(0)} {
		buf := append([]byte(nil), full...)
		binary.BigEndian.PutUint32(buf[pairCountOff:], count)
		if m, err := Unmarshal(buf); err == nil {
			t.Fatalf("count %d accepted as %v", count, m.Kind())
		}
	}
}

// TestPairBatchCorruptCountNoGiantAlloc proves a huge count prefix over a
// tiny body cannot force a proportional preallocation: decoding the corrupt
// message must stay within a small allocation budget.
func TestPairBatchCorruptCountNoGiantAlloc(t *testing.T) {
	// A valid header claiming maxSliceLen pairs, followed by one pair's
	// worth of bytes.
	buf := Marshal(randPairBatch(rand.New(rand.NewSource(1)), 1))
	binary.BigEndian.PutUint32(buf[pairCountOff:], 1<<28)
	bytesAlloc := testing.AllocsPerRun(10, func() {
		if _, err := Unmarshal(buf); err == nil {
			t.Fatal("corrupt count accepted")
		}
	})
	// The decoder may allocate the message struct and a capped pair slice;
	// a giant prealloc would show up as megabytes, not a handful of allocs.
	if bytesAlloc > 8 {
		t.Fatalf("corrupt count cost %.0f allocs/op", bytesAlloc)
	}
	var m PairBatch
	d := &decoder{buf: buf[1:]}
	if err := m.decodeFrom(d); err == nil {
		t.Fatal("corrupt count accepted by decodeFrom")
	}
	if cap(m.Pairs) > 8 {
		t.Fatalf("corrupt count preallocated %d pair slots", cap(m.Pairs))
	}
}
