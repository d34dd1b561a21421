package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"streamjoin/internal/tuple"
)

func randDeltaRun(r *rand.Rand, n int) []tuple.Tuple {
	if n == 0 {
		return nil // like a decode
	}
	run := make([]tuple.Tuple, n)
	ts := int32(r.Intn(1000))
	for i := range run {
		ts += int32(r.Intn(5))
		run[i] = tuple.Tuple{
			Stream: tuple.StreamID(r.Intn(2)),
			Key:    r.Int31n(1 << 20),
			TS:     ts,
		}
	}
	return run
}

// randWindowDelta is a replication delta: MoveID 0, no close part.
func randWindowDelta(r *rand.Rand, n0, n1 int) *WindowDelta {
	return &WindowDelta{
		From:   r.Int31n(16),
		Group:  r.Int31n(64),
		Epoch:  r.Int63n(1 << 30),
		Reset:  r.Intn(2) == 0,
		Cutoff: r.Int31n(1 << 20),
		Runs:   [2][]tuple.Tuple{randDeltaRun(r, n0), randDeltaRun(r, n1)},
	}
}

// randInstallment is one installment of a state movement: a non-zero
// MoveID, its position in the stream in Epoch, Reset on installment 0.
func randInstallment(r *rand.Rand, n0, n1 int) *WindowDelta {
	seq := r.Int63n(4)
	return &WindowDelta{
		From:   r.Int31n(16),
		Group:  r.Int31n(64),
		MoveID: 1 + r.Int63n(1<<40),
		Epoch:  seq,
		Reset:  seq == 0,
		Runs:   [2][]tuple.Tuple{randDeltaRun(r, n0), randDeltaRun(r, n1)},
	}
}

// randCloseDelta is the closing delta of a state movement: catch-up runs,
// nb directory buckets and np pending tuples.
func randCloseDelta(r *rand.Rand, n0, n1, nb, np int) *WindowDelta {
	wd := randInstallment(r, n0, n1)
	wd.Reset = false
	wd.Close = true
	wd.GlobalDepth = uint8(r.Intn(16))
	for range nb {
		wd.Buckets = append(wd.Buckets, BucketSpec{LocalDepth: uint8(r.Intn(16)), Bits: r.Uint32() & 0xffff})
	}
	wd.Pending = randDeltaRun(r, np)
	return wd
}

// replicationDelta is the replication role with the given run shape. The
// movement roles are covered by the StateChunk tests.
func replicationDelta(r *rand.Rand, n0, n1 int) map[string]*WindowDelta {
	return map[string]*WindowDelta{"replication": randWindowDelta(r, n0, n1)}
}

// checkDeltaRoundTrip checks Marshal/Unmarshal identity for every delta
// roles builds, across run shapes, empty runs included.
func checkDeltaRoundTrip(t *testing.T, seed int64, roles func(*rand.Rand, int, int) map[string]*WindowDelta) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for _, shape := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {5, 7}, {256, 9}, {1000, 1000}} {
		for role, in := range roles(r, shape[0], shape[1]) {
			out, err := Unmarshal(Marshal(in))
			if err != nil {
				t.Fatalf("%s %v: %v", role, shape, err)
			}
			got, ok := out.(*WindowDelta)
			if !ok {
				t.Fatalf("%s %v: decoded %T", role, shape, out)
			}
			if !reflect.DeepEqual(got, in) {
				t.Fatalf("%s %v:\ngot  %+v\nwant %+v", role, shape, got, in)
			}
		}
	}
}

// TestWindowDeltaRoundTrip checks Marshal/Unmarshal identity for the
// replication role across run shapes, empty runs included.
func TestWindowDeltaRoundTrip(t *testing.T) {
	checkDeltaRoundTrip(t, 3, replicationDelta)
}

// TestWindowDeltaWireSize pins the logical size each role charges: the
// simulator times movement and replication by it, so a change moves the
// golden figures.
func TestWindowDeltaWireSize(t *testing.T) {
	runs := [2][]tuple.Tuple{make([]tuple.Tuple, 3), make([]tuple.Tuple, 2)}
	for _, c := range []struct {
		name string
		wd   WindowDelta
		want int64
	}{
		{"replication", WindowDelta{Runs: runs}, headerSize + 21 + 5*tuple.LogicalSize},
		{"replication-empty", WindowDelta{Reset: true}, headerSize + 21},
		{"installment", WindowDelta{MoveID: 7, Runs: runs}, headerSize + 16 + 5*tuple.LogicalSize},
		{"installment-empty", WindowDelta{MoveID: 7, Reset: true}, headerSize + 16},
		{"close", WindowDelta{MoveID: 7, Close: true, Runs: runs,
			Buckets: make([]BucketSpec, 2), Pending: make([]tuple.Tuple, 4)},
			headerSize + 24 + 2*5 + 9*tuple.LogicalSize},
		{"close-empty", WindowDelta{MoveID: 7, Close: true}, headerSize + 24},
	} {
		if got := c.wd.WireSize(); got != c.want {
			t.Errorf("%s: WireSize = %d, want %d", c.name, got, c.want)
		}
	}
}

// checkDeltaTruncated replays every strict prefix of each delta roles
// builds; each must fail cleanly (no panic, no fabricated message).
func checkDeltaTruncated(t *testing.T, roles map[string]*WindowDelta) {
	t.Helper()
	for role, in := range roles {
		full := Marshal(in)
		for cut := 0; cut < len(full); cut++ {
			if got, err := Unmarshal(full[:cut]); err == nil {
				t.Fatalf("%s: prefix %d of %d decoded as %v", role, cut, len(full), got.Kind())
			}
		}
	}
}

// TestWindowDeltaTruncated replays every strict prefix of an encoded
// replication delta.
func TestWindowDeltaTruncated(t *testing.T) {
	checkDeltaTruncated(t, replicationDelta(rand.New(rand.NewSource(7)), 6, 3))
}

// windowDeltaCountOff locates the first run-count prefix inside an encoding:
// kind(1) + from(4) + group(4) + moveID(8) + epoch(8) + reset(1) + cutoff(4).
const windowDeltaCountOff = 1 + 4 + 4 + 8 + 8 + 1 + 4

// deltaCountOffsets lists the offsets of every count prefix in wd's
// encoding: count0, then 9 bytes per run-0 tuple, count1, the close byte
// and, when Close is set, the global depth, the bucket count, 5 bytes per
// bucket and the pending count.
func deltaCountOffsets(wd *WindowDelta) []int {
	off1 := windowDeltaCountOff + 4 + tupleEncSize*len(wd.Runs[0])
	offs := []int{windowDeltaCountOff, off1}
	if wd.Close {
		buckets := off1 + 4 + tupleEncSize*len(wd.Runs[1]) + 2
		offs = append(offs, buckets, buckets+4+5*len(wd.Buckets))
	}
	return offs
}

// checkDeltaMutatedCount rewrites every count prefix of a valid encoding
// of each delta roles builds to every interesting wrong value: decoding
// must error and must never panic.
func checkDeltaMutatedCount(t *testing.T, roles map[string]*WindowDelta) {
	t.Helper()
	for role, in := range roles {
		full := Marshal(in)
		for _, off := range deltaCountOffsets(in) {
			for _, count := range []uint32{1, 3, 5, 1 << 16, 1 << 27, 1<<28 + 1, ^uint32(0)} {
				buf := append([]byte(nil), full...)
				binary.BigEndian.PutUint32(buf[off:], count)
				if m, err := Unmarshal(buf); err == nil {
					t.Fatalf("%s: count %d at offset %d accepted as %v", role, count, off, m.Kind())
				}
			}
		}
	}
}

// TestWindowDeltaMutatedCount mutates both run counts of a replication
// delta.
func TestWindowDeltaMutatedCount(t *testing.T) {
	checkDeltaMutatedCount(t, replicationDelta(rand.New(rand.NewSource(9)), 4, 2))
}

// checkDeltaCorruptCountNoGiantAlloc proves a huge count over a tiny body
// cannot force a proportional preallocation, at every count prefix of each
// delta roles builds: decoding the corrupt message must stay within a
// small allocation budget.
func checkDeltaCorruptCountNoGiantAlloc(t *testing.T, roles map[string]*WindowDelta) {
	t.Helper()
	for role, in := range roles {
		for _, off := range deltaCountOffsets(in) {
			buf := Marshal(in)
			binary.BigEndian.PutUint32(buf[off:], 1<<28)
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := Unmarshal(buf); err == nil {
					t.Fatalf("%s: corrupt count at %d accepted", role, off)
				}
			})
			// The decoder may allocate the message struct and capped
			// slices; a giant prealloc would show up as megabytes, not a
			// handful of allocs.
			if allocs > 8 {
				t.Fatalf("%s: corrupt count at %d cost %.0f allocs/op", role, off, allocs)
			}
			var wd WindowDelta
			d := &decoder{buf: buf[1:]}
			if err := wd.decodeFrom(d); err == nil {
				t.Fatalf("%s: corrupt count at %d accepted by decodeFrom", role, off)
			}
			if cap(wd.Runs[0]) > 8 || cap(wd.Runs[1]) > 8 || cap(wd.Buckets) > 8 || cap(wd.Pending) > 8 {
				t.Fatalf("%s: corrupt count at %d preallocated %d/%d/%d/%d slots", role, off,
					cap(wd.Runs[0]), cap(wd.Runs[1]), cap(wd.Buckets), cap(wd.Pending))
			}
		}
	}
}

// TestWindowDeltaCorruptCountNoGiantAlloc checks the preallocation bound at
// both run counts of a replication delta.
func TestWindowDeltaCorruptCountNoGiantAlloc(t *testing.T) {
	checkDeltaCorruptCountNoGiantAlloc(t, replicationDelta(rand.New(rand.NewSource(1)), 2, 0))
}

// checkFramedRoundTrip runs msgs through the batched physical framing and
// expects them back in order and unchanged.
func checkFramedRoundTrip(t *testing.T, msgs []Message) {
	t.Helper()
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

// TestWindowDeltaFramedRoundTrip runs replication deltas through the
// batched physical framing alongside other kinds, as the replication stream
// does in production.
func TestWindowDeltaFramedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	checkFramedRoundTrip(t, []Message{
		randWindowDelta(r, 3, 0),
		&Hello{Slave: 1, Epoch: 2},
		randWindowDelta(r, 0, 0),
		randMembership(r, 2),
		randWindowDelta(r, 40, 40),
	})
}

// fuzzDecodeRoundTrip is the body of the decoder fuzz targets: arbitrary
// bytes must never panic the decoder, and every accepted message must
// re-encode to the same bytes.
func fuzzDecodeRoundTrip(t *testing.T, data []byte) {
	m, err := Unmarshal(data)
	if err != nil {
		return
	}
	if !bytes.Equal(Marshal(m), data) {
		t.Fatalf("accepted message %+v does not re-encode to its input", m)
	}
}

// FuzzWindowDeltaDecode fuzzes the decoder from replication-delta seeds;
// FuzzStateChunkDecode seeds the movement roles.
func FuzzWindowDeltaDecode(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	f.Add(Marshal(randWindowDelta(r, 4, 4)))
	f.Add(Marshal(randWindowDelta(r, 0, 0)))
	f.Add([]byte{byte(KindWindowDelta)})
	f.Add(nonCanonicalReset(f))
	f.Fuzz(fuzzDecodeRoundTrip)
}
