package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"streamjoin/internal/tuple"
)

// sampleMessages returns one instance of every message kind with non-trivial
// field content.
func sampleMessages() []Message {
	return []Message{
		&Hello{Slave: 3, Epoch: 41, Active: true, Occupancy: 0.25,
			WindowBytes: 1 << 20, BacklogBytes: 512, MoveACKs: []int64{9, 12}},
		&Batch{Epoch: 42, Activate: true,
			Tuples: []tuple.Tuple{
				{Stream: tuple.S1, Key: 7, TS: 100},
				{Stream: tuple.S2, Key: 9, TS: 101},
			},
			Directives: []Directive{{MoveID: 1, Group: 2, From: 0, To: 1}}},
		&Batch{Epoch: 12, Origin: 987_654_321},
		&WindowDelta{From: 1, Group: 2, MoveID: 5, Epoch: 3, Close: true, GlobalDepth: 3,
			Buckets: []BucketSpec{{LocalDepth: 1, Bits: 0}, {LocalDepth: 2, Bits: 3}},
			Runs: [2][]tuple.Tuple{
				{{Stream: tuple.S1, Key: 1, TS: 10}},
				{{Stream: tuple.S2, Key: 2, TS: 11}},
			},
			Pending: []tuple.Tuple{{Stream: tuple.S1, Key: 4, TS: 12}}},
		&ResultBatch{Slave: 1, Outputs: 10, DelaySumMs: 100, DelayMinMs: 1, DelayMaxMs: 30},
		&PairBatch{Slave: 1, Group: 2, Epoch: 6, Pairs: []OutPair{
			{Probe: tuple.Tuple{Stream: tuple.S1, Key: 7, TS: 100},
				Stored: tuple.Packed{Key: 7, TS: 90}},
			{Probe: tuple.Tuple{Stream: tuple.S2, Key: 9, TS: 101},
				Stored: tuple.Packed{Key: 9, TS: 80}},
		}},
		&QuerySet{Specs: []QuerySpec{{Query: 1, Prober: 2, SinkAddr: "127.0.0.1:9"}, {Query: 2}}},
		&ResultBatch{Slave: 2, Query: 3, Outputs: 4, DelaySumMs: 9, DelayMinMs: 1, DelayMaxMs: 5},
		&PairBatch{Slave: 2, Query: 5, Group: 1, Epoch: 7, Pairs: []OutPair{
			{Probe: tuple.Tuple{Stream: tuple.S1, Key: 3, TS: 50},
				Stored: tuple.Packed{Key: 3, TS: 44}},
		}},
		&Membership{Epoch: 2, Self: 1, Slaves: []MemberSpec{
			{ID: 0, Addr: "127.0.0.1:7410", Workers: 4},
			{ID: 1, Addr: "127.0.0.1:7411", Workers: 8},
			{ID: 3, Addr: "10.0.0.7:9000", Workers: 2},
		}},
		&Ping{Slave: 3, Seq: 12, Leave: true},
		&Pong{Slave: 3, Seq: 12},
	}
}

// TestFrameWriterRoundTrip packs multiple messages per frame and checks the
// reader returns them in order, value-identical.
func TestFrameWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	msgs := append(sampleMessages(), sampleMessages()...)
	for _, m := range msgs {
		if err := fw.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if fw.PendingMessages() != len(msgs) {
		t.Fatalf("pending = %d, want %d", fw.PendingMessages(), len(msgs))
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	frames, messages, _ := fw.Stats()
	if frames != 1 || messages != int64(len(msgs)) {
		t.Fatalf("writer stats: frames=%d messages=%d", frames, messages)
	}

	fr := NewFrameReader(&buf)
	for i, want := range msgs {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last message: %v, want EOF", err)
	}
}

// TestFrameWriterAutoFlushThreshold checks the byte threshold cuts frames.
func TestFrameWriterAutoFlushThreshold(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 64)
	big := &Batch{Epoch: 1, Tuples: make([]tuple.Tuple, 20)} // ~200 bytes encoded
	if err := fw.Append(big); err != nil {
		t.Fatal(err)
	}
	if fw.PendingMessages() != 0 {
		t.Fatalf("threshold crossing did not flush: %d pending", fw.PendingMessages())
	}
	small := &Hello{Slave: 1} // 42 encoded bytes, below the threshold
	if err := fw.Append(small); err != nil {
		t.Fatal(err)
	}
	if fw.PendingMessages() != 1 {
		t.Fatal("small message should stay buffered below threshold")
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for i := 0; i < 2; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if frames, _, _ := fr.Stats(); frames != 2 {
		t.Fatalf("frames read = %d, want 2", frames)
	}
}

// TestFrameWriterFlushEmptyIsNoop ensures idle flushes write nothing.
func TestFrameWriterFlushEmptyIsNoop(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty flush wrote %d bytes", buf.Len())
	}
}

// TestFrameWriterShrinksScratchBuffer checks the size-classing: after a burst
// of huge frames followed by sustained small traffic the retained scratch
// buffer is reallocated down.
func TestFrameWriterShrinksScratchBuffer(t *testing.T) {
	fw := NewFrameWriter(io.Discard, 0)
	huge := &Batch{Epoch: 1, Tuples: make([]tuple.Tuple, 1<<16)}
	if err := fw.Append(huge); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	grown := cap(fw.buf)
	if grown < 1<<16 {
		t.Fatalf("scratch buffer did not grow: cap %d", grown)
	}
	small := &ResultBatch{Slave: 1}
	for i := 0; i < 2*shrinkEvery; i++ {
		if err := fw.Append(small); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(fw.buf) >= grown {
		t.Fatalf("scratch buffer never shrank: cap %d", cap(fw.buf))
	}
}

// TestFrameWriterSplitsAtFrameLimit checks that the envelope overhead can
// never push an emitted frame past the size limit: when one more message
// would overflow a multi-message frame, the earlier messages are flushed in
// their own frame first, and a message too large for any frame is rejected
// without disturbing messages already flushed.
func TestFrameWriterSplitsAtFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	fw.limit = 128

	small := &Hello{Slave: 1} // 42 encoded bytes
	for i := 0; i < 3; i++ {  // 3×42+5 = 131 > 128: the third must split
		if err := fw.Append(small); err != nil {
			t.Fatal(err)
		}
	}
	if fw.PendingMessages() != 1 {
		t.Fatalf("pending after split = %d, want 1", fw.PendingMessages())
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	oversized := &Batch{Epoch: 1, Tuples: make([]tuple.Tuple, 100)} // ~930 bytes
	if err := fw.Append(oversized); err == nil {
		t.Fatal("oversized message accepted")
	}
	if fw.PendingMessages() != 0 {
		t.Fatalf("rejected message left %d pending", fw.PendingMessages())
	}
	// The writer remains usable and earlier frames intact.
	if err := fw.Append(small); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every emitted frame respects the limit, and all 4 messages survive.
	raw := buf.Bytes()
	frames := 0
	for off := 0; off < len(raw); {
		n := int(binary.BigEndian.Uint32(raw[off : off+4]))
		if n > fw.limit {
			t.Fatalf("frame %d is %d bytes, over the %d limit", frames, n, fw.limit)
		}
		off += 4 + n
		frames++
	}
	if frames != 3 {
		t.Fatalf("frames = %d, want 3 (2+1 split, then 1)", frames)
	}
	fr := NewFrameReader(&buf)
	for i := 0; i < 4; i++ {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, small) {
			t.Fatalf("message %d corrupted by the split: %+v", i, got)
		}
	}
}

// TestFrameReaderShrinksScratchBuffer mirrors the writer's size-classing
// test: a giant frame must not pin its allocation once traffic shrinks.
func TestFrameReaderShrinksScratchBuffer(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	huge := &Batch{Epoch: 1, Tuples: make([]tuple.Tuple, 1<<16)}
	if err := fw.Append(huge); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	small := &Hello{Slave: 1}
	for i := 0; i < 2*shrinkEvery; i++ {
		if err := fw.Append(small); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	grown := cap(fr.body)
	if grown < 1<<16 {
		t.Fatalf("scratch buffer did not grow: cap %d", grown)
	}
	for i := 0; i < 2*shrinkEvery; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if cap(fr.body) >= grown {
		t.Fatalf("reader scratch buffer never shrank: cap %d", cap(fr.body))
	}
}

// TestBatchFrameErrors covers the malformed-envelope cases a hostile or
// corrupted peer could present.
func TestBatchFrameErrors(t *testing.T) {
	frame := func(body []byte) []byte {
		out := []byte{byte(len(body) >> 24), byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}
		return append(out, body...)
	}
	valid := Marshal(&ResultBatch{Slave: 1})

	cases := []struct {
		name string
		body []byte
	}{
		{"zero-count", []byte{byte(KindFrameBatch), 0, 0, 0, 0}},
		{"count-exceeds-body", append([]byte{byte(KindFrameBatch), 0, 0, 0, 200}, valid...)},
		{"oversized-count", []byte{byte(KindFrameBatch), 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}},
		{"envelope-truncated", []byte{byte(KindFrameBatch), 0, 0}},
		{"empty-frame", nil},
		{"trailing-bytes", append(append([]byte{byte(KindFrameBatch), 0, 0, 0, 1}, valid...), 0xAA)},
		{"truncated-inner-message", append([]byte{byte(KindFrameBatch), 0, 0, 0, 2}, valid[:len(valid)-3]...)},
		{"nested-batch-kind", []byte{byte(KindFrameBatch), 0, 0, 0, 1, byte(KindFrameBatch)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewFrameReader(bytes.NewReader(frame(tc.body)))
			for {
				_, err := fr.Next()
				if err == nil {
					continue // a prefix of valid messages may decode
				}
				if errors.Is(err, io.EOF) {
					t.Fatal("malformed batch frame decoded cleanly")
				}
				return
			}
		})
	}
}
