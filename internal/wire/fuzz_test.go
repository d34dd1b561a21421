package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"streamjoin/internal/tuple"
)

// TestUnmarshalNeverPanics feeds random byte slices — including ones that
// start with valid kind bytes — to Unmarshal; it must return an error or a
// message, never panic. This is the safety property the TCP deployment
// relies on for untrusted frames.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(seed int64, n uint16, kind uint8) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(n)%4096)
		r.Read(buf)
		if len(buf) > 0 {
			buf[0] = kind % 13 // bias toward valid kinds, query-tagged and membership ones included
		}
		defer func() {
			if rec := recover(); rec != nil {
				t.Errorf("panic on %d bytes (kind %d): %v", len(buf), kind%13, rec)
			}
		}()
		_, _ = Unmarshal(buf)
		return true
	}
	max := 2000 // soak-style; keep a sanity pass in -short runs
	if testing.Short() {
		max = 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
}

// drainFrames pulls messages from a FrameReader until an error, reporting a
// panic as a test failure. It is the hardened loop the live transports run.
func drainFrames(t *testing.T, raw []byte) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			t.Errorf("panic on %d-byte stream: %v", len(raw), rec)
		}
	}()
	fr := NewFrameReader(bytes.NewReader(raw))
	for {
		if _, err := fr.Next(); err != nil {
			return
		}
	}
}

// TestBatchDecoderNeverPanics feeds random batched-frame envelopes — random
// counts over random bodies, biased toward valid kind bytes — to the
// FrameReader. Malformed input must surface as an error, never a panic.
func TestBatchDecoderNeverPanics(t *testing.T) {
	f := func(seed int64, n uint16, count uint32, kind uint8) bool {
		r := rand.New(rand.NewSource(seed))
		body := make([]byte, int(n)%4096)
		r.Read(body)
		if len(body) > 0 {
			body[0] = kind % 13 // bias toward valid kinds, including FrameBatch, query-tagged and membership ones
		}
		frame := make([]byte, 0, 9+len(body))
		frame = binary.BigEndian.AppendUint32(frame, uint32(5+len(body)))
		frame = append(frame, byte(KindFrameBatch))
		frame = binary.BigEndian.AppendUint32(frame, count%64)
		frame = append(frame, body...)
		drainFrames(t, frame)
		return true
	}
	max := 2000 // soak-style; keep a sanity pass in -short runs
	if testing.Short() {
		max = 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
}

// TestMutatedBatchFramesNeverPanic flips bytes of well-formed multi-message
// frames: corrupted counts, lengths, kinds and bodies must all be rejected
// without panicking, and whatever prefix decodes must still be messages.
func TestMutatedBatchFramesNeverPanic(t *testing.T) {
	var base bytes.Buffer
	fw := NewFrameWriter(&base, 0)
	for _, m := range sampleMessages() {
		if err := fw.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	trials := 500 // soak-style; keep a sanity pass in -short runs
	if testing.Short() {
		trials = 50
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < trials; trial++ {
		buf := append([]byte(nil), base.Bytes()...)
		for k := 0; k < 1+r.Intn(6); k++ {
			buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
		}
		drainFrames(t, buf)
	}
}

// TestTruncatedBatchFramesNeverPanic replays every prefix of a well-formed
// multi-message stream; each must end in a clean error (usually EOF or
// ErrUnexpectedEOF), never a panic or a fabricated message.
func TestTruncatedBatchFramesNeverPanic(t *testing.T) {
	var base bytes.Buffer
	fw := NewFrameWriter(&base, 0)
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := fw.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	full := base.Bytes()
	for cut := 0; cut < len(full); cut++ {
		fr := NewFrameReader(bytes.NewReader(full[:cut]))
		n := 0
		for {
			_, err := fr.Next()
			if err == nil {
				n++
				continue
			}
			if err == io.EOF && n != 0 {
				t.Fatalf("prefix %d: clean EOF after %d of %d messages", cut, n, len(msgs))
			}
			break
		}
	}
}

// TestMutatedFramesNeverPanic flips bytes of valid encodings.
func TestMutatedFramesNeverPanic(t *testing.T) {
	msgs := []Message{
		&Hello{Slave: 1, Epoch: 2, MoveACKs: []int64{1, 2, 3}},
		&Batch{Epoch: 3, Directives: []Directive{{MoveID: 1, Group: 2, From: 0, To: 1}}},
		&Batch{Epoch: -1, Origin: 1_250_000_000, Activate: true},
		&StateTransfer{MoveID: 4, Buckets: []BucketSpec{{LocalDepth: 2, Bits: 1}}},
		&ResultBatch{Slave: 1, Outputs: 10},
		&ResultBatch{Slave: 1, Query: 2, Outputs: 10},
		&PairBatch{Slave: 1, Group: 3, Epoch: 9, Pairs: []OutPair{
			{Probe: tuple.Tuple{Stream: tuple.S1, Key: 7, TS: 100},
				Stored: tuple.Packed{Key: 7, TS: 42}},
		}},
		&PairBatch{Slave: 1, Query: 4, Group: 3, Epoch: 9, Pairs: []OutPair{
			{Probe: tuple.Tuple{Stream: tuple.S2, Key: 5, TS: 90},
				Stored: tuple.Packed{Key: 5, TS: 40}},
		}},
		&QuerySet{Specs: []QuerySpec{{Query: 1, Prober: 2, SinkAddr: "h:1"}, {Query: 2, CountOnly: true}}},
		&Membership{Epoch: 3, Self: 1, Slaves: []MemberSpec{
			{ID: 0, Addr: "127.0.0.1:7410", Workers: 4},
			{ID: 1, Addr: "127.0.0.1:7411", Workers: 2},
		}},
		&Ping{Slave: 2, Seq: 17, Leave: true},
		&Pong{Slave: 2, Seq: 17},
	}
	trials := 500 // soak-style; keep a sanity pass in -short runs
	if testing.Short() {
		trials = 50
	}
	r := rand.New(rand.NewSource(7))
	for _, m := range msgs {
		base := Marshal(m)
		for trial := 0; trial < trials; trial++ {
			buf := append([]byte(nil), base...)
			for k := 0; k < 1+r.Intn(4); k++ {
				buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
			}
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						t.Fatalf("panic on mutated %v: %v", m.Kind(), rec)
					}
				}()
				_, _ = Unmarshal(buf)
			}()
		}
	}
}
