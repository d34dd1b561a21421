package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"

	"streamjoin/internal/tuple"
)

// lastKind is the highest message kind: random bodies are put behind every
// kind byte up to it.
const lastKind = KindStateChunk

// soak is how many generated inputs a plain go test feeds a decoder: full,
// or short under -short.
func soak(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// mutationBase is a valid message of every kind.
func mutationBase() []Message {
	r := rand.New(rand.NewSource(5))
	return []Message{
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
		randWindowDelta(r, 4, 4),
		randStateChunk(r, 4, 4),
	}
}

// frameBase is the batched-frame mutation base: the field-rich messages of
// every kind, tuple-bearing Batch and StateTransfer included.
func frameBase() []Message {
	r := rand.New(rand.NewSource(5))
	return append(sampleMessages(), randWindowDelta(r, 4, 4), randStateChunk(r, 4, 4))
}

// flipBits returns a copy of base with 1 to maxFlips random bits flipped.
func flipBits(r *rand.Rand, base []byte, maxFlips int) []byte {
	buf := append([]byte(nil), base...)
	for k := 0; k < 1+r.Intn(maxFlips); k++ {
		buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
	}
	return buf
}

// randomBody is up to 4KB of random bytes behind a random kind byte.
func randomBody(r *rand.Rand) []byte {
	buf := make([]byte, r.Intn(4096))
	r.Read(buf)
	if len(buf) > 0 {
		buf[0] = byte(Kind(r.Intn(256)) % (lastKind + 1))
	}
	return buf
}

// randomEnvelope is a batched-frame envelope of a random count over a
// random body.
func randomEnvelope(r *rand.Rand) []byte {
	body := randomBody(r)
	frame := make([]byte, 0, 9+len(body))
	frame = binary.BigEndian.AppendUint32(frame, uint32(5+len(body)))
	frame = append(frame, byte(KindFrameBatch))
	frame = binary.BigEndian.AppendUint32(frame, uint32(r.Intn(64)))
	return append(frame, body...)
}

// multiFrame is one well-formed frame holding every message of msgs.
func multiFrame(tb testing.TB, msgs []Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	for _, m := range msgs {
		if err := fw.Append(m); err != nil {
			tb.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// unmarshalSafely decodes data, reporting a panic as a test failure.
func unmarshalSafely(t *testing.T, data []byte) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			t.Errorf("panic on %d bytes: %v", len(data), rec)
		}
	}()
	_, _ = Unmarshal(data)
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

// TestUnmarshalNeverPanics feeds random bodies behind every kind byte to
// Unmarshal; it must return an error or a message, never panic. This is the
// safety property the TCP deployment relies on for untrusted frames.
func TestUnmarshalNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for range soak(2000, 100) {
		unmarshalSafely(t, randomBody(r))
	}
}

// TestMutatedFramesNeverPanic flips bits of a valid encoding of every kind.
func TestMutatedFramesNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, m := range mutationBase() {
		base := Marshal(m)
		for range soak(500, 50) {
			unmarshalSafely(t, flipBits(r, base, 4))
		}
	}
}

// TestBatchDecoderNeverPanics feeds batched-frame envelopes of random counts
// over random bodies, behind every kind byte, to the FrameReader. Malformed
// input must surface as an error, never a panic.
func TestBatchDecoderNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for range soak(2000, 100) {
		drainFrames(t, randomEnvelope(r))
	}
}

// TestMutatedBatchFramesNeverPanic flips bits of a well-formed frame holding
// a field-rich message of every kind: corrupted counts, lengths, kinds and
// bodies must all be rejected without panicking.
func TestMutatedBatchFramesNeverPanic(t *testing.T) {
	base := multiFrame(t, frameBase())
	r := rand.New(rand.NewSource(11))
	for range soak(500, 50) {
		drainFrames(t, flipBits(r, base, 6))
	}
}

// FuzzUnmarshal is the open-ended form of the two Unmarshal tests above
// (go test -fuzz FuzzUnmarshal), seeded with both mutation bases' encodings.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range append(mutationBase(), frameBase()...) {
		f.Add(Marshal(m))
	}
	f.Fuzz(unmarshalSafely)
}

// FuzzFrameReader is the open-ended form of the two FrameReader tests above
// (go test -fuzz FuzzFrameReader), seeded with a well-formed frame of every
// kind and one random envelope.
func FuzzFrameReader(f *testing.F) {
	f.Add(multiFrame(f, frameBase()))
	f.Add(randomEnvelope(rand.New(rand.NewSource(13))))
	f.Fuzz(drainFrames)
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
