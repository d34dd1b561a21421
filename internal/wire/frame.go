package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Physical framing. Two frame layouts travel over a live connection, both
// behind the same 4-byte big-endian length prefix:
//
//	single:  len | kind(1..4) | message body
//	batched: len | kind=KindFrameBatch | u32 count | count × (kind | body)
//
// FrameWriter emits the single layout for a frame holding one message and
// the batched envelope when more than one message is pending at flush time;
// FrameReader decodes both.
//
// Framing is purely physical: WireSize (the paper-logical accounting size)
// is untouched by how many messages share a frame.

// MaxFrameBytes bounds the size of a single frame on a live transport
// (256 MB), comfortably above the largest state transfer the defaults can
// produce.
const MaxFrameBytes = 1 << 28

// KindFrameBatch tags a physical frame that packs several messages. It is a
// frame-envelope discriminator, not a Message kind: Unmarshal rejects it.
const KindFrameBatch Kind = 5

// batchHeaderLen is the envelope overhead of a batched frame body: the
// KindFrameBatch byte plus the u32 message count.
const batchHeaderLen = 1 + 4

// ErrBadBatch reports a malformed batched frame (zero or oversized count,
// or an envelope shorter than its header).
var ErrBadBatch = errors.New("wire: malformed batch frame")

// FrameWriter packs appended messages into length-prefixed frames, encoding
// into a scratch buffer that is reused across flushes so the steady-state
// send path does not allocate. A frame holding one message is written in the
// single-message layout (length prefix, then Marshal's encoding); two or
// more messages share one KindFrameBatch envelope.
type FrameWriter struct {
	w io.Writer

	// buf holds the batch envelope header followed by the encoded pending
	// messages; it is retained across flushes for reuse.
	buf   []byte
	count int

	// flushBytes auto-flushes Append once the pending frame body reaches
	// the threshold (0 never auto-flushes; Flush is always explicit).
	flushBytes int

	// Size-classing of the retained buffer: peak tracks the largest frame
	// body since the last shrink check; every shrinkEvery flushes the
	// buffer is reallocated down if the peak used under a quarter of it.
	peak    int
	flushes int

	// limit overrides MaxFrameBytes in tests (0 = MaxFrameBytes).
	limit int

	frames   int64
	messages int64
	bytes    int64
	hdr      [4]byte
}

// shrinkEvery is how many flushes pass between scratch-buffer shrink checks;
// minRetainedCap is the size below which the buffer is never shrunk.
const (
	shrinkEvery    = 64
	minRetainedCap = 4 << 10
)

// NewFrameWriter returns a FrameWriter over w. flushBytes is the pending-body
// size at which Append flushes on its own; 0 disables auto-flushing.
func NewFrameWriter(w io.Writer, flushBytes int) *FrameWriter {
	return &FrameWriter{
		w:          w,
		buf:        make([]byte, batchHeaderLen, minRetainedCap),
		flushBytes: flushBytes,
	}
}

// max returns the frame size limit (the test hook limit, if set).
func (fw *FrameWriter) max() int {
	if fw.limit > 0 {
		return fw.limit
	}
	return MaxFrameBytes
}

// Append encodes m into the pending frame. It writes nothing unless the
// pending body reaches the auto-flush threshold or adding m would push a
// multi-message frame past MaxFrameBytes — then the earlier messages go out
// in their own frame first, so every emitted frame (envelope included) stays
// within the limit a FrameReader accepts. A message too large for any frame
// is rejected.
func (fw *FrameWriter) Append(m Message) error {
	before := len(fw.buf)
	prev := fw.count
	fw.buf = AppendMessage(fw.buf, m)
	fw.count++
	if len(fw.buf) > fw.max() {
		if prev > 0 {
			if err := fw.flushFirst(prev, before); err != nil {
				return err
			}
		}
		// The new message now sits alone; the envelope no longer applies,
		// so only its own encoding can still break the limit.
		if over := fw.Pending(); over > fw.max() {
			fw.buf = fw.buf[:batchHeaderLen]
			fw.count = 0
			return fmt.Errorf("wire: frame of %d bytes exceeds limit", over)
		}
	}
	if fw.flushBytes > 0 && fw.Pending() >= fw.flushBytes {
		return fw.Flush()
	}
	return nil
}

// Pending reports the encoded bytes currently buffered (excluding envelope).
func (fw *FrameWriter) Pending() int { return len(fw.buf) - batchHeaderLen }

// PendingMessages reports the number of messages currently buffered.
func (fw *FrameWriter) PendingMessages() int { return fw.count }

// Flush writes the pending messages as one frame. With nothing pending it is
// a no-op; with exactly one message it emits the single-message layout.
func (fw *FrameWriter) Flush() error {
	if fw.count == 0 {
		return nil
	}
	if err := fw.flushFirst(fw.count, len(fw.buf)); err != nil {
		return err
	}
	fw.maybeShrink()
	return nil
}

// flushFirst writes the first n pending messages — the encoded bytes in
// buf[batchHeaderLen:end] — as one frame and slides any remaining pending
// bytes to the front of the scratch buffer.
func (fw *FrameWriter) flushFirst(n, end int) error {
	var frame []byte
	if n == 1 {
		// Skip the envelope: a lone message (kind byte onward) is already
		// in the single-message layout.
		frame = fw.buf[batchHeaderLen:end]
	} else {
		fw.buf[0] = byte(KindFrameBatch)
		binary.BigEndian.PutUint32(fw.buf[1:batchHeaderLen], uint32(n))
		frame = fw.buf[:end]
	}
	binary.BigEndian.PutUint32(fw.hdr[:], uint32(len(frame)))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	if _, err := fw.w.Write(frame); err != nil {
		return err
	}
	fw.frames++
	fw.messages += int64(n)
	fw.bytes += int64(len(fw.hdr) + len(frame))
	if used := len(fw.buf); used > fw.peak {
		fw.peak = used
	}
	fw.flushes++
	rest := len(fw.buf) - end
	copy(fw.buf[batchHeaderLen:], fw.buf[end:])
	fw.buf = fw.buf[:batchHeaderLen+rest]
	fw.count -= n
	return nil
}

// maybeShrink reallocates the retained scratch buffer down when it has been
// persistently oversized for recent traffic. Only safe with nothing pending.
func (fw *FrameWriter) maybeShrink() {
	if fw.count != 0 || fw.flushes < shrinkEvery {
		return
	}
	if c := cap(fw.buf); c > minRetainedCap && fw.peak < c/4 {
		next := fw.peak * 2
		if next < minRetainedCap {
			next = minRetainedCap
		}
		fw.buf = make([]byte, batchHeaderLen, next)
	}
	fw.peak, fw.flushes = 0, 0
}

// Stats reports frames and messages written and the physical bytes put on
// the wire (length prefixes included) since the writer was created.
func (fw *FrameWriter) Stats() (frames, messages, bytes int64) {
	return fw.frames, fw.messages, fw.bytes
}

// FrameReader decodes frames in either layout from r, reading frame bodies
// into a scratch buffer that is reused across frames. Messages decoded from
// a batched frame are surfaced one per Next call, in frame order.
type FrameReader struct {
	r    io.Reader
	body []byte
	d    decoder
	left int // messages remaining in the current batched frame

	// Size-classing mirroring FrameWriter: peak is the largest frame since
	// the last shrink check, every shrinkEvery frames the scratch buffer is
	// reallocated down if recent frames used under a quarter of it.
	peak  int
	reads int

	frames   int64
	messages int64
	bytes    int64
}

// NewFrameReader returns a FrameReader over r (typically a *bufio.Reader).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, body: make([]byte, 0, minRetainedCap)}
}

// Next returns the next message: the remainder of the current batched frame
// if one is open, otherwise the first message of a freshly read frame.
// Decoded messages do not alias the scratch buffer.
func (fr *FrameReader) Next() (Message, error) {
	if fr.left > 0 {
		return fr.nextInBatch()
	}
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit", n)
	}
	if int(n) > fr.peak {
		fr.peak = int(n)
	}
	if fr.reads++; fr.reads >= shrinkEvery {
		// One oversized frame (a reorganization's state transfer) must not
		// pin its allocation for the connection lifetime: size-class down
		// once recent frames stay well under the retained capacity.
		if c := cap(fr.body); c > minRetainedCap && fr.peak < c/4 {
			next := fr.peak * 2
			if next < minRetainedCap {
				next = minRetainedCap
			}
			fr.body = make([]byte, 0, next)
		}
		fr.peak, fr.reads = 0, 0
	}
	if cap(fr.body) < int(n) {
		// Grow with headroom so a run of slightly-growing frames does not
		// reallocate every time.
		fr.body = make([]byte, n, int(n)+int(n)/4)
	}
	fr.body = fr.body[:n]
	if _, err := io.ReadFull(fr.r, fr.body); err != nil {
		return nil, err
	}
	fr.frames++
	fr.bytes += int64(len(hdr)) + int64(n)
	if n == 0 {
		return nil, ErrTruncated
	}
	if Kind(fr.body[0]) != KindFrameBatch {
		fr.messages++
		return Unmarshal(fr.body)
	}
	if len(fr.body) < batchHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte envelope", ErrBadBatch, len(fr.body))
	}
	count := binary.BigEndian.Uint32(fr.body[1:batchHeaderLen])
	rest := len(fr.body) - batchHeaderLen
	// Every message costs at least its kind byte, so a count beyond the
	// remaining bytes (or zero, which the writer never emits) is corrupt.
	if count == 0 || int64(count) > int64(rest) {
		return nil, fmt.Errorf("%w: count %d in %d body bytes", ErrBadBatch, count, rest)
	}
	fr.d = decoder{buf: fr.body[batchHeaderLen:]}
	fr.left = int(count)
	return fr.nextInBatch()
}

// nextInBatch decodes one message from the open batched frame.
func (fr *FrameReader) nextInBatch() (Message, error) {
	m, err := decodeMessage(&fr.d)
	if err != nil {
		fr.left = 0
		return nil, err
	}
	fr.left--
	if fr.left == 0 && len(fr.d.buf) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch frame", len(fr.d.buf))
	}
	fr.messages++
	return m, nil
}

// Stats reports frames and messages read and the physical bytes consumed
// (length prefixes included) since the reader was created.
func (fr *FrameReader) Stats() (frames, messages, bytes int64) {
	return fr.frames, fr.messages, fr.bytes
}
