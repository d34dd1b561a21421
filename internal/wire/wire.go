// Package wire defines the messages exchanged by the master, slaves and
// collector, together with a machine-independent (big-endian) binary codec.
//
// The same message structs travel over both engines: the simulated network
// passes them by reference and charges WireSize, while the live TCP
// transport marshals them with Marshal/Unmarshal (framed by the transport).
// WireSize reports the paper-accounting size — tuples count their 64-byte
// logical size and result batches count the composite result tuples they
// summarize — which is what all communication-overhead metrics use.
//
// Paper correspondence: the message set is the paper's fixed per-epoch
// communication pattern (§IV-B/§IV-C) — Hello is the slave's load report
// opening each epoch exchange, Batch carries the master's drained
// mini-buffers plus reorganization directives, a stream of WindowDeltas is
// the direct supplier→consumer partition-group movement, and ResultBatch is
// the slave→collector output summary — plus PairBatch, the beyond-the-paper
// slave→downstream-consumer delivery of materialized output pairs (the
// engine's SocketSink produces it, cmd/sjoin-collect consumes it) and the
// elastic-membership control kinds (Membership roster broadcasts and
// Ping/Pong heartbeats — see their type docs).
// FrameWriter/FrameReader add the batched physical framing described in
// README.md ("Wire protocol"); framing never changes WireSize.
package wire

import (
	"errors"
	"fmt"
	"math"

	"streamjoin/internal/tuple"
)

// Version is the revision of the protocol spoken with these messages. A
// joining slave announces its own in the Membership that opens the join
// handshake and the master turns away any other, so a cluster never mixes
// revisions; a build that predates the constant announces 0. It changes
// whenever peers of two revisions would act differently on the same
// messages, even if every message still decodes: revision 1 streams every
// state movement in installments while the master keeps routing the group
// to its supplier, where a supplier of revision 0 gave the group up in the
// directive epoch; revision 2 adds Batch.Origin, the master's epoch-grid
// origin, and a slave sets its clock to the master's from the anchor batch
// where a slave of revision 1 restarted its own clock at the anchor;
// revision 3 streams a state movement as WindowDeltas (a MoveID and a
// closing part added to the replication delta) where revision 2 sent
// StateChunk installments closed by a StateTransfer, two kinds it no longer
// has; revision 4 follows an active slave's epoch Batch with data-slot
// Batches (tuples only, same epoch) before its next Hello, where a slave of
// revision 3 sent that Hello at once.
const Version = 4

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds.
const (
	KindHello Kind = 1 + iota
	KindBatch
	_ // 3 was StateTransfer, before state movement became a WindowDelta stream
	KindResultBatch
	_ // 5 is KindFrameBatch, the physical frame envelope (frame.go)
	KindPairBatch
	KindQuerySet
	// KindResultBatchQ and KindPairBatchQ are the query-tagged encodings of
	// ResultBatch and PairBatch: same body, prefixed with a non-zero query
	// id. Query 0 always encodes as the plain kinds, so single-query
	// traffic carries no query ids.
	KindResultBatchQ
	KindPairBatchQ
	// KindMembership, KindPing and KindPong carry cluster membership on the
	// TCP deployment: a joining slave announces itself with a Membership
	// carrying its mesh address, the master sends the roster back, and
	// heartbeats ride a dedicated control connection.
	KindMembership
	KindPing
	KindPong
	// KindWindowDelta carries window state slave→slave: the installments
	// of a state movement, and the crash-recovery replication stream by
	// which each epoch a partition-group's owner ships the window rows it
	// ingested (plus an expiry watermark) to its buddy slave.
	KindWindowDelta
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "Hello"
	case KindBatch:
		return "Batch"
	case KindResultBatch:
		return "ResultBatch"
	case KindFrameBatch:
		return "FrameBatch"
	case KindPairBatch:
		return "PairBatch"
	case KindQuerySet:
		return "QuerySet"
	case KindResultBatchQ:
		return "ResultBatchQ"
	case KindPairBatchQ:
		return "PairBatchQ"
	case KindMembership:
		return "Membership"
	case KindPing:
		return "Ping"
	case KindPong:
		return "Pong"
	case KindWindowDelta:
		return "WindowDelta"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// headerSize is the logical overhead WireSize charges for each message.
const headerSize = 16

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
	// WireSize is the logical size in bytes used for all timing and
	// communication-overhead accounting.
	WireSize() int64
	appendTo(b []byte) []byte
	decodeFrom(d *decoder) error
}

// ErrTruncated reports a message shorter than its encoding requires.
var ErrTruncated = errors.New("wire: truncated message")

// ErrUnknownKind reports an unrecognized kind byte.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// Marshal encodes m as kind byte + body in big-endian layout.
func Marshal(m Message) []byte {
	return AppendMessage(make([]byte, 0, 64), m)
}

// AppendMessage appends m's encoding (kind byte + body) to b and returns the
// extended slice. It allocates only when b lacks capacity, which is what the
// framing layer's reused scratch buffers rely on.
func AppendMessage(b []byte, m Message) []byte {
	b = append(b, byte(m.Kind()))
	return m.appendTo(b)
}

// decodeMessage decodes one message (kind byte + body) from d, leaving any
// following bytes in place for the caller.
func decodeMessage(d *decoder) (Message, error) {
	if len(d.buf) == 0 {
		return nil, ErrTruncated
	}
	k := Kind(d.buf[0])
	d.buf = d.buf[1:]
	var m Message
	switch k {
	case KindHello:
		m = &Hello{}
	case KindBatch:
		m = &Batch{}
	case KindResultBatch:
		m = &ResultBatch{}
	case KindPairBatch:
		m = &PairBatch{}
	case KindQuerySet:
		m = &QuerySet{}
	case KindMembership:
		m = &Membership{}
	case KindPing:
		m = &Ping{}
	case KindPong:
		m = &Pong{}
	case KindWindowDelta:
		m = &WindowDelta{}
	case KindResultBatchQ, KindPairBatchQ:
		// Query-tagged variants: a non-zero query id precedes the legacy
		// body. Query 0 must use the legacy kind (the canonical encoding),
		// so the id is validated here.
		query := d.i32()
		if d.err != nil {
			return nil, d.err
		}
		if query == 0 {
			return nil, fmt.Errorf("wire: %v carries query id 0 (legacy kind required)", k)
		}
		if k == KindResultBatchQ {
			m = &ResultBatch{Query: query}
		} else {
			m = &PairBatch{Query: query}
		}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, k)
	}
	if err := m.decodeFrom(d); err != nil {
		return nil, err
	}
	return m, nil
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(b []byte) (Message, error) {
	d := &decoder{buf: b}
	m, err := decodeMessage(d)
	if err != nil {
		return nil, err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(d.buf), m.Kind())
	}
	return m, nil
}

// Hello is the per-epoch slave→master report that opens each exchange of the
// fixed communication pattern: identity, epoch, the average buffer occupancy
// over the current reorganization interval, and acknowledgements of
// completed partition-group movements.
type Hello struct {
	Slave        int32
	Epoch        int64
	Active       bool
	Occupancy    float64 // average buffer occupancy in [0,1]
	WindowBytes  int64   // current window state held (metrics)
	BacklogBytes int64   // unprocessed buffered tuples (metrics)
	MoveACKs     []int64 // completed MoveIDs
	Degraded     []int64 // MoveIDs completed with an empty install (state lost)
	// Closing lists in-flight state movements whose supplier has fully
	// shipped its snapshot and will send the closing catch-up delta this
	// epoch. Until then the master keeps routing the moving group's new
	// tuples to the supplier (which probes them and folds them into the
	// delta); on Closing it starts withholding them, so the consumer's
	// catch-up backlog is bounded by the ack round trip — one or two epochs —
	// instead of the whole transfer.
	Closing []int64
}

// Kind implements Message.
func (*Hello) Kind() Kind { return KindHello }

// WireSize implements Message.
func (h *Hello) WireSize() int64 {
	return headerSize + 48 + 8*int64(len(h.MoveACKs)+len(h.Degraded)+len(h.Closing))
}

// Directive orders one partition-group movement: From yields Group to To.
// Both the supplier and the consumer receive the same directive and derive
// their role from their own slave ID.
type Directive struct {
	MoveID int64
	Group  int32
	From   int32
	To     int32
}

// Batch is the master→slave response: the tuples buffered for the slave's
// partition-groups since its last service, plus any reorganization
// directives and declustering-degree changes.
//
// Tuples is group-contiguous and timestamp-ordered within each group: all
// tuples of one partition-group form one run, in the order the master
// buffered them; runs of different groups follow one another and the batch
// as a whole is not timestamp-ordered. The codec neither relies on nor
// changes the order. A receiver that gets the message by reference
// (in-process pipes) owns Tuples once Send returns and may alias it.
//
// Origin is meaningful on the anchor batch that completes a TCP join
// handshake: the master's grid origin in nanoseconds on its clock, so
// epoch e starts at Origin + e·t_d. It is a fixed-width field of every
// batch and is not charged by WireSize, which stays one constant
// per-batch overhead.
type Batch struct {
	Epoch      int64
	Origin     int64
	Activate   bool // slave (re)joins the active set
	Deactivate bool // slave must yield all groups and go inactive
	Shutdown   bool // live engine: orderly termination of the slave loop
	Tuples     []tuple.Tuple
	Directives []Directive
}

// Kind implements Message.
func (*Batch) Kind() Kind { return KindBatch }

// WireSize implements Message.
func (b *Batch) WireSize() int64 {
	return headerSize + 24 +
		tuple.LogicalSize*int64(len(b.Tuples)) +
		20*int64(len(b.Directives))
}

// BucketSpec describes one fine-tuning bucket of a partition-group so the
// consumer of a state movement can reconstruct the extendible-hashing
// directory without re-splitting (§IV-C: "The splitting information, if any,
// is also sent to the consumer").
type BucketSpec struct {
	LocalDepth uint8
	Bits       uint32 // canonical low `LocalDepth` bits identifying the bucket
}

// DelayHistBuckets is the number of power-of-two millisecond delay buckets
// carried by ResultBatch (bucket i counts delays in [2^i, 2^(i+1)) ms, with
// bucket 0 also absorbing sub-millisecond delays).
const DelayHistBuckets = 24

// ResultBatch is the slave→collector summary of the output tuples produced
// since the previous batch. Outputs are aggregated (count, delay sum and
// extrema, histogram) rather than materialized, but WireSize charges the
// full composite-result volume so communication accounting matches a system
// that ships every output tuple.
type ResultBatch struct {
	Slave      int32
	Query      int32 // producing query id; 0 encodes as the legacy kind
	Outputs    int64
	DelaySumMs int64
	DelayMinMs int32
	DelayMaxMs int32
	Hist       [DelayHistBuckets]int64
}

// Kind implements Message. A batch for query 0 encodes as the plain
// KindResultBatch, without a query id; any other query id uses the
// query-tagged kind.
func (r *ResultBatch) Kind() Kind {
	if r.Query != 0 {
		return KindResultBatchQ
	}
	return KindResultBatch
}

// WireSize implements Message.
func (r *ResultBatch) WireSize() int64 {
	n := int64(headerSize + 24 + tuple.ResultSize*r.Outputs)
	if r.Query != 0 {
		n += 4
	}
	return n
}

// OutPair is one materialized join output as shipped downstream: the probing
// tuple and the stored opposite-stream window tuple it matched. It is the
// wire-level mirror of the join module's Pair (wire sits below join in the
// layer map, so the pair layout is restated here rather than imported).
type OutPair struct {
	Probe  tuple.Tuple
	Stored tuple.Packed
}

// PairBatch is the slave→downstream-consumer delivery of one round's
// materialized output pairs: the producing slave and partition-group, the
// sink's emission sequence number (Epoch — unique per sink connection, but
// concurrent join workers can race it into the queue, so consumers must
// not assume the stream carries it in order), and the count-prefixed
// packed pairs. It rides the same batched physical framing as every other
// message, splitting across frames at MaxFrameBytes.
// WireSize charges the composite-result volume (tuple.ResultSize per pair),
// matching the accounting ResultBatch uses for the same outputs.
type PairBatch struct {
	Slave int32
	Query int32 // producing query id; 0 encodes as the legacy kind
	Group int32
	Epoch int64
	Pairs []OutPair
}

// Kind implements Message. A batch for query 0 encodes as the plain
// KindPairBatch, without a query id; any other query id uses the
// query-tagged kind.
func (pb *PairBatch) Kind() Kind {
	if pb.Query != 0 {
		return KindPairBatchQ
	}
	return KindPairBatch
}

// WireSize implements Message.
func (pb *PairBatch) WireSize() int64 {
	n := int64(headerSize + 16 + tuple.ResultSize*int64(len(pb.Pairs)))
	if pb.Query != 0 {
		n += 4
	}
	return n
}

// QuerySpec announces one registered query in a QuerySet: its id, prober
// mode (the join package's Mode value), count-only flag, and downstream
// sink address ("" when the query has none).
type QuerySpec struct {
	Query     int32
	Prober    uint8
	CountOnly bool
	SinkAddr  string
}

// QuerySet is the master→slave deployment handshake announcing the
// registered query specs, sent on the control connection before the start
// batch. A single-query deployment configured through the single-query
// fields (Config.Sink/CountOnly/SinkAddr) sends no QuerySet at all.
type QuerySet struct {
	Specs []QuerySpec
}

// Kind implements Message.
func (*QuerySet) Kind() Kind { return KindQuerySet }

// WireSize implements Message.
func (qs *QuerySet) WireSize() int64 {
	n := int64(headerSize + 4)
	for _, sp := range qs.Specs {
		n += 10 + int64(len(sp.SinkAddr))
	}
	return n
}

// MemberSpec describes one slave in a Membership roster: its cluster id, the
// mesh address its peers dial for state movement, and its announced join
// capacity (worker count).
type MemberSpec struct {
	ID      int32
	Addr    string // state-movement mesh listen address
	Workers int32  // announced join-worker capacity
}

// Membership carries the cluster roster in both directions. A slave
// dialing into a live cluster sends one right after its registration Hello:
// Self and the single roster entry's ID are -1 (unassigned), the entry
// announces the joiner's mesh address and capacity, and Epoch carries the
// joiner's wire Version. The master replies — and re-broadcasts on every
// roster change — with the assigned Self id, the group-ownership Epoch
// (monotone, bumped per membership transition), and the full live roster so
// members can dial new peers and prune dead ones. To a joiner of another
// Version it replies with Self -1 and its own Version in Epoch instead, and
// closes the connection.
//
// Paper correspondence: the follow-up paper ("Processing Database Joins over
// a Shared-Nothing System of Multicore Machines", §on reorganization,
// PAPERS.md) treats the processing-node set as changeable between
// reorganization intervals, with the coordinator re-planning partition
// placement at interval boundaries; Membership is that coordinator view made
// explicit on the wire.
type Membership struct {
	Epoch  int64 // group-ownership epoch; bumps on every roster change (with Self -1: the sender's Version)
	Self   int32 // recipient's assigned slave id; -1 slave→master and in a rejection
	Slaves []MemberSpec
}

// Kind implements Message.
func (*Membership) Kind() Kind { return KindMembership }

// memberEncSize is the minimum encoded size of one MemberSpec (id + workers
// + addr length prefix, with an empty addr).
const memberEncSize = 12

// WireSize implements Message.
func (m *Membership) WireSize() int64 {
	n := int64(headerSize + 16)
	for _, sp := range m.Slaves {
		n += memberEncSize + int64(len(sp.Addr))
	}
	return n
}

// Ping is the periodic slave→master heartbeat on the dedicated heartbeat
// connection of a TCP deployment. Seq increments per ping; Leave set
// requests a graceful departure — the master drains the slave's
// partition-groups to the survivors through the ordinary state-movement
// machinery before shutting the slave down, so no window state is lost.
type Ping struct {
	Slave int32
	Seq   int64
	Leave bool // graceful-leave request
}

// Kind implements Message.
func (*Ping) Kind() Kind { return KindPing }

// WireSize implements Message.
func (*Ping) WireSize() int64 { return headerSize + 13 }

// Pong is the master's echo of a heartbeat Ping; a slave that stops seeing
// them knows the master is gone.
type Pong struct {
	Slave int32
	Seq   int64
}

// Kind implements Message.
func (*Pong) Kind() Kind { return KindPong }

// WireSize implements Message.
func (*Pong) WireSize() int64 { return headerSize + 12 }

// WindowDelta ships one partition-group's window state slave→slave: the
// per-stream tuple runs the sender ingested (temporal order, exactly as they
// entered its window stores). It has two roles.
//
// Replication (MoveID 0): an owner sends its buddy one delta per owned group
// every epoch — the runs ingested since its previous delta and the expiry
// watermark its last processing round applied. The buddy appends the runs to
// its shadow stores and trims them at the watermark, so the replica tracks
// the primary's semantic window one epoch behind. Reset marks a full-window
// snapshot — sent when a group is first adopted or changes buddy — telling
// the receiver to discard any stale replica first. Epoch is the owner's
// distribution epoch the delta closes; the buddy records it with the shadow
// and applies deltas in arrival order without comparing it.
//
// Movement (MoveID ≠ 0, §IV-C): the supplier streams the group to its
// consumer as installments, one per distribution epoch, while it keeps
// processing the group. Epoch is the installment's position in the stream,
// from 0; installment 0 carries Reset and opens the snapshot, later ones
// continue it, and the last — Close set — carries the catch-up runs (every
// tuple ingested after the snapshot), the unprocessed backlog (Pending) and
// the directory shape the consumer rebuilds under. Cutoff is unused. The
// close part is encoded only when Close is set.
//
// Paper correspondence: the follow-up paper ("Processing Database Joins over a
// Shared-Nothing System of Multicore Machines", PAPERS.md) treats window state
// as an ordinarily transferable asset between shared-nothing nodes and
// overlaps its communication with computation; WindowDelta is that asset on
// the wire, for movement and for continuous replication alike.
type WindowDelta struct {
	From   int32 // sending slave's id
	Group  int32 // partition-group the delta carries
	MoveID int64 // state movement this installment belongs to; 0 for replication
	Epoch  int64 // replication: owner's epoch; movement: installment index
	Reset  bool  // full snapshot: discard prior state first
	Cutoff int32 // replication expiry watermark: window rows with TS < Cutoff are dead
	// Runs holds, per stream, the tuples ingested since the previous delta
	// (or the full window when Reset), in the temporal order the sender's
	// stores hold them.
	Runs [2][]tuple.Tuple

	// The close part of a movement: cut-over directory shape and backlog.
	Close       bool
	GlobalDepth uint8
	Buckets     []BucketSpec
	Pending     []tuple.Tuple
}

// Kind implements Message.
func (*WindowDelta) Kind() Kind { return KindWindowDelta }

// WireSize implements Message. Each role has its own fixed overhead: the
// simulator times movement and replication by these charges, so changing one
// moves the golden figures.
func (wd *WindowDelta) WireSize() int64 {
	n := int64(len(wd.Runs[0]) + len(wd.Runs[1]))
	switch {
	case wd.Close:
		n += int64(len(wd.Pending))
		return headerSize + 24 + 5*int64(len(wd.Buckets)) + tuple.LogicalSize*n
	case wd.MoveID != 0:
		return headerSize + 16 + tuple.LogicalSize*n
	}
	return headerSize + 21 + tuple.LogicalSize*n
}

// --- encoding helpers ---

func appendU8(b []byte, v uint8) []byte { return append(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendI32(b []byte, v int32) []byte   { return appendU32(b, uint32(v)) }
func appendI64(b []byte, v int64) []byte   { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendTuple(b []byte, t tuple.Tuple) []byte {
	b = appendU8(b, uint8(t.Stream))
	b = appendI32(b, t.Key)
	return appendI32(b, t.TS)
}

func appendTuples(b []byte, ts []tuple.Tuple) []byte {
	b = appendU32(b, uint32(len(ts)))
	for _, t := range ts {
		b = appendTuple(b, t)
	}
	return b
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = ErrTruncated
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) u8() uint8 {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// bool accepts only the canonical encodings 0 and 1, so every message that
// decodes re-encodes to its input.
func (d *decoder) bool() bool {
	v := d.u8()
	if d.err == nil && v > 1 {
		d.err = fmt.Errorf("wire: bool byte %#x", v)
	}
	return v == 1
}

func (d *decoder) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3])
}

func (d *decoder) u64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return uint64(v[0])<<56 | uint64(v[1])<<48 | uint64(v[2])<<40 | uint64(v[3])<<32 |
		uint64(v[4])<<24 | uint64(v[5])<<16 | uint64(v[6])<<8 | uint64(v[7])
}

func (d *decoder) i32() int32   { return int32(d.u32()) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// tuple rejects a stream byte other than S1 and S2: the join indexes its
// per-stream state by it.
func (d *decoder) tuple() tuple.Tuple {
	s := d.u8()
	if d.err == nil && s > uint8(tuple.S2) {
		d.err = fmt.Errorf("wire: stream byte %#x", s)
	}
	return tuple.Tuple{
		Stream: tuple.StreamID(s),
		Key:    d.i32(),
		TS:     d.i32(),
	}
}

// maxSliceLen bounds decoded slice lengths to defend against corrupt frames.
const maxSliceLen = 1 << 28

func (d *decoder) sliceLen() int {
	n := d.u32()
	if d.err == nil && n > maxSliceLen {
		d.err = fmt.Errorf("wire: slice length %d too large", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// str decodes a length-prefixed string. take never preallocates beyond the
// remaining buffer, so a corrupt length fails as a truncation instead of
// forcing a giant allocation.
func (d *decoder) str() string {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return ""
	}
	b := d.take(n)
	if d.err != nil {
		return ""
	}
	return string(b)
}

// tupleEncSize is the encoded size of one tuple (stream u8 + key + ts).
const tupleEncSize = 9

// pairEncSize is the encoded size of one output pair (probe tuple + packed
// stored tuple).
const pairEncSize = tupleEncSize + 8

// PairEncSize exports the encoded per-pair size for layers that need to
// estimate PairBatch volume without encoding (the sink's reconnect spool).
const PairEncSize = pairEncSize

func (d *decoder) tuples() []tuple.Tuple {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	// Preallocate no more than the remaining bytes could possibly hold, so
	// a corrupt length prefix cannot force a giant allocation before the
	// truncation is detected.
	c := n
	if lim := len(d.buf)/tupleEncSize + 1; c > lim {
		c = lim
	}
	out := make([]tuple.Tuple, 0, c)
	for i := 0; i < n; i++ {
		out = append(out, d.tuple())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// --- message body codecs ---

func (h *Hello) appendTo(b []byte) []byte {
	b = appendI32(b, h.Slave)
	b = appendI64(b, h.Epoch)
	b = appendBool(b, h.Active)
	b = appendF64(b, h.Occupancy)
	b = appendI64(b, h.WindowBytes)
	b = appendI64(b, h.BacklogBytes)
	b = appendU32(b, uint32(len(h.MoveACKs)))
	for _, a := range h.MoveACKs {
		b = appendI64(b, a)
	}
	b = appendU32(b, uint32(len(h.Degraded)))
	for _, a := range h.Degraded {
		b = appendI64(b, a)
	}
	b = appendU32(b, uint32(len(h.Closing)))
	for _, a := range h.Closing {
		b = appendI64(b, a)
	}
	return b
}

func (h *Hello) decodeFrom(d *decoder) error {
	h.Slave = d.i32()
	h.Epoch = d.i64()
	h.Active = d.bool()
	h.Occupancy = d.f64()
	h.WindowBytes = d.i64()
	h.BacklogBytes = d.i64()
	n := d.sliceLen()
	for i := 0; i < n && d.err == nil; i++ {
		h.MoveACKs = append(h.MoveACKs, d.i64())
	}
	n = d.sliceLen()
	for i := 0; i < n && d.err == nil; i++ {
		h.Degraded = append(h.Degraded, d.i64())
	}
	n = d.sliceLen()
	for i := 0; i < n && d.err == nil; i++ {
		h.Closing = append(h.Closing, d.i64())
	}
	return d.err
}

func (b *Batch) appendTo(buf []byte) []byte {
	buf = appendI64(buf, b.Epoch)
	buf = appendI64(buf, b.Origin)
	buf = appendBool(buf, b.Activate)
	buf = appendBool(buf, b.Deactivate)
	buf = appendBool(buf, b.Shutdown)
	buf = appendTuples(buf, b.Tuples)
	buf = appendU32(buf, uint32(len(b.Directives)))
	for _, dir := range b.Directives {
		buf = appendI64(buf, dir.MoveID)
		buf = appendI32(buf, dir.Group)
		buf = appendI32(buf, dir.From)
		buf = appendI32(buf, dir.To)
	}
	return buf
}

func (b *Batch) decodeFrom(d *decoder) error {
	b.Epoch = d.i64()
	b.Origin = d.i64()
	b.Activate = d.bool()
	b.Deactivate = d.bool()
	b.Shutdown = d.bool()
	b.Tuples = d.tuples()
	n := d.sliceLen()
	for i := 0; i < n && d.err == nil; i++ {
		b.Directives = append(b.Directives, Directive{
			MoveID: d.i64(),
			Group:  d.i32(),
			From:   d.i32(),
			To:     d.i32(),
		})
	}
	return d.err
}

func (pb *PairBatch) appendTo(b []byte) []byte {
	// The query id precedes the legacy body, and only for the query-tagged
	// kind (its decode counterpart lives in decodeMessage).
	if pb.Query != 0 {
		b = appendI32(b, pb.Query)
	}
	b = appendI32(b, pb.Slave)
	b = appendI32(b, pb.Group)
	b = appendI64(b, pb.Epoch)
	b = appendU32(b, uint32(len(pb.Pairs)))
	for _, p := range pb.Pairs {
		b = appendTuple(b, p.Probe)
		b = appendI32(b, p.Stored.Key)
		b = appendI32(b, p.Stored.TS)
	}
	return b
}

func (pb *PairBatch) decodeFrom(d *decoder) error {
	pb.Slave = d.i32()
	pb.Group = d.i32()
	pb.Epoch = d.i64()
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return d.err
	}
	// Like tuples(): never preallocate more than the remaining bytes could
	// hold, so a corrupt count cannot force a giant allocation before the
	// truncation is detected.
	c := n
	if lim := len(d.buf)/pairEncSize + 1; c > lim {
		c = lim
	}
	pb.Pairs = make([]OutPair, 0, c)
	for i := 0; i < n; i++ {
		p := OutPair{Probe: d.tuple()}
		p.Stored.Key = d.i32()
		p.Stored.TS = d.i32()
		if d.err != nil {
			pb.Pairs = nil
			return d.err
		}
		pb.Pairs = append(pb.Pairs, p)
	}
	return d.err
}

func (r *ResultBatch) appendTo(b []byte) []byte {
	// The query id precedes the legacy body, and only for the query-tagged
	// kind (its decode counterpart lives in decodeMessage).
	if r.Query != 0 {
		b = appendI32(b, r.Query)
	}
	b = appendI32(b, r.Slave)
	b = appendI64(b, r.Outputs)
	b = appendI64(b, r.DelaySumMs)
	b = appendI32(b, r.DelayMinMs)
	b = appendI32(b, r.DelayMaxMs)
	for _, h := range r.Hist {
		b = appendI64(b, h)
	}
	return b
}

func (r *ResultBatch) decodeFrom(d *decoder) error {
	r.Slave = d.i32()
	r.Outputs = d.i64()
	r.DelaySumMs = d.i64()
	r.DelayMinMs = d.i32()
	r.DelayMaxMs = d.i32()
	for i := range r.Hist {
		r.Hist[i] = d.i64()
	}
	return d.err
}

func (qs *QuerySet) appendTo(b []byte) []byte {
	b = appendU32(b, uint32(len(qs.Specs)))
	for _, sp := range qs.Specs {
		b = appendI32(b, sp.Query)
		b = appendU8(b, sp.Prober)
		b = appendBool(b, sp.CountOnly)
		b = appendString(b, sp.SinkAddr)
	}
	return b
}

func (qs *QuerySet) decodeFrom(d *decoder) error {
	n := d.sliceLen()
	for i := 0; i < n && d.err == nil; i++ {
		sp := QuerySpec{
			Query:     d.i32(),
			Prober:    d.u8(),
			CountOnly: d.bool(),
			SinkAddr:  d.str(),
		}
		if d.err != nil {
			return d.err
		}
		qs.Specs = append(qs.Specs, sp)
	}
	return d.err
}

func (m *Membership) appendTo(b []byte) []byte {
	b = appendI64(b, m.Epoch)
	b = appendI32(b, m.Self)
	b = appendU32(b, uint32(len(m.Slaves)))
	for _, sp := range m.Slaves {
		b = appendI32(b, sp.ID)
		b = appendI32(b, sp.Workers)
		b = appendString(b, sp.Addr)
	}
	return b
}

func (m *Membership) decodeFrom(d *decoder) error {
	m.Epoch = d.i64()
	m.Self = d.i32()
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return d.err
	}
	// Like tuples(): never preallocate more roster entries than the remaining
	// bytes could hold, so a corrupt count cannot force a giant allocation
	// before the truncation is detected.
	c := n
	if lim := len(d.buf)/memberEncSize + 1; c > lim {
		c = lim
	}
	m.Slaves = make([]MemberSpec, 0, c)
	for i := 0; i < n; i++ {
		sp := MemberSpec{
			ID:      d.i32(),
			Workers: d.i32(),
			Addr:    d.str(),
		}
		if d.err != nil {
			m.Slaves = nil
			return d.err
		}
		m.Slaves = append(m.Slaves, sp)
	}
	return d.err
}

func (p *Ping) appendTo(b []byte) []byte {
	b = appendI32(b, p.Slave)
	b = appendI64(b, p.Seq)
	return appendBool(b, p.Leave)
}

func (p *Ping) decodeFrom(d *decoder) error {
	p.Slave = d.i32()
	p.Seq = d.i64()
	p.Leave = d.bool()
	return d.err
}

func (p *Pong) appendTo(b []byte) []byte {
	b = appendI32(b, p.Slave)
	return appendI64(b, p.Seq)
}

func (p *Pong) decodeFrom(d *decoder) error {
	p.Slave = d.i32()
	p.Seq = d.i64()
	return d.err
}

func (wd *WindowDelta) appendTo(b []byte) []byte {
	b = appendI32(b, wd.From)
	b = appendI32(b, wd.Group)
	b = appendI64(b, wd.MoveID)
	b = appendI64(b, wd.Epoch)
	b = appendBool(b, wd.Reset)
	b = appendI32(b, wd.Cutoff)
	b = appendTuples(b, wd.Runs[0])
	b = appendTuples(b, wd.Runs[1])
	b = appendBool(b, wd.Close)
	if !wd.Close {
		return b
	}
	b = appendU8(b, wd.GlobalDepth)
	b = appendU32(b, uint32(len(wd.Buckets)))
	for _, bk := range wd.Buckets {
		b = appendU8(b, bk.LocalDepth)
		b = appendU32(b, bk.Bits)
	}
	return appendTuples(b, wd.Pending)
}

func (wd *WindowDelta) decodeFrom(d *decoder) error {
	wd.From = d.i32()
	wd.Group = d.i32()
	wd.MoveID = d.i64()
	wd.Epoch = d.i64()
	wd.Reset = d.bool()
	wd.Cutoff = d.i32()
	// tuples() caps its preallocation at what the remaining bytes could hold,
	// so a corrupt run count cannot force a giant allocation; the bucket
	// list grows only as its entries decode.
	wd.Runs[0] = d.tuples()
	wd.Runs[1] = d.tuples()
	wd.Close = d.bool()
	if wd.Close {
		wd.GlobalDepth = d.u8()
		n := d.sliceLen()
		for i := 0; i < n && d.err == nil; i++ {
			wd.Buckets = append(wd.Buckets, BucketSpec{LocalDepth: d.u8(), Bits: d.u32()})
		}
		wd.Pending = d.tuples()
	}
	if d.err != nil {
		*wd = WindowDelta{}
	}
	return d.err
}
