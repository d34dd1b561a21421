// Package tuple defines the stream tuple model shared by every layer of the
// system: the wire-level tuple (stream-tagged, as shipped master→slave), the
// packed in-window representation, and the hash functions that drive
// partitioning and fine tuning.
//
// Following the paper's experimental setup, a tuple logically occupies 64
// bytes and windows are stored in 4 KB blocks (64 tuples per block). The
// in-memory representation keeps only the join attribute and the timestamp;
// all byte accounting (network transfers, window sizes, buffer occupancy)
// uses the logical size, so eliding the payload changes no timing or memory
// metric.
package tuple

import "fmt"

// StreamID identifies one of the two joined streams.
type StreamID uint8

// The two input streams of the binary windowed join.
const (
	S1 StreamID = 0
	S2 StreamID = 1
)

func (s StreamID) String() string {
	if s == S1 {
		return "S1"
	}
	return "S2"
}

// LogicalSize is the paper's tuple size in bytes; all accounting uses it.
const LogicalSize = 64

// BlockBytes is the window block size (4 KB).
const BlockBytes = 4096

// TuplesPerBlock is the number of tuples stored per block.
const TuplesPerBlock = BlockBytes / LogicalSize

// ResultSize is the logical size of an output tuple: the composite of one
// tuple from each stream.
const ResultSize = 2 * LogicalSize

// Tuple is a stream tuple as exchanged between nodes. TS is in milliseconds
// since the start of the run; the paper's §IV-B stream-identification
// attribute is the Stream field.
type Tuple struct {
	Stream StreamID
	Key    int32
	TS     int32
}

func (t Tuple) String() string {
	return fmt.Sprintf("%v(k=%d,t=%dms)", t.Stream, t.Key, t.TS)
}

// Packed is the in-window representation: join attribute plus timestamp.
type Packed struct {
	Key int32
	TS  int32
}

// Packed strips the stream tag.
func (t Tuple) Packed() Packed { return Packed{Key: t.Key, TS: t.TS} }

// Mix64 is the splitmix64 finalizer, a fast high-quality integer mixer.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PartitionOf maps a join attribute to one of npart logical partitions
// (the hash function H of §III).
func PartitionOf(key int32, npart int) int {
	return int(Mix64(uint64(uint32(key))) % uint64(npart))
}

// FineHash produces the bit source consumed by extendible hashing during
// fine tuning. It is independent of PartitionOf so that the keys inside one
// partition still spread across fine-tuning buckets.
func FineHash(key int32) uint64 {
	return Mix64(Mix64(uint64(uint32(key))) ^ 0xabcdef0123456789)
}
