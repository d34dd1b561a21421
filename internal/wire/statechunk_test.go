package wire

import (
	"math/rand"
	"testing"

	"streamjoin/internal/tuple"
)

// A state chunk is one WindowDelta of a state movement: an installment
// (non-zero MoveID) or the movement's closing delta. These tests cover the
// movement roles; the WindowDelta tests cover replication.

// stateChunks is one delta of each movement role with the given run shape.
func stateChunks(r *rand.Rand, n0, n1 int) map[string]*WindowDelta {
	return map[string]*WindowDelta{
		"installment": randInstallment(r, n0, n1),
		"close":       randCloseDelta(r, n0, n1, 2, 2),
	}
}

// TestStateChunkRoundTrip checks Marshal/Unmarshal identity of installments
// and closing deltas across run shapes, empty runs included, plus the
// WireSize accounting of an installment.
func TestStateChunkRoundTrip(t *testing.T) {
	checkDeltaRoundTrip(t, 3, stateChunks)
	r := rand.New(rand.NewSource(3))
	for _, shape := range [][2]int{{0, 0}, {1, 0}, {5, 7}, {1000, 1000}} {
		in := randInstallment(r, shape[0], shape[1])
		want := int64(headerSize+16) + tuple.LogicalSize*int64(shape[0]+shape[1])
		if in.WireSize() != want {
			t.Fatalf("shape %v: WireSize = %d, want %d", shape, in.WireSize(), want)
		}
	}
}

// TestStateChunkTruncated replays every strict prefix of an encoded
// installment and closing delta; each must fail cleanly.
func TestStateChunkTruncated(t *testing.T) {
	checkDeltaTruncated(t, stateChunks(rand.New(rand.NewSource(7)), 6, 3))
}

// TestStateChunkMutatedCount rewrites every count prefix of an installment
// and a closing delta (runs, buckets, pending) to wrong values.
func TestStateChunkMutatedCount(t *testing.T) {
	checkDeltaMutatedCount(t, stateChunks(rand.New(rand.NewSource(9)), 4, 2))
}

// TestStateChunkCorruptCountNoGiantAlloc checks the preallocation bound at
// every count prefix of an installment and a closing delta.
func TestStateChunkCorruptCountNoGiantAlloc(t *testing.T) {
	checkDeltaCorruptCountNoGiantAlloc(t, stateChunks(rand.New(rand.NewSource(1)), 2, 0))
}

// TestStateChunkFramedRoundTrip runs installments through the batched
// physical framing, interleaved with another kind and closed by the closing
// delta, as a state movement does on the mesh.
func TestStateChunkFramedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	checkFramedRoundTrip(t, []Message{
		randInstallment(r, 3, 0),
		randInstallment(r, 0, 0),
		&Hello{Slave: 1, Epoch: 2},
		randInstallment(r, 40, 40),
		randCloseDelta(r, 2, 0, 1, 0),
	})
}

// FuzzStateChunkDecode fuzzes the decoder from installment and
// closing-delta seeds.
func FuzzStateChunkDecode(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	f.Add(Marshal(randInstallment(r, 4, 4)))
	f.Add(Marshal(randInstallment(r, 0, 0)))
	f.Add([]byte{byte(KindWindowDelta)})
	f.Add(Marshal(randCloseDelta(r, 4, 4, 2, 3)))
	f.Add(Marshal(randCloseDelta(r, 0, 0, 0, 0)))
	f.Fuzz(fuzzDecodeRoundTrip)
}
