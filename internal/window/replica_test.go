package window

import (
	"math/rand"
	"testing"

	"streamjoin/internal/tuple"
)

// replicaHarness drives a primary store round by round (append a run, expire
// at a watermark — the shape of live join processing) while batching the
// same runs into per-epoch deltas, exactly what the owner slave emits to its
// buddy. The replica applies one delta per epoch: AppendRun of the epoch's
// ingest, then one expiry at the epoch's final watermark.
type replicaHarness struct {
	primary *Store
	replica *Store
	exact   bool

	// epoch accumulation (what a wire.WindowDelta would carry)
	runs   []tuple.Packed
	cutoff int32

	// primaryEmptiedMidEpoch notes an epoch where the primary store went
	// fully empty on an intermediate round and refilled before the epoch
	// closed. Exact expiry then restarts the primary's block fill at an
	// unaligned position the batched replica never sees, so the physical
	// block layout may legitimately differ (the live content still may not).
	primaryEmptiedMidEpoch bool
}

func (h *replicaHarness) round(run []tuple.Packed, cutoff int32) {
	for _, p := range run {
		h.primary.Append(p)
	}
	h.expire(h.primary, cutoff)
	h.runs = append(h.runs, run...)
	if cutoff > h.cutoff {
		h.cutoff = cutoff
	}
}

// expire applies the harness's policy, the one the primary's join runs.
func (h *replicaHarness) expire(s *Store, cutoff int32) {
	if h.exact {
		s.ExpireExact(cutoff, nil)
	} else {
		s.ExpireBlocks(cutoff, nil)
	}
}

func (h *replicaHarness) closeEpoch(t *testing.T) {
	t.Helper()
	h.replica.AppendRun(h.runs)
	h.expire(h.replica, h.cutoff)
	h.runs = h.runs[:0]
	h.check(t)
}

// check asserts the replica is slot-for-slot identical to the primary: same
// live count, same live content in the same order, and — whenever the
// epoch-batched replay cannot have shifted block alignment — the same
// physical block layout and intra-block offset.
func (h *replicaHarness) check(t *testing.T) {
	t.Helper()
	if h.primary.Len() != h.replica.Len() {
		t.Fatalf("len: primary %d, replica %d", h.primary.Len(), h.replica.Len())
	}
	ps, rs := h.primary.Snapshot(), h.replica.Snapshot()
	if len(ps) != len(rs) {
		t.Fatalf("live content: primary %d tuples, replica %d", len(ps), len(rs))
	}
	for i := range ps {
		if ps[i] != rs[i] {
			t.Fatalf("slot %d: primary %+v, replica %+v", i, ps[i], rs[i])
		}
	}
	if h.primaryEmptiedMidEpoch {
		return
	}
	if len(h.primary.blocks) != len(h.replica.blocks) || h.primary.start != h.replica.start {
		t.Fatalf("layout: primary %d blocks start %d, replica %d blocks start %d",
			len(h.primary.blocks), h.primary.start, len(h.replica.blocks), h.replica.start)
	}
	for i := range h.primary.blocks {
		if len(h.primary.blocks[i]) != len(h.replica.blocks[i]) {
			t.Fatalf("block %d: primary len %d, replica len %d",
				i, len(h.primary.blocks[i]), len(h.replica.blocks[i]))
		}
	}
}

// TestReplicaReplayIdentity is the store-level replication property test:
// across random interleavings of ingest runs and expiry watermarks, under
// both expiry policies, an epoch-batched delta replay reconstructs the
// primary slot for slot.
func TestReplicaReplayIdentity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		exact bool
	}{{"blocks", false}, {"exact", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				r := rand.New(rand.NewSource(seed))
				h := &replicaHarness{primary: NewStore(), replica: NewStore(), exact: tc.exact}
				ts, cutoff, appended := int32(0), int32(0), 0
				for epoch := 0; epoch < 40; epoch++ {
					rounds := 1 + r.Intn(4)
					emptied := false
					for rd := 0; rd < rounds; rd++ {
						n := r.Intn(tuple.TuplesPerBlock * 5 / 2)
						if r.Intn(8) == 0 {
							n = 0 // idle round: watermark advances, no ingest
						}
						run := make([]tuple.Packed, n)
						for i := range run {
							if r.Intn(3) > 0 { // frequent TS ties across appends
								ts += int32(r.Intn(3))
							}
							run[i] = tuple.Packed{Key: r.Int31n(1 << 16), TS: ts}
						}
						// Watermark trails the newest timestamp by a jittered
						// span; occasionally it catches all the way up, which
						// fully empties the store under exact expiry.
						span := int32(r.Intn(30))
						if r.Intn(10) == 0 {
							span = -1
						}
						if c := ts - span; c > cutoff {
							cutoff = c
						}
						h.round(run, cutoff)
						appended += n
						if h.primary.Len() == 0 && appended > 0 {
							emptied = true
						} else if emptied && h.exact {
							// Refilled after a mid-epoch empty-out: only exact
							// expiry can empty at an unaligned position (block
							// expiry removes whole blocks only), so only there
							// does alignment break.
							h.primaryEmptiedMidEpoch = true
						}
					}
					h.closeEpoch(t)
				}
			}
		})
	}
}

// TestReplicaResetClear checks the Reset path: Clear recycles every block and
// zeroes the live count so a snapshot replay lands on a pristine store.
func TestReplicaResetClear(t *testing.T) {
	s := NewStore()
	for i := 0; i < tuple.TuplesPerBlock*3+7; i++ {
		s.Append(tuple.Packed{Key: int32(i), TS: int32(i / 4)})
	}
	s.ExpireExact(2, nil)
	s.Clear()
	if s.Len() != 0 || s.Bytes() != 0 || len(s.blocks) != 0 {
		t.Fatalf("clear left len=%d bytes=%d blocks=%d", s.Len(), s.Bytes(), len(s.blocks))
	}
	if len(s.free) == 0 {
		t.Fatal("clear recycled no blocks")
	}
	// The cleared store must be immediately reusable with recycled buffers.
	run := []tuple.Packed{{Key: 1, TS: 10}, {Key: 2, TS: 10}, {Key: 3, TS: 11}}
	s.AppendRun(run)
	if got := s.Snapshot(); s.Len() != 3 || len(got) != 3 || got[0] != run[0] || got[2] != run[2] {
		t.Fatalf("post-clear snapshot %+v", got)
	}
}

// TestAppendRunSeam checks the seam guard: a run starting before the
// store's newest timestamp must panic rather than corrupt expiry order.
func TestAppendRunSeam(t *testing.T) {
	s := NewStore()
	s.AppendRun([]tuple.Packed{{Key: 1, TS: 5}, {Key: 2, TS: 9}})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order run accepted")
		}
	}()
	s.AppendRun([]tuple.Packed{{Key: 3, TS: 8}})
}
