package window

// This file holds the replica apply path used by core's crash-recovery buddy
// replication: a shadow copy of a primary store is reconstructed from the
// per-epoch ingest runs and expiry watermarks carried by wire.WindowDelta.
// The apply path reuses the ordinary block machinery — recycled block
// buffers, in-place directory compaction — so replica maintenance inherits
// the store's allocation-free steady state instead of regressing it.

import (
	"fmt"

	"streamjoin/internal/tuple"
)

// AppendRun appends a temporally-ordered run of packed tuples. The run's
// internal order is trusted (it is a contiguous slice of a primary store's
// ingest order); only the seam against the existing content is checked, so a
// mis-sequenced delta fails loudly instead of corrupting expiry.
func (s *Store) AppendRun(run []tuple.Packed) {
	if len(run) == 0 {
		return
	}
	if newest, ok := s.NewestTS(); ok && run[0].TS < newest {
		panic(fmt.Sprintf("window: run out of order: %d after %d", run[0].TS, newest))
	}
	for _, p := range run {
		s.push(p)
	}
}

// Clear empties the store, recycling every block buffer into the free list.
// A replica receiving a Reset snapshot clears before applying so a stale
// shadow cannot survive underneath.
func (s *Store) Clear() {
	for len(s.blocks) > 0 {
		s.dropBlock()
	}
	s.n = 0
}
