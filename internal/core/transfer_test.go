package core

import (
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// xferRig wires a supplier and a consumer slaveNode over one in-process
// rendezvous pipe, with no master: tests drive handleDirectives on both ends
// directly, one epoch at a time, so every installment of a transfer is
// observable between epochs.
type xferRig struct {
	cfg      Config
	sup, con *slaveNode
	supP     *engine.LiveProc
}

// newXferRig builds the rig with ChunkTuples = chunk (the smallest
// installment) and t_r = k × t_d (the deadline installmentSize works to).
func newXferRig(chunk, k int) *xferRig {
	r := &xferRig{cfg: DefaultConfig()}
	r.cfg.sim = true // the simulation's join: indexed prober, exact expiry
	r.cfg.Slaves = 2
	r.cfg.ChunkTuples = chunk
	r.cfg.ReorgEpochMs = int32(k) * r.cfg.DistEpochMs
	env := engine.NewLiveEnv()
	pa, pb := env.NewProc("xfer-sup"), env.NewProc("xfer-con")
	ab, ba := engine.Pipe(pa, pb)
	r.sup = newSlave(&r.cfg, 0, pa, nil, staticPeers([]engine.Conn{nil, ab}), nil, nil)
	r.con = newSlave(&r.cfg, 1, pb, nil, staticPeers([]engine.Conn{ba, nil}), nil, nil)
	r.supP = pa
	return r
}

// ingest queues n S1/S2 tuple pairs of one key on a slave and processes them
// into its windows (the backlog fully drains: the deadline is generous and
// the window outlives every test timestamp).
func (r *xferRig) ingest(s *slaveNode, key int32, n int, ts0 int32) {
	batch := make([]tuple.Tuple, 0, 2*n)
	for i := 0; i < n; i++ {
		ts := ts0 + int32(i)
		batch = append(batch,
			tuple.Tuple{Stream: tuple.S1, Key: key, TS: ts},
			tuple.Tuple{Stream: tuple.S2, Key: key, TS: ts})
	}
	s.ws.enqueue(batch)
	s.ws.processUntil(s.proc.Now() + time.Second)
}

// step runs one epoch's movement exchange on both endpoints concurrently
// (the pipe is rendezvous, so supplier sends and consumer receives must
// overlap, exactly as the per-slave goroutines do in a real run).
func (r *xferRig) step(t *testing.T, d *wire.Directive) {
	t.Helper()
	var supDirs, conDirs []wire.Directive
	if d != nil {
		supDirs = []wire.Directive{*d}
		conDirs = []wire.Directive{*d}
	}
	done := make(chan struct{})
	go func() { defer close(done); r.con.handleDirectives(conDirs) }()
	r.sup.handleDirectives(supDirs)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("epoch exchange deadlocked")
	}
}

// windowTuplesOf reads the current window size of group g on a slave, or -1
// when the slave does not own it.
func windowTuplesOf(s *slaveNode, g int32) int {
	grp, ok := s.ws.workerOf(g).mod.Get(g)
	if !ok {
		return -1
	}
	st := grp.Extract()
	return st.WindowTuples()
}

// TestIncrementalTransferStateMachine drives the movement protocol
// deterministically through every phase: snapshot + opening installment,
// per-epoch streaming while the supplier keeps processing (with the catch-up
// capture), and the closing cut-over transfer that carries the delta and
// acks the move.
func TestIncrementalTransferStateMachine(t *testing.T) {
	t.Run("chunked-handoff", func(t *testing.T) {
		r := newXferRig(8, 12) // ten installments fit the deadline
		key := int32(7)
		g := r.cfg.GroupOfKey(key)
		r.ingest(r.sup, key, 40, 0) // 80 window tuples: 10 installments of 8
		d := &wire.Directive{MoveID: 7, Group: g, From: 0, To: 1}

		r.step(t, d)
		if len(r.sup.xferOut) != 1 || len(r.con.xferIn) != 1 {
			t.Fatalf("after the opening epoch: %d outgoing, %d incoming transfers, want 1/1",
				len(r.sup.xferOut), len(r.con.xferIn))
		}
		if n := windowTuplesOf(r.sup, g); n != 80 {
			t.Fatalf("supplier window = %d tuples mid-transfer, want 80 (still owned)", n)
		}
		if n := windowTuplesOf(r.con, g); n != -1 {
			t.Fatalf("consumer owns the group (%d tuples) before cut-over", n)
		}

		// The supplier keeps ingesting and probing the moving group; the new
		// tuples must land in the catch-up capture, not the shipped snapshot.
		r.ingest(r.sup, key, 2, 1_000)
		cap := r.sup.ws.workerOf(g).xcap[g]
		if cap == nil {
			t.Fatal("no catch-up capture registered for the moving group")
		}
		if len(cap.runs[0]) != 2 || len(cap.runs[1]) != 2 {
			t.Fatalf("capture holds %d/%d tuples, want 2/2", len(cap.runs[0]), len(cap.runs[1]))
		}

		steps := 1
		for len(r.sup.xferOut) > 0 || len(r.con.xferIn) > 0 {
			r.step(t, nil)
			if steps++; steps > 40 {
				t.Fatal("transfer did not converge")
			}
		}
		// 80 snapshot tuples at 8 per epoch, then the closing transfer.
		if steps != 11 {
			t.Errorf("transfer took %d epochs, want 11 (10 installments + cut-over)", steps)
		}
		if n := windowTuplesOf(r.con, g); n != 84 {
			t.Errorf("consumer window = %d tuples after cut-over, want 84 (snapshot + delta)", n)
		}
		if n := windowTuplesOf(r.sup, g); n != -1 {
			t.Errorf("supplier still owns the group (%d tuples) after cut-over", n)
		}
		if len(r.sup.ws.workerOf(g).xcap) != 0 {
			t.Error("catch-up capture not cleared at cut-over")
		}
		if len(r.con.acks) != 1 || r.con.acks[0] != 7 {
			t.Errorf("consumer acks = %v, want [7] — only the closing transfer acks", r.con.acks)
		}
		// The supplier scheduled the cut-over announcement when the last
		// installment emptied the snapshot: the next Hello would carry the
		// MoveID so the master starts withholding the group's tuples.
		if len(r.sup.closing) != 1 || r.sup.closing[0] != 7 {
			t.Errorf("supplier closing announcements = %v, want [7]", r.sup.closing)
		}
		st := r.supP.Stats()
		if st.XferChunks != 11 || st.XferTuples != 84 {
			t.Errorf("supplier shipped %d messages / %d tuples, want 11 / 84",
				st.XferChunks, st.XferTuples)
		}
	})

	t.Run("replicated-and-moving", func(t *testing.T) {
		// A replicated group can be moving too: its replication delta and
		// its catch-up capture record the same rounds into separate
		// buffers, and clearing the first at an epoch flush must leave the
		// move's catch-up intact.
		r := newXferRig(8, 12)
		r.sup.ws.replicate = true
		key := int32(7)
		g := r.cfg.GroupOfKey(key)
		w := r.sup.ws.workerOf(g)
		r.ingest(r.sup, key, 40, 0)
		w.repl[g].clear()
		r.step(t, &wire.Directive{MoveID: 7, Group: g, From: 0, To: 1})

		r.ingest(r.sup, key, 2, 1_000)
		repl, cap := w.repl[g], w.xcap[g]
		if repl == nil || cap == nil {
			t.Fatalf("replication delta %v, catch-up capture %v: want both", repl, cap)
		}
		for name, d := range map[string]*replDelta{"replication delta": repl, "catch-up capture": cap} {
			if len(d.runs[0]) != 2 || len(d.runs[1]) != 2 {
				t.Fatalf("%s holds %d/%d tuples, want 2/2", name, len(d.runs[0]), len(d.runs[1]))
			}
		}
		repl.clear() // the epoch flush ships and clears the replication delta
		if len(cap.runs[0]) != 2 || len(cap.runs[1]) != 2 {
			t.Fatalf("clearing the replication delta left the capture at %d/%d tuples, want 2/2",
				len(cap.runs[0]), len(cap.runs[1]))
		}

		steps := 1
		for len(r.sup.xferOut) > 0 || len(r.con.xferIn) > 0 {
			r.step(t, nil)
			if steps++; steps > 40 {
				t.Fatal("transfer did not converge")
			}
		}
		if steps != 11 {
			t.Errorf("transfer took %d epochs, want 11 (10 installments + cut-over)", steps)
		}
		if n := windowTuplesOf(r.con, g); n != 84 {
			t.Errorf("consumer window = %d tuples after cut-over, want 84 (snapshot + delta)", n)
		}
	})

	t.Run("small-group", func(t *testing.T) {
		// A group that fits within one installment still takes the capture
		// path — the master routes tuples to the supplier through the
		// directive epoch, so an extract in that epoch would race them. The
		// whole snapshot rides the opening installment and the group cuts
		// over one epoch later.
		r := newXferRig(8, 12)
		key := int32(7)
		g := r.cfg.GroupOfKey(key)
		r.ingest(r.sup, key, 3, 0) // 6 window tuples <= chunk
		r.step(t, &wire.Directive{MoveID: 9, Group: g, From: 0, To: 1})
		if len(r.sup.xferOut) != 1 || len(r.con.xferIn) != 1 {
			t.Fatalf("after the opening epoch: %d outgoing, %d incoming transfers, want 1/1",
				len(r.sup.xferOut), len(r.con.xferIn))
		}
		if len(r.sup.closing) != 1 || r.sup.closing[0] != 9 {
			t.Fatalf("supplier closing announcements = %v, want [9] after the single installment",
				r.sup.closing)
		}
		r.step(t, nil)
		if len(r.sup.xferOut) != 0 || len(r.con.xferIn) != 0 {
			t.Fatalf("small group left streaming state: %d out, %d in",
				len(r.sup.xferOut), len(r.con.xferIn))
		}
		if n := windowTuplesOf(r.con, g); n != 6 {
			t.Errorf("consumer window = %d tuples, want 6", n)
		}
		if len(r.con.acks) != 1 || r.con.acks[0] != 9 {
			t.Errorf("consumer acks = %v, want [9]", r.con.acks)
		}
		if st := r.supP.Stats(); st.XferChunks != 2 || st.XferTuples != 6 {
			t.Errorf("supplier shipped %d messages / %d tuples, want 2 / 6",
				st.XferChunks, st.XferTuples)
		}
	})

	t.Run("shutdown-settle", func(t *testing.T) {
		// Shutdown arrives two epochs into a stream: settleTransfers must
		// burst the remaining installments and the cut-over symmetrically so
		// no window state is stranded.
		r := newXferRig(8, 12)
		key := int32(7)
		g := r.cfg.GroupOfKey(key)
		r.ingest(r.sup, key, 40, 0)
		r.step(t, &wire.Directive{MoveID: 11, Group: g, From: 0, To: 1})
		r.step(t, nil)
		if len(r.sup.xferOut) != 1 {
			t.Fatal("transfer finished before the settle could exercise it")
		}
		done := make(chan struct{})
		go func() { defer close(done); r.con.settleTransfers() }()
		r.sup.settleTransfers()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("settle deadlocked")
		}
		if len(r.sup.xferOut) != 0 || len(r.con.xferIn) != 0 {
			t.Fatalf("settle left streaming state: %d out, %d in",
				len(r.sup.xferOut), len(r.con.xferIn))
		}
		if n := windowTuplesOf(r.con, g); n != 80 {
			t.Errorf("consumer window = %d tuples after settle, want 80", n)
		}
		if len(r.con.acks) != 1 || r.con.acks[0] != 11 {
			t.Errorf("consumer acks = %v, want [11]", r.con.acks)
		}
	})
}

// TestInstallmentSizeMeetsReorgDeadline pins the derived installment size
// over snapshot sizes × t_r/t_d: a move delivered at a reorganization
// boundary (epoch 0 here) must have its ack in the consumer's Hello by the
// last epoch before the next boundary whenever t_r/t_d ≥ 3, using the
// smallest installment ≥ ChunkTuples that manages it; below 3 the opening
// installment carries the whole snapshot. Whatever the size, snapshot ∪ delta
// installs exactly once.
func TestInstallmentSizeMeetsReorgDeadline(t *testing.T) {
	const chunk = 16
	const key = int32(7)
	for _, snap := range []int{0, 1, chunk, 10 * chunk} {
		for _, k := range []int{1, 2, 3, 10} {
			r := newXferRig(chunk, k)
			g := r.cfg.GroupOfKey(key)
			batch := make([]tuple.Tuple, snap)
			for i := range batch {
				batch[i] = tuple.Tuple{Stream: tuple.StreamID(i % 2), Key: key, TS: int32(i)}
			}
			r.sup.ws.enqueue(batch)
			r.sup.ws.processUntil(r.sup.proc.Now() + time.Second)

			// Epoch 0 delivers the directive; every epoch ships one message.
			// perEpoch[e] is what the supplier shipped in epoch e.
			var perEpoch []int64
			shipped := func() {
				n := r.supP.Stats().XferTuples
				for _, p := range perEpoch {
					n -= p
				}
				perEpoch = append(perEpoch, n)
			}
			r.step(t, &wire.Directive{MoveID: 3, Group: g, From: 0, To: 1})
			shipped()
			size := r.sup.xferOut[3].size
			// Arrivals between the snapshot and the cut-over: the delta.
			r.ingest(r.sup, key, 2, 10_000)
			for len(r.con.acks) == 0 {
				if len(perEpoch) > 2*k+4 {
					t.Fatalf("snap %d, t_r/t_d %d: no ack after %d epochs", snap, k, len(perEpoch))
				}
				r.step(t, nil)
				shipped()
			}
			installments := len(perEpoch) - 1 // the last message is the closing transfer
			ackHello := len(perEpoch)         // the consumer reports the ack one epoch after installing

			fits := max(k-2, 1) // installments the deadline allows
			switch {
			case k < 3:
				if installments != 1 || perEpoch[0] != int64(snap) {
					t.Errorf("snap %d, t_r/t_d %d: %d installments, the first carrying %d tuples; want the whole snapshot at once",
						snap, k, installments, perEpoch[0])
				}
			default:
				if ackHello > k-1 {
					t.Errorf("snap %d, t_r/t_d %d: ack rides the Hello of epoch %d, after the next reorganization was planned (epoch %d)",
						snap, k, ackHello, k-1)
				}
				if (snap+chunk-1)/chunk <= fits {
					if size != chunk {
						t.Errorf("snap %d, t_r/t_d %d: installment size %d, want ChunkTuples (%d) — it meets the deadline",
							snap, k, size, chunk)
					}
				} else if (snap+size-2)/(size-1) <= fits {
					t.Errorf("snap %d, t_r/t_d %d: installment size %d is not the smallest that meets the deadline",
						snap, k, size)
				}
			}
			if size < chunk {
				t.Errorf("snap %d, t_r/t_d %d: installment size %d below ChunkTuples (%d)", snap, k, size, chunk)
			}
			for e, n := range perEpoch[:installments] {
				if want := int64(min(size, snap-e*size)); n != want {
					t.Errorf("snap %d, t_r/t_d %d: installment %d carried %d tuples, want %d", snap, k, e, n, want)
				}
			}
			if len(r.con.acks) != 1 || r.con.acks[0] != 3 {
				t.Errorf("snap %d, t_r/t_d %d: consumer acks = %v, want [3]", snap, k, r.con.acks)
			}
			if n := windowTuplesOf(r.con, g); n != snap+4 {
				t.Errorf("snap %d, t_r/t_d %d: consumer window = %d tuples, want %d (snapshot + delta, once)",
					snap, k, n, snap+4)
			}
			if n := windowTuplesOf(r.sup, g); n != -1 {
				t.Errorf("snap %d, t_r/t_d %d: supplier still owns the group (%d tuples)", snap, k, n)
			}
		}
	}
}
