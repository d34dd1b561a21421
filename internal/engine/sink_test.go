package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

func mkPairs(n int, group int32) []join.Pair {
	out := make([]join.Pair, n)
	for i := range out {
		out[i] = join.Pair{
			Probe:  tuple.Tuple{Stream: tuple.S1, Key: group*1000 + int32(i), TS: int32(i)},
			Stored: tuple.Packed{Key: group*1000 + int32(i), TS: int32(i) - 5},
		}
	}
	return out
}

// decodePairBatches reads a frame stream to EOF and returns the per-group
// pair counts plus the decoded pairs in arrival order.
func decodePairBatches(r io.Reader) (map[int32]int64, []wire.OutPair, error) {
	fr := wire.NewFrameReader(r)
	perGroup := map[int32]int64{}
	var pairs []wire.OutPair
	for {
		m, err := fr.Next()
		if err == io.EOF {
			return perGroup, pairs, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("frame decode: %w", err)
		}
		pb, ok := m.(*wire.PairBatch)
		if !ok {
			return nil, nil, fmt.Errorf("unexpected %v on sink connection", m.Kind())
		}
		perGroup[pb.Group] += int64(len(pb.Pairs))
		pairs = append(pairs, pb.Pairs...)
	}
}

// TestSocketSinkDelivery ships batches from several concurrent emitters over
// real TCP and checks the consumer sees every pair exactly once, with
// matching sink-side stats.
func TestSocketSinkDelivery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type recv struct {
		perGroup map[int32]int64
		err      error
	}
	got := make(chan recv, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- recv{err: err}
			return
		}
		defer c.Close()
		per, _, err := decodePairBatches(c)
		got <- recv{perGroup: per, err: err}
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	env := NewLiveEnv()
	proc := env.NewProc("slave7")
	s := NewSocketSinkWith(proc, c, 7, SinkOptions{Queue: 8, Redial: noRedial})

	const emitters, rounds, perRound = 4, 25, 13
	var wg sync.WaitGroup
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []join.Pair
			for i := 0; i < rounds; i++ {
				if buf == nil {
					buf = mkPairs(perRound, int32(w))
				} else {
					copy(buf, mkPairs(perRound, int32(w)))
				}
				buf = s.ForQuery(0).Emit(int32(w), buf)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	want := int64(emitters * rounds * perRound)
	var total int64
	for g := int32(0); g < emitters; g++ {
		if r.perGroup[g] != rounds*perRound {
			t.Errorf("group %d: %d pairs, want %d", g, r.perGroup[g], rounds*perRound)
		}
		total += r.perGroup[g]
	}
	if total != want {
		t.Fatalf("received %d pairs, want %d", total, want)
	}
	pairs, bytes, _, dropped := s.Stats()
	if pairs != want || dropped != 0 {
		t.Fatalf("sink stats: pairs=%d dropped=%d, want %d/0", pairs, dropped, want)
	}
	if bytes == 0 {
		t.Fatal("sink accounted no physical bytes")
	}
	if st := proc.Stats(); st.SinkPairs != want || st.SinkBytes != bytes {
		t.Fatalf("proc stats: pairs=%d bytes=%d, want %d/%d", st.SinkPairs, st.SinkBytes, want, bytes)
	}
}

// gatedWriter blocks every Write until the gate opens, then records bytes.
type gatedWriter struct {
	gate chan struct{}

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *gatedWriter) Close() error { return nil }

// TestSocketSinkBackpressure stalls the downstream consumer and checks that
// Emit blocks once the bounded queue fills — the join stalls instead of the
// sink growing without bound — then drains completely when the consumer
// resumes, with the stall visible in the stats.
func TestSocketSinkBackpressure(t *testing.T) {
	gw := &gatedWriter{gate: make(chan struct{})}
	env := NewLiveEnv()
	proc := env.NewProc("slave0")
	const queue = 2
	s := newSocketSink(proc, gw, 0, queue)
	s.wg.Add(1)
	go s.writer()

	// Each batch encodes past both the frame threshold and the bufio buffer,
	// so the very first writer flush blocks in the gated Write.
	const total, perBatch = 12, 4096
	var emitted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			s.ForQuery(0).Emit(1, mkPairs(perBatch, 1))
			emitted.Add(1)
		}
	}()

	// The writer blocks inside Write on the first flush; the queue then
	// holds `queue` batches and one more Emit is parked in the send. The
	// emitter must stall at most queue+2 batches in, and stay stalled.
	deadline := time.Now().Add(5 * time.Second)
	for emitted.Load() < queue+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // would-be progress window
	if n := emitted.Load(); n == total {
		t.Fatal("emitter never blocked against a stalled consumer")
	} else if n > queue+2 {
		t.Fatalf("emitter got %d batches ahead of a stalled consumer (queue %d)", n, queue)
	}

	close(gw.gate) // consumer resumes
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	perGroup, _, err := decodePairBatches(&gw.buf)
	if err != nil {
		t.Fatal(err)
	}
	if perGroup[1] != total*perBatch {
		t.Fatalf("drained %d pairs, want %d", perGroup[1], total*perBatch)
	}
	if _, _, stall, _ := s.Stats(); stall <= 0 {
		t.Fatal("no stall time accounted")
	}
	if st := proc.Stats(); st.SinkStall <= 0 {
		t.Fatal("no stall time on the process stats")
	}
}

// TestSocketSinkEmitNoAllocs pins the zero-allocation contract: with the
// queue keeping up (buffers recycling), a steady-state Emit+write round
// allocates nothing. The queue is pumped deterministically on the test
// goroutine so the recycle hand-off is exact.
func TestSocketSinkEmitNoAllocs(t *testing.T) {
	s := newSocketSink(nil, nopWriteCloser{io.Discard}, 0, 4)
	q := s.ForQuery(0)
	cur := mkPairs(128, 1)
	// Warm-up: size the encode scratch and prime the recycle loop.
	for i := 0; i < 8; i++ {
		next := q.Emit(1, cur)
		if !s.writeNext() {
			t.Fatal("queue unexpectedly empty")
		}
		if next == nil {
			next = mkPairs(128, 1)
		}
		cur = next
	}
	allocs := testing.AllocsPerRun(200, func() {
		next := q.Emit(1, cur)
		if !s.writeNext() {
			t.Fatal("queue unexpectedly empty")
		}
		if next == nil {
			t.Fatal("recycle starved with the queue un-full")
		}
		cur = next
	})
	if allocs != 0 {
		t.Fatalf("steady-state Emit allocated %.1f allocs/op, want 0", allocs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// errWriter fails every write after the first n bytes.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }
func (w errWriter) Close() error              { return nil }

// noRedial is the Redial of a sink whose consumer never comes back.
func noRedial() (io.WriteCloser, error) { return nil, errors.New("consumer gone") }
