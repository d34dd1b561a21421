package engine

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestSocketSinkReconnect kills the consumer connection mid-stream and
// checks the sink redials, replays its spool on the fresh connection, and
// keeps delivered + dropped == emitted exact across the fault.
func TestSocketSinkReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	got := make(chan map[int32]int64, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if accepts.Add(1) == 1 {
				c.Close() // the first consumer connection dies immediately
				continue
			}
			go func(c net.Conn) {
				defer c.Close()
				per, _, _ := decodePairBatches(c)
				got <- per
			}(c)
		}
	}()

	dial := func() (io.WriteCloser, error) { return net.Dial("tcp", ln.Addr().String()) }
	c0, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSocketSinkWith(nil, c0, 3, SinkOptions{Queue: 4, Redial: dial})

	// Emit until the dead connection is noticed and replaced.
	var emitted int64
	deadline := time.Now().Add(10 * time.Second)
	for s.Reconnects() == 0 && time.Now().Before(deadline) {
		s.ForQuery(0).Emit(1, mkPairs(32, 1))
		emitted += 32
		time.Sleep(2 * time.Millisecond)
	}
	if s.Reconnects() == 0 {
		t.Fatal("sink never reconnected after the consumer died")
	}
	// Traffic that must arrive on the replacement connection.
	for i := 0; i < 20; i++ {
		s.ForQuery(0).Emit(1, mkPairs(32, 1))
		emitted += 32
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after successful reconnect: %v", err)
	}

	pairs, _, _, dropped := s.Stats()
	if pairs+dropped != emitted {
		t.Fatalf("conservation violated: shipped %d + dropped %d != emitted %d", pairs, dropped, emitted)
	}
	select {
	case per := <-got:
		if per[1] == 0 {
			t.Fatal("reconnected consumer received no pairs")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reconnected consumer never delivered its decode")
	}
}

// TestSocketSinkSpoolBound keeps the consumer dead (every redial fails) and
// checks the spool stays bounded: batches beyond the cap are counted
// dropped immediately, nothing ships, Emit never blocks on the outage, and
// Close reports the disconnected shutdown with exact drop accounting.
func TestSocketSinkSpoolBound(t *testing.T) {
	boom := errors.New("consumer down")
	still := errors.New("still down")
	s := NewSocketSinkWith(nil, errWriter{err: boom}, 0, SinkOptions{
		Queue:      2,
		SpoolBytes: 2048, // room for only a couple of batches
		Redial:     func() (io.WriteCloser, error) { return nil, still },
	})
	const batches, per = 50, 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			s.ForQuery(0).Emit(1, mkPairs(per, 1))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Emit blocked against a disconnected sink (spool should drain the queue)")
	}
	err := s.Close()
	if err == nil {
		t.Fatal("Close while disconnected returned nil; want an error reporting the drop")
	}
	pairs, _, _, dropped := s.Stats()
	if pairs != 0 {
		t.Fatalf("%d pairs counted shipped with no live consumer", pairs)
	}
	if dropped != batches*per {
		t.Fatalf("dropped %d pairs, want every emitted pair (%d)", dropped, batches*per)
	}
}

// TestSocketSinkBackpressureBeforeSpool pins the boundary between the two
// mechanisms: a slow-but-alive consumer (blocked writes, no error) must
// engage Emit backpressure through the bounded queue — the spool and the
// redialer are for dead connections only.
func TestSocketSinkBackpressureBeforeSpool(t *testing.T) {
	gw := &gatedWriter{gate: make(chan struct{})}
	const queue = 2
	s := NewSocketSinkWith(nil, gw, 0, SinkOptions{
		Queue:      queue,
		SpoolBytes: 1 << 30,
		Redial: func() (io.WriteCloser, error) {
			t.Error("redial invoked for a slow (not dead) consumer")
			return gw, nil
		},
	})

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
	deadline := time.Now().Add(5 * time.Second)
	for emitted.Load() < queue+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := emitted.Load(); n == total {
		t.Fatal("emitter never blocked: spool engaged for a merely-slow consumer")
	} else if n > queue+2 {
		t.Fatalf("emitter got %d batches ahead (queue %d): backpressure did not engage", n, queue)
	}
	close(gw.gate)
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Reconnects() != 0 {
		t.Fatalf("%d reconnects for a connection that never failed", s.Reconnects())
	}
	pairs, _, _, dropped := s.Stats()
	if pairs != total*perBatch || dropped != 0 {
		t.Fatalf("shipped %d dropped %d, want %d/0", pairs, dropped, total*perBatch)
	}
}
