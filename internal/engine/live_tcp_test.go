package engine

import (
	"net"
	"reflect"
	"testing"
	"time"

	"streamjoin/internal/wire"
)

// tcpPair returns two wrapped ends of a loopback TCP connection.
func tcpPair(t *testing.T, env *LiveEnv, batchBytes int) (Conn, Conn, *LiveProc, *LiveProc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { cli.Close(); acc.c.Close() })
	pa, pb := env.NewProc("a"), env.NewProc("b")
	return WrapTCPBatched(pa, cli, batchBytes), WrapTCPBatched(pb, acc.c, batchBytes), pa, pb
}

// TestBatchedConnRecvFlushesPending guards the deadlock safety net: a
// message buffered with SendBuffered must reach the peer once the sender
// blocks in Recv on the same conn, even though no explicit Flush ran.
func TestBatchedConnRecvFlushesPending(t *testing.T) {
	env := NewLiveEnv()
	a, b, pa, _ := tcpPair(t, env, 1<<20) // threshold far above the traffic
	want := &wire.Hello{Slave: 3, Epoch: 9}
	done := make(chan wire.Message, 1)
	go func() {
		// Peer answers only after seeing the request.
		m := b.Recv()
		b.Send(&wire.Batch{Epoch: 9})
		done <- m
	}()
	SendBuffered(a, want)
	if pa.Stats().WireFramesSent != 0 {
		t.Fatal("buffered send hit the wire before any flush point")
	}
	if resp := a.Recv(); resp.(*wire.Batch).Epoch != 9 {
		t.Fatalf("bad response: %+v", resp)
	}
	if got := <-done; !reflect.DeepEqual(got, want) {
		t.Fatalf("peer saw %+v, want %+v", got, want)
	}
}

// TestBatchedConnCoalesces checks that buffered messages share one physical
// frame and the logical accounting is framing-independent.
func TestBatchedConnCoalesces(t *testing.T) {
	env := NewLiveEnv()
	a, b, pa, pb := tcpPair(t, env, 1<<20)
	msgs := []wire.Message{
		&wire.Hello{Slave: 1},
		&wire.ResultBatch{Slave: 1, Outputs: 5},
		&wire.Hello{Slave: 2},
	}
	for _, m := range msgs {
		SendBuffered(a, m)
	}
	Flush(a)
	for i, want := range msgs {
		if got := b.Recv(); !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	as, bs := pa.Stats(), pb.Stats()
	if as.WireFramesSent != 1 || as.MsgsSent != 3 {
		t.Fatalf("sender: %d frames for %d messages, want 1 for 3", as.WireFramesSent, as.MsgsSent)
	}
	if bs.WireFramesRecv != 1 || bs.MsgsRecv != 3 {
		t.Fatalf("receiver: %d frames for %d messages, want 1 for 3", bs.WireFramesRecv, bs.MsgsRecv)
	}
	var logical int64
	for _, m := range msgs {
		logical += m.WireSize()
	}
	if as.BytesSent != logical || bs.BytesRecv != logical {
		t.Fatalf("logical bytes: sent %d recv %d, want %d", as.BytesSent, bs.BytesRecv, logical)
	}
	if as.WireBytesSent != bs.WireBytesRecv {
		t.Fatalf("physical bytes disagree: %d vs %d", as.WireBytesSent, bs.WireBytesRecv)
	}
}

// TestZeroThresholdConnFlushesOnDemand checks threshold 0: no size-triggered
// flush, so buffered messages wait for Flush and then share one frame.
func TestZeroThresholdConnFlushesOnDemand(t *testing.T) {
	env := NewLiveEnv()
	a, b, pa, _ := tcpPair(t, env, 0)
	SendBuffered(a, &wire.Hello{Slave: 1})
	SendBuffered(a, &wire.Hello{Slave: 2})
	if s := pa.Stats(); s.WireFramesSent != 0 {
		t.Fatalf("threshold-0 conn flushed %d frames before Flush", s.WireFramesSent)
	}
	Flush(a)
	for want := int32(1); want <= 2; want++ {
		if got := b.Recv().(*wire.Hello).Slave; got != want {
			t.Fatalf("got slave %d, want %d", got, want)
		}
	}
	if s := pa.Stats(); s.WireFramesSent != 1 || s.MsgsSent != 2 {
		t.Fatalf("threshold-0 conn: %d frames for %d messages, want 1 for 2", s.WireFramesSent, s.MsgsSent)
	}
}

// checkPeerErr runs CheckPeer and returns the TCPError it panicked with, or
// nil.
func checkPeerErr(c Conn) (err *TCPError) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(*TCPError)
		}
	}()
	CheckPeer(c)
	return nil
}

// TestCheckPeerSeesClose: CheckPeer passes while the peer is there — also
// with a message waiting, which it must leave unread — and fails once the
// peer has closed or reset its end, through the deadline wrapper the live
// control connections use. On a pipe it does nothing.
func TestCheckPeerSeesClose(t *testing.T) {
	for _, reset := range []bool{false, true} {
		name := "close"
		if reset {
			name = "reset"
		}
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			cli, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			srv, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			env := NewLiveEnv()
			a := WrapTCPBatched(env.NewProc("a"), WithDeadlines(cli, time.Minute, time.Minute), 0)
			b := WrapTCPBatched(env.NewProc("b"), srv, 0)

			if err := checkPeerErr(a); err != nil {
				t.Fatalf("peer present, nothing waiting: %v", err)
			}
			b.Send(&wire.Hello{Slave: 2, Epoch: 7})
			// Give the frame time to reach a's socket, so the check peeks
			// at a waiting message (it must pass either way).
			time.Sleep(20 * time.Millisecond)
			if err := checkPeerErr(a); err != nil {
				t.Fatalf("peer present, a message waiting: %v", err)
			}
			if h, ok := a.Recv().(*wire.Hello); !ok || h.Slave != 2 || h.Epoch != 7 {
				t.Fatalf("the waiting message did not survive the check: %+v", h)
			}

			if reset {
				if err := srv.(*net.TCPConn).SetLinger(0); err != nil {
					t.Fatal(err)
				}
			}
			srv.Close()
			deadline := time.Now().Add(2 * time.Second)
			for {
				if err := checkPeerErr(a); err != nil {
					t.Logf("peer gone: %v", err)
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("CheckPeer never saw the peer go")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}

	env := NewLiveEnv()
	p, _ := Pipe(env.NewProc("a"), env.NewProc("b"))
	if err := checkPeerErr(p); err != nil {
		t.Fatalf("pipe: %v", err)
	}
}
