package engine

import (
	"net"
	"sync"
	"testing"
	"time"

	"streamjoin/internal/des"
	"streamjoin/internal/simnet"
	"streamjoin/internal/wire"
)

func TestStatsSub(t *testing.T) {
	a := Stats{Comm: 10, Idle: 8, CPU: 6, BytesSent: 100, BytesRecv: 50, MsgsSent: 4, MsgsRecv: 2}
	b := Stats{Comm: 4, Idle: 3, CPU: 2, BytesSent: 40, BytesRecv: 20, MsgsSent: 1, MsgsRecv: 1}
	d := a.Sub(b)
	if d.Comm != 6 || d.Idle != 5 || d.CPU != 4 || d.BytesSent != 60 || d.MsgsRecv != 1 {
		t.Fatalf("d = %+v", d)
	}
}

func TestSimAdapterRoundtrip(t *testing.T) {
	env := des.NewEnv()
	net := simnet.New(env, simnet.Params{Bandwidth: 1e6, Latency: time.Millisecond,
		ExchangeOverhead: time.Millisecond, AsyncOverhead: time.Millisecond})
	a := net.NewNode("a")
	b := net.NewNode("b")
	ea, eb := simnet.Connect(a, b)
	ca, cb := WrapEndpoint(ea), WrapEndpoint(eb)

	var got wire.Message
	a.Start(func(nd *simnet.Node) {
		ca.Send(&wire.Hello{Slave: 3, Epoch: 7})
		nd.Compute(5 * time.Millisecond)
		nd.Idle(2 * time.Millisecond)
	})
	b.Start(func(nd *simnet.Node) {
		got = cb.Recv()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	h, ok := got.(*wire.Hello)
	if !ok || h.Slave != 3 || h.Epoch != 7 {
		t.Fatalf("got %+v", got)
	}
	pa := WrapNode(a)
	st := pa.Stats()
	if st.CPU != 5*time.Millisecond || st.Idle != 2*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSent != (&wire.Hello{Slave: 3, Epoch: 7}).WireSize() {
		t.Fatalf("bytes sent = %d", st.BytesSent)
	}
	if pa.Name() != "a" || pa.Now() == 0 {
		t.Fatal("name/now")
	}
}

func TestSimInboxAdapter(t *testing.T) {
	env := des.NewEnv()
	net := simnet.New(env, simnet.Params{Bandwidth: 1e6, Latency: time.Millisecond,
		ExchangeOverhead: time.Millisecond, AsyncOverhead: time.Millisecond})
	a := net.NewNode("a")
	c := net.NewNode("c")
	ib := WrapInbox(simnet.NewInbox(c))
	sender := NewSimAsyncSender(a, ib)
	var got wire.Message
	var timedOut bool
	c.Start(func(nd *simnet.Node) {
		_, ok := ib.RecvBefore(nd.Now() + time.Millisecond)
		timedOut = !ok
		got = ib.Recv()
	})
	a.Start(func(nd *simnet.Node) {
		nd.Idle(10 * time.Millisecond)
		sender.SendAsync(&wire.ResultBatch{Slave: 1, Outputs: 5})
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("RecvBefore should time out before send")
	}
	if rb, ok := got.(*wire.ResultBatch); !ok || rb.Outputs != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestLivePipeRendezvous(t *testing.T) {
	env := NewLiveEnv()
	a := env.NewProc("a")
	b := env.NewProc("b")
	ca, cb := Pipe(a, b)

	var wg sync.WaitGroup
	wg.Add(2)
	var reply wire.Message
	go func() {
		defer wg.Done()
		ca.Send(&wire.Hello{Slave: 1})
		reply = ca.Recv()
	}()
	go func() {
		defer wg.Done()
		m := cb.Recv().(*wire.Hello)
		cb.Send(&wire.Hello{Slave: m.Slave + 1})
	}()
	wg.Wait()
	if reply.(*wire.Hello).Slave != 2 {
		t.Fatalf("reply = %+v", reply)
	}
	if a.Stats().MsgsSent != 1 || a.Stats().MsgsRecv != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestLiveProcAccounting(t *testing.T) {
	env := NewLiveEnv()
	p := env.NewProc("p")
	p.Compute(3 * time.Second) // accounted, not slept
	start := time.Now()
	p.Idle(10 * time.Millisecond)
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("Idle did not sleep")
	}
	st := p.Stats()
	if st.CPU != 3*time.Second || st.Idle != 10*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
	p.Compute(-time.Second)
	if p.Stats().CPU != 3*time.Second {
		t.Fatal("negative compute accounted")
	}
	if p.Name() != "p" {
		t.Fatal("name")
	}
}

func TestLiveInbox(t *testing.T) {
	env := NewLiveEnv()
	c := env.NewProc("coll")
	s := env.NewProc("slave")
	ib := NewLiveInbox(c, 4)
	snd := NewLiveAsyncSender(s, ib)

	if _, ok := ib.RecvBefore(c.Now() + 5*time.Millisecond); ok {
		t.Fatal("empty inbox should time out")
	}
	snd.SendAsync(&wire.ResultBatch{Outputs: 9})
	m, ok := ib.RecvBefore(c.Now() + time.Second)
	if !ok || m.(*wire.ResultBatch).Outputs != 9 {
		t.Fatalf("recv: %v %v", m, ok)
	}
	snd.SendAsync(&wire.ResultBatch{Outputs: 1})
	if got := ib.Recv().(*wire.ResultBatch).Outputs; got != 1 {
		t.Fatalf("got %d", got)
	}
}

func TestTCPConnRoundtripAndError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	env := NewLiveEnv()

	done := make(chan wire.Message, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		p := env.NewProc("srv")
		tc := WrapTCPBatched(p, c, 0)
		done <- tc.Recv()
		tc.Send(&wire.Hello{Slave: 42})
		c.Close()
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p := env.NewProc("cli")
	tc := WrapTCPBatched(p, c, 0)
	tc.Send(&wire.Hello{Slave: 41})
	if got := <-done; got.(*wire.Hello).Slave != 41 {
		t.Fatalf("server got %+v", got)
	}
	if got := tc.Recv().(*wire.Hello); got.Slave != 42 {
		t.Fatalf("client got %+v", got)
	}
	// After close, Recv must panic with a TCPError.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on closed conn")
		}
		if _, ok := r.(*TCPError); !ok {
			t.Fatalf("panic value %T", r)
		}
	}()
	tc.Recv()
}

func TestTCPErrorUnwrap(t *testing.T) {
	inner := net.ErrClosed
	e := &TCPError{Op: "recv", Err: inner}
	if e.Unwrap() != inner || e.Error() == "" {
		t.Fatal("TCPError accessors")
	}
}
