package simnet

import (
	"testing"
	"time"

	"streamjoin/internal/des"
)

// testParams makes timing arithmetic exact: 1 MB/s bandwidth, 1 ms latency,
// 10 ms exchange overhead.
func testParams() Params {
	return Params{
		Bandwidth:        1e6,
		Latency:          time.Millisecond,
		ExchangeOverhead: 10 * time.Millisecond,
		AsyncOverhead:    time.Millisecond,
	}
}

func TestSendToWaitingReceiver(t *testing.T) {
	env := des.NewEnv()
	net := New(env, testParams())
	a := net.NewNode("a")
	b := net.NewNode("b")
	epA, epB := Connect(a, b)

	var recvAt, sendDone time.Duration
	var got Message
	b.Start(func(nd *Node) {
		got = epB.Recv()
		recvAt = nd.Now()
	})
	a.Start(func(nd *Node) {
		nd.requireProc().Sleep(5 * time.Millisecond)
		epA.Send(Message{Payload: "hi", Size: 1000})
		sendDone = nd.Now()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Transfer = 10ms overhead + 1000B/1MBps = 1ms -> 11ms; sender done at
	// 5+11 = 16ms; receiver gets it at 5+11+1(latency) = 17ms.
	if sendDone != 16*time.Millisecond {
		t.Fatalf("sendDone = %v, want 16ms", sendDone)
	}
	if recvAt != 17*time.Millisecond {
		t.Fatalf("recvAt = %v, want 17ms", recvAt)
	}
	if got.Payload.(string) != "hi" {
		t.Fatalf("payload = %v", got.Payload)
	}
}

func TestRecvFindsParkedSender(t *testing.T) {
	env := des.NewEnv()
	net := New(env, testParams())
	a := net.NewNode("a")
	b := net.NewNode("b")
	epA, epB := Connect(a, b)

	var sendDone, recvAt time.Duration
	a.Start(func(nd *Node) {
		epA.Send(Message{Size: 2000})
		sendDone = nd.Now()
	})
	b.Start(func(nd *Node) {
		nd.requireProc().Sleep(100 * time.Millisecond)
		epB.Recv()
		recvAt = nd.Now()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Pairing at 100ms; transfer = 10 + 2 = 12ms; sender resumes at 112ms,
	// receiver at 113ms (latency).
	if sendDone != 112*time.Millisecond {
		t.Fatalf("sendDone = %v", sendDone)
	}
	if recvAt != 113*time.Millisecond {
		t.Fatalf("recvAt = %v", recvAt)
	}
	// Sender was blocked the whole time: comm accounts sync wait + transfer.
	if a.Stats().Comm != 112*time.Millisecond {
		t.Fatalf("sender comm = %v, want 112ms", a.Stats().Comm)
	}
}

func TestSerialDistributionCreatesDivergentCommTimes(t *testing.T) {
	// A master sending to three slaves in a fixed serial order: slaves that
	// come later in the order accumulate more blocked (comm) time. This is
	// the effect behind Figure 12 of the paper.
	env := des.NewEnv()
	net := New(env, testParams())
	master := net.NewNode("master")
	slaves := make([]*Node, 3)
	epM := make([]*Endpoint, 3)
	epS := make([]*Endpoint, 3)
	for i := range slaves {
		slaves[i] = net.NewNode("slave")
		epM[i], epS[i] = Connect(master, slaves[i])
	}
	for i := range slaves {
		i := i
		slaves[i].Start(func(nd *Node) {
			epS[i].Recv()
		})
	}
	master.Start(func(nd *Node) {
		for i := range slaves {
			epM[i].Send(Message{Size: 10000}) // 10ms payload + 10ms overhead
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	c0 := slaves[0].Stats().Comm
	c1 := slaves[1].Stats().Comm
	c2 := slaves[2].Stats().Comm
	if !(c0 < c1 && c1 < c2) {
		t.Fatalf("comm times should diverge with serial order: %v %v %v", c0, c1, c2)
	}
	// Slave 0: 20ms transfer + 1ms latency = 21ms; each later slave waits
	// one more 20ms transfer.
	if c0 != 21*time.Millisecond || c1 != 41*time.Millisecond || c2 != 61*time.Millisecond {
		t.Fatalf("comm = %v %v %v", c0, c1, c2)
	}
}

func TestBidirectionalExchange(t *testing.T) {
	env := des.NewEnv()
	net := New(env, testParams())
	a := net.NewNode("a")
	b := net.NewNode("b")
	epA, epB := Connect(a, b)

	var reply Message
	a.Start(func(nd *Node) {
		epA.Send(Message{Payload: int(1), Size: 100})
		reply = epA.Recv()
	})
	b.Start(func(nd *Node) {
		m := epB.Recv()
		epB.Send(Message{Payload: m.Payload.(int) + 1, Size: 100})
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if reply.Payload.(int) != 2 {
		t.Fatalf("reply = %v", reply.Payload)
	}
}

func TestMultipleMessagesInOrder(t *testing.T) {
	env := des.NewEnv()
	net := New(env, testParams())
	a := net.NewNode("a")
	b := net.NewNode("b")
	epA, epB := Connect(a, b)

	var got []int
	a.Start(func(nd *Node) {
		for i := 0; i < 5; i++ {
			epA.Send(Message{Payload: i, Size: 10})
		}
	})
	b.Start(func(nd *Node) {
		for i := 0; i < 5; i++ {
			got = append(got, epB.Recv().Payload.(int))
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestComputeAndIdleAccounting(t *testing.T) {
	env := des.NewEnv()
	net := New(env, testParams())
	a := net.NewNode("a")
	a.Start(func(nd *Node) {
		nd.Compute(30 * time.Millisecond)
		nd.Idle(20 * time.Millisecond)
		nd.IdleUntil(100 * time.Millisecond)
		nd.Compute(-time.Second) // no-op
		nd.Idle(0)               // no-op
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.CPU != 30*time.Millisecond {
		t.Fatalf("cpu = %v", s.CPU)
	}
	if s.Idle != 70*time.Millisecond {
		t.Fatalf("idle = %v", s.Idle)
	}
	if a.Now() != 100*time.Millisecond {
		t.Fatalf("now = %v", a.Now())
	}
}

func TestAsyncInboxDelivery(t *testing.T) {
	env := des.NewEnv()
	net := New(env, testParams())
	a := net.NewNode("a")
	c := net.NewNode("collector")
	ib := NewInbox(c)

	var recvAt time.Duration
	var got Message
	c.Start(func(nd *Node) {
		got = ib.Recv()
		recvAt = nd.Now()
	})
	a.Start(func(nd *Node) {
		nd.SendAsync(ib, Message{Payload: "r", Size: 1000})
		if nd.Now() != 2*time.Millisecond { // async overhead 1ms + 1ms payload
			t.Errorf("async sender occupied until %v", nd.Now())
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Payload.(string) != "r" {
		t.Fatalf("payload = %v", got.Payload)
	}
	if recvAt != 3*time.Millisecond { // + 1ms latency
		t.Fatalf("recvAt = %v", recvAt)
	}
	// Collector's wait is idle, not comm.
	if c.Stats().Idle != 3*time.Millisecond || c.Stats().Comm != 0 {
		t.Fatalf("collector stats = %+v", c.Stats())
	}
}

func TestInboxRecvBefore(t *testing.T) {
	env := des.NewEnv()
	net := New(env, testParams())
	a := net.NewNode("a")
	c := net.NewNode("c")
	ib := NewInbox(c)

	var first, second bool
	c.Start(func(nd *Node) {
		_, first = ib.RecvBefore(5 * time.Millisecond)
		_, second = ib.RecvBefore(time.Hour)
	})
	a.Start(func(nd *Node) {
		nd.requireProc().Sleep(50 * time.Millisecond)
		nd.SendAsync(ib, Message{Size: 10})
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if first {
		t.Fatal("first RecvBefore should have timed out")
	}
	if !second {
		t.Fatal("second RecvBefore should have received")
	}
}

func TestBytesAndMsgCounters(t *testing.T) {
	env := des.NewEnv()
	net := New(env, testParams())
	a := net.NewNode("a")
	b := net.NewNode("b")
	epA, epB := Connect(a, b)
	a.Start(func(nd *Node) {
		epA.Send(Message{Size: 123})
		epA.Send(Message{Size: 77})
	})
	b.Start(func(nd *Node) {
		epB.Recv()
		epB.Recv()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().BytesSent != 200 || a.Stats().MsgsSent != 2 {
		t.Fatalf("sender stats = %+v", a.Stats())
	}
	if b.Stats().BytesRecv != 200 || b.Stats().MsgsRecv != 2 {
		t.Fatalf("receiver stats = %+v", b.Stats())
	}
}

func TestDeterministicTopology(t *testing.T) {
	run := func() time.Duration {
		env := des.NewEnv()
		net := New(env, testParams())
		m := net.NewNode("m")
		var eps []*Endpoint
		for i := 0; i < 4; i++ {
			s := net.NewNode("s")
			em, es := Connect(m, s)
			eps = append(eps, em)
			s.Start(func(nd *Node) {
				for j := 0; j < 10; j++ {
					es.Recv()
					es.Send(Message{Size: 64})
				}
			})
		}
		var end time.Duration
		m.Start(func(nd *Node) {
			for j := 0; j < 10; j++ {
				for _, ep := range eps {
					ep.Send(Message{Size: 4096})
					ep.Recv()
				}
			}
			end = nd.Now()
		})
		if _, err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	first := run()
	if first == 0 {
		t.Fatal("no time elapsed")
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic: %v != %v", got, first)
		}
	}
}
