package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func randMembership(r *rand.Rand, n int) *Membership {
	m := &Membership{
		Epoch: r.Int63n(1 << 30),
		Self:  r.Int31n(16) - 1, // -1 (unassigned) included
	}
	if n > 0 {
		m.Slaves = make([]MemberSpec, n) // n == 0 stays nil, like a decode
	}
	for i := range m.Slaves {
		addr := fmt.Sprintf("10.0.%d.%d:%d", r.Intn(256), r.Intn(256), 1024+r.Intn(60000))
		if r.Intn(8) == 0 {
			addr = "" // a roster entry may carry no mesh address
		}
		m.Slaves[i] = MemberSpec{ID: int32(i), Addr: addr, Workers: r.Int31n(64)}
	}
	return m
}

// TestMembershipRoundTrip checks Marshal/Unmarshal identity across roster
// sizes, including the empty roster, plus the WireSize accounting.
func TestMembershipRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 64, 500} {
		in := randMembership(r, n)
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, ok := out.(*Membership)
		if !ok {
			t.Fatalf("n=%d: decoded %T", n, out)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("n=%d:\ngot  %+v\nwant %+v", n, got, in)
		}
		want := int64(headerSize + 16)
		for _, sp := range in.Slaves {
			want += memberEncSize + int64(len(sp.Addr))
		}
		if in.WireSize() != want {
			t.Fatalf("n=%d: WireSize = %d, want %d", n, in.WireSize(), want)
		}
	}
}

// TestHeartbeatRoundTrip checks the Ping/Pong codecs, both Leave values
// included.
func TestHeartbeatRoundTrip(t *testing.T) {
	for _, in := range []Message{
		&Ping{Slave: 0},
		&Ping{Slave: 3, Leave: true},
		&Pong{},
	} {
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	}
}

// TestMembershipTruncated replays every strict prefix of encoded membership
// messages; each must fail cleanly (no panic, no fabricated message).
func TestMembershipTruncated(t *testing.T) {
	for _, m := range []Message{
		randMembership(rand.New(rand.NewSource(7)), 9),
		&Ping{Slave: 2, Leave: true},
		&Pong{},
	} {
		full := Marshal(m)
		for cut := 0; cut < len(full); cut++ {
			if got, err := Unmarshal(full[:cut]); err == nil {
				t.Fatalf("%v: prefix %d of %d decoded as %v", m.Kind(), cut, len(full), got.Kind())
			}
		}
	}
}

// TestMembershipMutatedCount rewrites the roster-count prefix of a valid
// encoding to every interesting wrong value: decoding must error and must
// never panic.
func TestMembershipMutatedCount(t *testing.T) {
	full := Marshal(randMembership(rand.New(rand.NewSource(9)), 4))
	// Layout: kind(1) + epoch(8) + self(4) + count(4) + roster.
	const countOff = 1 + 8 + 4
	for _, count := range []uint32{0, 1, 3, 5, 1 << 16, 1 << 27, 1<<28 + 1, ^uint32(0)} {
		buf := append([]byte(nil), full...)
		binary.BigEndian.PutUint32(buf[countOff:], count)
		if m, err := Unmarshal(buf); err == nil {
			t.Fatalf("count %d accepted as %v", count, m.Kind())
		}
	}
}

// TestMembershipCorruptCountNoGiantAlloc proves a huge roster count over a
// tiny body cannot force a proportional preallocation: decoding the corrupt
// message must stay within a small allocation budget.
func TestMembershipCorruptCountNoGiantAlloc(t *testing.T) {
	buf := Marshal(randMembership(rand.New(rand.NewSource(1)), 1))
	const countOff = 1 + 8 + 4
	binary.BigEndian.PutUint32(buf[countOff:], 1<<28)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Unmarshal(buf); err == nil {
			t.Fatal("corrupt count accepted")
		}
	})
	// The decoder may allocate the message struct and a capped roster slice;
	// a giant prealloc would show up as megabytes, not a handful of allocs.
	if allocs > 8 {
		t.Fatalf("corrupt count cost %.0f allocs/op", allocs)
	}
	var m Membership
	d := &decoder{buf: buf[1:]}
	if err := m.decodeFrom(d); err == nil {
		t.Fatal("corrupt count accepted by decodeFrom")
	}
	if cap(m.Slaves) > 8 {
		t.Fatalf("corrupt count preallocated %d roster slots", cap(m.Slaves))
	}
}

// TestMembershipFramedRoundTrip runs membership and heartbeat messages
// through the batched physical framing alongside other kinds.
func TestMembershipFramedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	msgs := []Message{
		randMembership(r, 3),
		&Ping{Slave: 1},
		&Hello{Slave: 1, Epoch: 2},
		&Pong{},
		randMembership(r, 0),
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	for _, m := range msgs {
		if err := fw.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for i, want := range msgs {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: %+v != %+v", i, got, want)
		}
	}
}
