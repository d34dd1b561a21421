package wire

import (
	"math/rand"
	"testing"

	"streamjoin/internal/tuple"
)

// TestNonCanonicalBytesRejected: a bool field decodes from 0 or 1 only, and
// a tuple's stream byte from S1 or S2 only. Each row builds one message
// twice, differing in one field whose encodings are the bytes 0 and 1; the
// first byte where the two encodings differ is that field. The byte is then
// set to bad, and the frame must fail to decode instead of decoding into a
// message that re-encodes differently (a bool) or indexes past the join's
// two streams (a stream).
func TestNonCanonicalBytesRejected(t *testing.T) {
	hello := func(v bool) Message { return &Hello{Slave: 1, Epoch: 2, Active: v, MoveACKs: []int64{3}} }
	batch := func(flag int) func(bool) Message {
		return func(v bool) Message {
			b := &Batch{Epoch: 5, Tuples: []tuple.Tuple{{Stream: tuple.S1, Key: 7, TS: 9}},
				Directives: []Directive{{MoveID: 1, Group: 2, From: 0, To: 1}}}
			switch flag {
			case 0:
				b.Activate = v
			case 1:
				b.Deactivate = v
			default:
				b.Shutdown = v
			}
			return b
		}
	}
	delta := func(close bool) func(bool) Message {
		return func(v bool) Message {
			wd := &WindowDelta{From: 1, Group: 2, MoveID: 3, Epoch: 4, Cutoff: 5,
				Runs: [2][]tuple.Tuple{{{Stream: tuple.S1, Key: 1, TS: 2}}, nil}}
			if close {
				wd.Close, wd.Reset = v, true
				wd.Buckets = []BucketSpec{{}}
			} else {
				wd.Reset = v
			}
			return wd
		}
	}
	rows := []struct {
		name string
		msg  func(bool) Message // the field at false and at true
		bad  byte
	}{
		{"Hello.Active", hello, 2},
		{"Batch.Activate", batch(0), 0x30},
		{"Batch.Deactivate", batch(1), 0xff},
		{"Batch.Shutdown", batch(2), 2},
		{"QuerySpec.CountOnly", func(v bool) Message {
			return &QuerySet{Specs: []QuerySpec{{Query: 1, CountOnly: v, SinkAddr: "h:1"}}}
		}, 2},
		{"Ping.Leave", func(v bool) Message { return &Ping{Slave: 1, Seq: 2, Leave: v} }, 0x80},
		{"WindowDelta.Reset", delta(false), 0x30},
		{"WindowDelta.Close", delta(true), 0x30},
		{"Batch tuple stream", func(v bool) Message {
			s := tuple.S1
			if v {
				s = tuple.S2
			}
			return &Batch{Epoch: 1, Tuples: []tuple.Tuple{{Stream: s, Key: 3, TS: 4}}}
		}, 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			enc, at := fieldByte(t, row.msg)
			if _, err := Unmarshal(enc); err != nil {
				t.Fatalf("canonical encoding rejected: %v", err)
			}
			enc[at] = row.bad
			if m, err := Unmarshal(enc); err == nil {
				t.Fatalf("byte %#x at offset %d decoded into %+v", row.bad, at, m)
			}
		})
	}
}

// fieldByte encodes msg(true) and returns it with the offset of the field
// msg sets: the first byte where it differs from msg(false), which must
// read 0 there and 1 here.
func fieldByte(t testing.TB, msg func(bool) Message) ([]byte, int) {
	t.Helper()
	off, on := Marshal(msg(false)), Marshal(msg(true))
	n := min(len(off), len(on))
	at := 0
	for at < n && off[at] == on[at] {
		at++
	}
	if at == n || off[at] != 0 || on[at] != 1 {
		t.Fatalf("no 0/1 byte tells the two encodings apart (first difference at %d)", at)
	}
	return on, at
}

// nonCanonicalReset is a replication delta whose Reset byte is 0x30: before
// bools were strict it decoded as a Reset and re-encoded with a 1.
func nonCanonicalReset(t testing.TB) []byte {
	enc, at := fieldByte(t, func(v bool) Message {
		wd := randWindowDelta(rand.New(rand.NewSource(3)), 2, 1)
		wd.Reset = v
		return wd
	})
	enc[at] = 0x30
	return enc
}
