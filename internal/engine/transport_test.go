package engine

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestWithDeadlinesPassThrough: all-zero deadlines must return the conn
// unchanged — a deployment with deadlines disabled pays nothing for the seam.
func TestWithDeadlinesPassThrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if c := WithDeadlines(a, 0, 0); c != a {
		t.Fatalf("WithDeadlines(0,0) wrapped the conn: %T", c)
	}
	if c := WithDeadlines(a, -1, -1); c != a {
		t.Fatalf("WithDeadlines(-1,-1) wrapped the conn: %T", c)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestWithDeadlinesReadTimeout: a read against a silent peer fails with a
// timeout error within the armed deadline, and a read that receives data in
// time succeeds — the deadline is per-operation, re-armed each call.
func TestWithDeadlinesReadTimeout(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := WithDeadlines(a, 50*time.Millisecond, 0)

	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	if !isTimeout(err) {
		t.Fatalf("read against silent peer: err = %v, want timeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("timeout took %v, deadline was 50ms", el)
	}

	// A prompt writer resets the clock: the next read succeeds even though
	// the previous one timed out.
	go func() { b.Write([]byte{42}) }()
	buf := make([]byte, 1)
	n, err := c.Read(buf)
	if err != nil || n != 1 || buf[0] != 42 {
		t.Fatalf("read after recovery: n=%d err=%v", n, err)
	}
}

// TestWithDeadlinesWriteTimeout: a write against a peer that never reads
// fails with a timeout instead of blocking forever.
func TestWithDeadlinesWriteTimeout(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := WithDeadlines(a, 0, 50*time.Millisecond)
	_, err := c.Write(make([]byte, 1))
	if !isTimeout(err) {
		t.Fatalf("write against stalled peer: err = %v, want timeout", err)
	}
}

// TestTCPTransport sanity-checks the default Transport end to end.
func TestTCPTransport(t *testing.T) {
	ln, err := TCP.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, err = c.Write([]byte("ok"))
		done <- err
	}()
	c, err := TCP.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 2)
	if _, err := c.Read(buf); err != nil || string(buf) != "ok" {
		t.Fatalf("read %q, err %v", buf, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
