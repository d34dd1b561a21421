package engine

import (
	"net"
	"time"
)

// Transport is the dial/listen seam under every live wire path: control,
// mesh, results, heartbeat, replication, and sink connections are all
// created through one of these. The default (TCP) is the operating system's
// stack, unmodified; tests substitute a fault-injecting implementation
// (internal/faultnet) to drive the cluster through hostile-network
// scenarios without touching the protocol code.
type Transport interface {
	Dial(network, addr string) (net.Conn, error)
	DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error)
	Listen(network, addr string) (net.Listener, error)
}

// TCP is the default Transport: net.Dial / net.Listen, nothing injected.
var TCP Transport = tcpTransport{}

type tcpTransport struct{}

func (tcpTransport) Dial(network, addr string) (net.Conn, error) {
	return net.Dial(network, addr)
}

func (tcpTransport) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, addr, timeout)
}

func (tcpTransport) Listen(network, addr string) (net.Listener, error) {
	return net.Listen(network, addr)
}

// WithDeadlines wraps c so that every Read arms an idle read deadline of rd
// and every Write arms a write deadline of wd before hitting the socket —
// per-operation deadlines, not absolute ones, so a healthy conn that keeps
// moving bytes never times out while a wedged one (TCP zero-window,
// half-open peer) fails within one deadline instead of blocking a barrier
// forever. A non-positive duration disables that side; both non-positive
// returns c unchanged.
func WithDeadlines(c net.Conn, rd, wd time.Duration) net.Conn {
	if rd <= 0 && wd <= 0 {
		return c
	}
	return &deadlineConn{Conn: c, rd: rd, wd: wd}
}

// deadlineConn arms a fresh deadline before each I/O operation. It
// deliberately does not intercept SetReadDeadline/SetWriteDeadline: callers
// below this wrapper (none today) would conflict with the arming, and the
// engine's conn adapters never set deadlines themselves.
type deadlineConn struct {
	net.Conn
	rd time.Duration // per-read idle deadline; 0 = none
	wd time.Duration // per-write deadline; 0 = none
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	if d.rd > 0 {
		if err := d.Conn.SetReadDeadline(time.Now().Add(d.rd)); err != nil {
			return 0, err
		}
	}
	return d.Conn.Read(p)
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	if d.wd > 0 {
		if err := d.Conn.SetWriteDeadline(time.Now().Add(d.wd)); err != nil {
			return 0, err
		}
	}
	return d.Conn.Write(p)
}
