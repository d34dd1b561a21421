//go:build unix

package engine

import (
	"net"
	"syscall"
)

// peerGone returns why c's peer is gone — it closed its end, so a FIN is
// waiting, or it reset the connection — or nil while the peer is there or
// when c gives no access to its socket. It peeks at the socket without
// blocking, so nothing waiting is consumed.
func peerGone(c net.Conn) error {
	if d, ok := c.(*deadlineConn); ok {
		c = d.Conn
	}
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	var gone error
	var b [1]byte
	// A Read that cannot start (the conn is closed or past its deadline)
	// never calls the function and leaves no verdict.
	_ = rc.Read(func(fd uintptr) bool {
		// Go's sockets are non-blocking: with nothing to read this fails
		// with EAGAIN instead of waiting.
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
		switch {
		case err == nil && n == 0:
			gone = errPeerClosed
		case err != nil && err != syscall.EAGAIN && err != syscall.EWOULDBLOCK && err != syscall.EINTR:
			gone = err
		}
		return true
	})
	return gone
}
