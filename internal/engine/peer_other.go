//go:build !unix

package engine

import "net"

// peerGone has no non-blocking peek here, so it never gives a verdict:
// a crashed peer is found by the next Recv or the heartbeat instead.
func peerGone(net.Conn) error { return nil }
