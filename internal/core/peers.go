package core

import (
	"sync"
	"time"

	"streamjoin/internal/engine"
)

// peerTable is a slave's mesh address book: slave id → live connection. On
// the TCP deployment entries appear asynchronously (the mesh acceptor
// registers inbound dials, the join handshake registers outbound ones) and
// disappear when a roster update prunes a departed peer; the simulator and
// in-process runs pre-fill it once (staticPeers). get blocks until
// the requested peer is present — a directive can name a joiner whose mesh
// dial is still in flight — and returns nil once the peer is known gone or
// the patience budget runs out.
type peerTable struct {
	mu       sync.Mutex
	cond     *sync.Cond
	conns    map[int32]engine.Conn
	closers  map[int32]func()
	gone     map[int32]bool
	patience time.Duration
}

func newPeerTable(patience time.Duration) *peerTable {
	pt := &peerTable{
		conns:    make(map[int32]engine.Conn),
		closers:  make(map[int32]func()),
		gone:     make(map[int32]bool),
		patience: patience,
	}
	pt.cond = sync.NewCond(&pt.mu)
	return pt
}

// staticPeers builds the table of a run whose mesh never changes: conns
// holds one pipe or simnet connection per peer, indexed by slave id, nil at
// the slave's own slot.
func staticPeers(conns []engine.Conn) *peerTable {
	pt := newPeerTable(0)
	for id, c := range conns {
		if c != nil {
			pt.set(int32(id), c, nil)
		}
	}
	return pt
}

// set registers (or replaces) the connection to a peer. closeRaw tears down
// the underlying transport; it is invoked when the peer is pruned or the
// table shuts down.
func (pt *peerTable) set(id int32, c engine.Conn, closeRaw func()) {
	pt.mu.Lock()
	if old := pt.closers[id]; old != nil {
		old()
	}
	pt.conns[id] = c
	pt.closers[id] = closeRaw
	delete(pt.gone, id)
	pt.mu.Unlock()
	pt.cond.Broadcast()
}

// get returns the connection to a peer, waiting up to the patience budget
// for it to be registered. Returns nil when the peer was pruned or never
// arrives.
func (pt *peerTable) get(id int32) engine.Conn {
	deadline := time.Now().Add(pt.patience)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for {
		if c, ok := pt.conns[id]; ok {
			return c
		}
		if pt.gone[id] || time.Now().After(deadline) {
			return nil
		}
		// Wake periodically so the deadline is honored even without a
		// broadcast.
		t := time.AfterFunc(50*time.Millisecond, pt.cond.Broadcast)
		pt.cond.Wait()
		t.Stop()
	}
}

// each visits every registered connection.
func (pt *peerTable) each(f func(engine.Conn)) {
	pt.mu.Lock()
	conns := make([]engine.Conn, 0, len(pt.conns))
	for _, c := range pt.conns {
		conns = append(conns, c)
	}
	pt.mu.Unlock()
	for _, c := range conns {
		f(c)
	}
}

// drop severs one peer: close the raw transport, forget the entry, and mark
// it gone so pending and future gets fail fast. Closing the transport also
// fails over any mesh read currently blocked on it. Callers hold mu.
func (pt *peerTable) drop(id int32) {
	if cl := pt.closers[id]; cl != nil {
		cl()
	}
	delete(pt.conns, id)
	delete(pt.closers, id)
	pt.gone[id] = true
}

// prune drops every peer not in the live set (a roster update named the
// survivors).
func (pt *peerTable) prune(live map[int32]bool) {
	pt.mu.Lock()
	for id := range pt.conns {
		if !live[id] {
			pt.drop(id)
		}
	}
	pt.mu.Unlock()
	pt.cond.Broadcast()
}

// fail drops one peer after a transport error on its connection, so every
// later get fails fast instead of waiting out the patience budget per
// directive. A stalled peer thereby degrades exactly like a dead one — the
// master's heartbeat eviction re-registers it via set if it was only slow.
func (pt *peerTable) fail(id int32) {
	pt.mu.Lock()
	pt.drop(id)
	pt.mu.Unlock()
	pt.cond.Broadcast()
}

// closeAll drops every peer (shutdown and the abrupt crash seam used by
// tests).
func (pt *peerTable) closeAll() {
	pt.mu.Lock()
	for id := range pt.conns {
		pt.drop(id)
	}
	pt.mu.Unlock()
	pt.cond.Broadcast()
}
