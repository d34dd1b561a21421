package core

import (
	"sync"
	"time"
)

// heartbeatMonitor is the TCP master's failure detector. Every joined
// slave opens a dedicated heartbeat connection and sends a wire.Ping each
// HeartbeatMs; the deploy layer's per-connection reader records each ping
// with observe and replies with a wire.Pong. A periodic check declares a
// slave dead once its last ping is older than the budget
// (HeartbeatMisses × HeartbeatMs) and reports it through onDead exactly
// once. The clock is injected so tests can pin detection-latency bounds
// deterministically.
type heartbeatMonitor struct {
	interval time.Duration
	misses   int
	now      func() time.Duration
	onDead   func(slave int32)

	mu       sync.Mutex
	lastSeen map[int32]time.Duration
	dead     map[int32]bool
}

func newHeartbeatMonitor(interval time.Duration, misses int, now func() time.Duration, onDead func(int32)) *heartbeatMonitor {
	return &heartbeatMonitor{
		interval: interval,
		misses:   misses,
		now:      now,
		onDead:   onDead,
		lastSeen: make(map[int32]time.Duration),
		dead:     make(map[int32]bool),
	}
}

// budget is the detection deadline: a slave silent for longer is dead.
func (h *heartbeatMonitor) budget() time.Duration {
	return h.interval * time.Duration(h.misses)
}

// observe records a heartbeat from the slave. Pings from an already-declared
// slave are ignored (its eviction is final; the slot revives only through
// clear).
func (h *heartbeatMonitor) observe(slave int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead[slave] {
		return
	}
	h.lastSeen[slave] = h.now()
}

// arm starts tracking the slave for a new heartbeat connection, refusing
// slots already declared dead: an evicted slave redialing its ping stream
// must not keep its slot looking alive. A legitimately recycled slot is
// unlocked by clear (called from admission) before its new owner's stream
// arrives.
func (h *heartbeatMonitor) arm(slave int32) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead[slave] {
		return false
	}
	h.lastSeen[slave] = h.now()
	return true
}

// clear forgets a slot (fresh admission recycling it): its dead mark, and
// its last ping, which was its previous occupant's.
func (h *heartbeatMonitor) clear(slave int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.dead, slave)
	delete(h.lastSeen, slave)
}

// check declares every overdue slave dead, invoking onDead (outside the
// lock) once per slave, and returns the newly declared ids.
func (h *heartbeatMonitor) check() []int32 {
	now := h.now()
	h.mu.Lock()
	var died []int32
	for slave, last := range h.lastSeen {
		if now-last > h.budget() {
			delete(h.lastSeen, slave)
			h.dead[slave] = true
			died = append(died, slave)
		}
	}
	h.mu.Unlock()
	if h.onDead != nil {
		for _, s := range died {
			h.onDead(s)
		}
	}
	return died
}
