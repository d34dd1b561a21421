package core

import (
	"testing"
	"time"
)

// TestHeartbeatFailureDetection pins the failure detector's latency bounds
// under a deterministic clock: a slave is never declared dead before the
// configured budget (misses × interval) elapses without a ping, and always
// within one check period after it.
func TestHeartbeatFailureDetection(t *testing.T) {
	const (
		interval = 100 * time.Millisecond
		misses   = 3
		budget   = time.Duration(misses) * interval
	)
	var clock time.Duration
	var deaths []int32
	h := newHeartbeatMonitor(interval, misses, func() time.Duration { return clock }, func(s int32) {
		deaths = append(deaths, s)
	})

	// A pinging slave stays alive forever.
	h.arm(1)
	for step := 0; step < 20; step++ {
		clock += interval
		h.observe(1)
		if died := h.check(); len(died) != 0 {
			t.Fatalf("step %d: pinging slave declared dead: %v", step, died)
		}
	}

	// Silence: not dead at exactly the budget...
	silentFrom := clock
	clock = silentFrom + budget
	if died := h.check(); len(died) != 0 {
		t.Fatalf("dead at exactly the budget (%v): %v", budget, died)
	}
	// ...dead on the first check after it.
	clock = silentFrom + budget + 1
	if died := h.check(); len(died) != 1 || died[0] != 1 {
		t.Fatalf("check just past budget: died = %v, want [1]", died)
	}
	if len(deaths) != 1 || deaths[0] != 1 {
		t.Fatalf("onDead calls = %v, want [1]", deaths)
	}

	// The declaration is final: more checks and stray pings change nothing.
	h.observe(1)
	clock += 10 * budget
	if died := h.check(); len(died) != 0 {
		t.Fatalf("second declaration for the same slave: %v", died)
	}
	if len(deaths) != 1 {
		t.Fatalf("onDead fired %d times, want once", len(deaths))
	}

	// Worst-case detection latency with a periodic checker at interval/2:
	// strictly less than budget + interval/2 after the last ping.
	h.arm(2)
	last := clock
	detected := time.Duration(-1)
	for clock < last+2*budget {
		clock += interval / 2
		if died := h.check(); len(died) == 1 && died[0] == 2 {
			detected = clock - last
			break
		}
	}
	if detected < 0 {
		t.Fatal("silent slave 2 never detected")
	}
	if detected <= budget || detected > budget+interval/2 {
		t.Fatalf("detection latency %v outside (%v, %v]", detected, budget, budget+interval/2)
	}

	// An evicted slot refuses a redialed ping stream (no zombie revival)
	// until a fresh admission recycles it.
	if h.arm(1) {
		t.Fatal("evicted slot 1 accepted a new ping stream")
	}
	h.clear(1)
	if !h.arm(1) {
		t.Fatal("recycled slot 1 refused its new owner's ping stream")
	}
	clock += budget + 1
	if died := h.check(); len(died) != 1 || died[0] != 1 {
		t.Fatalf("recycled slot went silent: died = %v, want [1]", died)
	}
}

// TestHeartbeatClearForgetsLastPing: a slot recycled by a fresh admission is
// not judged by its previous occupant's last ping. The new occupant's ping
// stream arms it again.
func TestHeartbeatClearForgetsLastPing(t *testing.T) {
	const interval = 100 * time.Millisecond
	var clock time.Duration
	var deaths []int32
	h := newHeartbeatMonitor(interval, 3, func() time.Duration { return clock }, func(s int32) {
		deaths = append(deaths, s)
	})
	h.arm(1)
	clock = 250 * time.Millisecond
	h.observe(1) // the departing occupant's last ping
	clock = 500 * time.Millisecond
	h.clear(1) // a joiner takes the slot; its ping stream is not armed yet
	clock = 600 * time.Millisecond
	if died := h.check(); len(died) != 0 || len(deaths) != 0 {
		t.Fatalf("recycled slot declared dead on its previous occupant's ping: %v", died)
	}
	h.arm(1)
	clock += 3*interval + 1
	if died := h.check(); len(died) != 1 || died[0] != 1 {
		t.Fatalf("new occupant went silent: died = %v, want [1]", died)
	}
}
