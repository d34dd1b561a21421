// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel models a set of cooperating processes (Proc) that advance a
// shared virtual clock. Exactly one process runs at a time; a process hands
// control back to the scheduler whenever it blocks (Sleep, queue wait,
// resource wait). Events with equal timestamps fire in the order they were
// scheduled, so a simulation with a fixed seed is fully reproducible.
//
// The kernel is the substitute for the paper's physical cluster: the
// higher-level simnet package builds nodes and links on top of it, and the
// join system's master/slave/collector protocol code runs unmodified as DES
// processes.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, expressed as nanoseconds since the start
// of the simulation.
type Time int64

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Add returns the time d after t. It saturates instead of overflowing.
func (t Time) Add(d time.Duration) Time {
	s := t + Time(d)
	if d > 0 && s < t {
		return MaxTime
	}
	return s
}

// Duration converts t to a duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

type event struct {
	at   Time
	seq  uint64
	proc *Proc  // process to resume, or nil when fn is set
	fn   func() // scheduler-context callback; must not block
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type wakeKind uint8

const (
	wakeRun wakeKind = iota
	wakeKill
)

// killed is the sentinel panic value used to unwind a process during Kill.
type killed struct{}

// Env is a simulation environment: a virtual clock plus the set of processes
// and pending events that drive it.
//
// Env is not safe for concurrent use; all interaction happens either from the
// goroutine that calls Run, or from process functions (which the scheduler
// serializes).
type Env struct {
	now     Time
	seq     uint64
	events  eventHeap
	parked  chan struct{}
	procs   []*Proc
	running *Proc
	live    int
	stopped bool
}

// NewEnv returns an empty simulation environment with the clock at zero.
func NewEnv() *Env {
	return &Env{parked: make(chan struct{})}
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// Live reports the number of processes that have been spawned and have not
// yet returned.
func (e *Env) Live() int { return e.live }

func (e *Env) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.events, ev)
}

// At schedules fn to run in scheduler context at time t (or now, if t is in
// the past). fn must not block; it is intended for non-blocking actions such
// as delivering a message into a queue.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(&event{at: t, fn: fn})
}

// Spawn starts a new process executing fn. The process begins running at the
// current virtual time, after the caller yields (or immediately when called
// before Run).
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		env:   e,
		name:  name,
		wake:  make(chan wakeKind),
		alive: true,
	}
	e.procs = append(e.procs, p)
	e.live++
	go func() {
		kind := <-p.wake
		if kind == wakeKill {
			p.alive = false
			e.live--
			e.parked <- struct{}{}
			return
		}
		defer func() {
			p.alive = false
			e.live--
			if r := recover(); r != nil {
				if _, ok := r.(killed); ok {
					e.parked <- struct{}{}
					return
				}
				// Surface real panics on the scheduler side.
				p.fault = fmt.Errorf("des: process %q panicked: %v", p.name, r)
				e.parked <- struct{}{}
				return
			}
			e.parked <- struct{}{}
		}()
		fn(p)
	}()
	p.scheduleWake(e.now)
	return p
}

// step dispatches a single event. It reports false when the event queue is
// empty or the next event lies beyond horizon.
func (e *Env) step(horizon Time) (bool, error) {
	if len(e.events) == 0 {
		return false, nil
	}
	if e.events[0].at > horizon {
		return false, nil
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	if ev.fn != nil {
		ev.fn()
		return true, nil
	}
	p := ev.proc
	if !p.alive || p.stale(ev.seq) {
		return true, nil
	}
	e.running = p
	p.wake <- wakeRun
	<-e.parked
	e.running = nil
	if p.fault != nil {
		return false, p.fault
	}
	return true, nil
}

// Run processes events until the queue is empty, and returns the final
// virtual time. Processes still blocked on queues or resources are left
// parked; use Kill to unwind them.
func (e *Env) Run() (Time, error) {
	return e.RunUntil(MaxTime)
}

// RunUntil processes events up to and including time horizon, then advances
// the clock to horizon. It returns the virtual time reached.
func (e *Env) RunUntil(horizon Time) (Time, error) {
	for {
		ok, err := e.step(horizon)
		if err != nil {
			return e.now, err
		}
		if !ok {
			break
		}
	}
	if horizon != MaxTime && e.now < horizon {
		e.now = horizon
	}
	return e.now, nil
}

// Kill unwinds every parked process so that their goroutines exit. The
// environment must not be used afterwards except to read the clock.
func (e *Env) Kill() {
	e.stopped = true
	for _, p := range e.procs {
		if !p.alive || p == e.running {
			continue
		}
		p.wake <- wakeKill
		<-e.parked
	}
}

// Proc is a single simulation process. Every blocking operation must go
// through the Proc so the scheduler can account for virtual time.
type Proc struct {
	env   *Env
	name  string
	wake  chan wakeKind
	alive bool
	fault error
	// wakeSeq invalidates stale scheduled wakeups: when a process is woken
	// out-of-band (queue put) after it also scheduled a timed wakeup, the
	// timed event must be ignored.
	wakeSeq   uint64
	hasWakeup bool
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

func (p *Proc) stale(seq uint64) bool {
	if !p.hasWakeup {
		return true
	}
	if p.wakeSeq != seq {
		return true
	}
	p.hasWakeup = false
	return false
}

// yield parks the process and waits for the scheduler to resume it. The
// first resume of a process is consumed by the Spawn wrapper, so yield always
// parks before waiting.
func (p *Proc) yield() {
	p.env.parked <- struct{}{}
	if kind := <-p.wake; kind == wakeKill {
		panic(killed{})
	}
}

// scheduleWake arranges for the process to be resumed at time t, replacing
// any previously scheduled wakeup.
func (p *Proc) scheduleWake(t Time) {
	ev := &event{at: t, proc: p}
	p.env.push(ev)
	p.wakeSeq = ev.seq
	p.hasWakeup = true
}

// block parks the process with no scheduled wakeup. Another process (or a
// scheduler callback) must call unblock to resume it.
func (p *Proc) block() {
	p.hasWakeup = false
	p.env.parked <- struct{}{}
	if kind := <-p.wake; kind == wakeKill {
		panic(killed{})
	}
}

// unblock schedules p to resume at the current virtual time. It may be
// called from any process or scheduler callback.
func (p *Proc) unblock() {
	p.scheduleWake(p.env.now)
}

// Block parks the process with no scheduled wakeup; another process (or a
// scheduler callback) must call WakeAt to resume it. It exists so that
// packages building synchronization primitives (such as simnet connections)
// can park processes directly.
func (p *Proc) Block() { p.block() }

// WakeAt schedules p to resume at virtual time t (clamped to the present).
// It must only be called while p is parked via Block, and replaces any
// previously scheduled wakeup.
func (p *Proc) WakeAt(t Time) {
	if t < p.env.now {
		t = p.env.now
	}
	p.scheduleWake(t)
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.env.now.Add(d))
}

// SleepUntil suspends the process until virtual time t.
func (p *Proc) SleepUntil(t Time) {
	if t < p.env.now {
		t = p.env.now
	}
	p.scheduleWake(t)
	p.yield()
}
