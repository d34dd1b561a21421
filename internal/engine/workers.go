package engine

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// Runner executes per-worker tasks for a multi-prober slave: a fixed set of
// serial execution lanes, each with its own Proc for accounting. The live
// engines back it with a goroutine pool (one worker per core by default);
// the simulated engine and single-worker slaves use the inline runner, which
// runs every task on the slave's own goroutine and Proc.
type Runner interface {
	// Size is the number of workers.
	Size() int
	// Proc returns worker i's execution context. Work charged to it must
	// also be visible in the slave's aggregate stats.
	Proc(i int) Proc
	// Run executes task(i) once for every worker i and returns when all
	// have finished (a barrier). Tasks for distinct workers may run
	// concurrently; each worker runs its tasks serially across Run calls.
	// A panicking task re-panics on the caller after the barrier.
	Run(task func(worker int))
	// Close releases worker resources. Run must not be called afterwards.
	Close()
}

// inlineRunner is the degenerate single-worker Runner: task code runs on the
// caller's goroutine against the caller's own Proc, so cooperative engines
// (the DES simulation) and W=1 live slaves behave exactly like the original
// single-threaded slave loop.
type inlineRunner struct {
	proc Proc
}

// NewInlineRunner returns a Runner with one worker that executes inline on
// the calling goroutine, accounting to p.
func NewInlineRunner(p Proc) Runner { return inlineRunner{proc: p} }

func (r inlineRunner) Size() int          { return 1 }
func (r inlineRunner) Proc(int) Proc      { return r.proc }
func (r inlineRunner) Run(task func(int)) { task(0) }
func (r inlineRunner) Close()             {}

// workerProc is one pool worker's Proc. Modeled cost and idle time fold into
// the parent LiveProc (so the slave's aggregate stats stay comparable to the
// single-worker design) while a per-worker copy remains readable for load
// diagnostics. The clock is the parent's wall clock.
type workerProc struct {
	parent *LiveProc
	name   string

	mu    sync.Mutex
	stats Stats
}

// Name implements Proc.
func (w *workerProc) Name() string { return w.name }

// Now implements Proc.
func (w *workerProc) Now() time.Duration { return w.parent.Now() }

// Idle implements Proc.
func (w *workerProc) Idle(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
	w.mu.Lock()
	w.stats.Idle += d
	w.mu.Unlock()
	w.parent.addIdle(d)
}

// IdleUntil implements Proc.
func (w *workerProc) IdleUntil(t time.Duration) { w.Idle(t - w.Now()) }

// Compute implements Proc: accounted on the worker and folded into the
// parent.
func (w *workerProc) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	w.mu.Lock()
	w.stats.CPU += d
	w.mu.Unlock()
	w.parent.Compute(d)
}

// Stats implements Proc.
func (w *workerProc) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// WorkerPool is the live multi-worker Runner: n persistent goroutines, each
// a serial lane with its own workerProc. Run dispatches one task per lane
// and waits for all of them, so the slave's event loop sees a fork/join
// barrier per processing phase and can touch worker-owned state freely
// between Run calls.
type WorkerPool struct {
	procs []*workerProc
	lanes []chan func()
}

// NewWorkerPool starts a pool of n workers whose accounting folds into
// parent. n must be at least 1.
func NewWorkerPool(parent *LiveProc, n int) *WorkerPool {
	if n < 1 {
		panic(fmt.Sprintf("engine: worker pool size %d", n))
	}
	p := &WorkerPool{
		procs: make([]*workerProc, n),
		lanes: make([]chan func(), n),
	}
	for i := range p.procs {
		p.procs[i] = &workerProc{
			parent: parent,
			name:   fmt.Sprintf("%s/w%d", parent.Name(), i),
		}
		lane := make(chan func())
		p.lanes[i] = lane
		go func() {
			for fn := range lane {
				fn()
			}
		}()
	}
	return p
}

// NewLiveRunner returns the Runner for a live slave hosting n join workers:
// a WorkerPool for n > 1, the inline runner otherwise (no goroutine hop, and
// W=1 behaves exactly like the pre-pool slave loop).
func NewLiveRunner(parent *LiveProc, n int) Runner {
	if n <= 1 {
		return NewInlineRunner(parent)
	}
	return NewWorkerPool(parent, n)
}

// Size implements Runner.
func (p *WorkerPool) Size() int { return len(p.procs) }

// Proc implements Runner.
func (p *WorkerPool) Proc(i int) Proc { return p.procs[i] }

// Run implements Runner. Task panics are re-raised on the caller after
// every worker has finished, so a join failure surfaces on the slave's
// event loop (where the node's recover-and-shutdown handling lives) instead
// of killing the process from a bare pool goroutine. All failed workers are
// reported, each with the stack of its own goroutine (the re-panic would
// otherwise show only the caller's stack).
func (p *WorkerPool) Run(task func(worker int)) {
	var wg sync.WaitGroup
	panics := make([]any, len(p.lanes))
	stacks := make([][]byte, len(p.lanes))
	wg.Add(len(p.lanes))
	for i, lane := range p.lanes {
		lane <- func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
					stacks[i] = debug.Stack()
				}
			}()
			task(i)
		}
	}
	wg.Wait()
	var msg strings.Builder
	for i, r := range panics {
		if r == nil {
			continue
		}
		if msg.Len() > 0 {
			msg.WriteString("; also ")
		}
		fmt.Fprintf(&msg, "engine: worker %d: %v\n%s", i, r, stacks[i])
	}
	if msg.Len() > 0 {
		panic(msg.String())
	}
}

// Close implements Runner: it stops the worker goroutines.
func (p *WorkerPool) Close() {
	for _, lane := range p.lanes {
		close(lane)
	}
}
