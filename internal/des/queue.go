package des

// Queue is an unbounded FIFO connecting simulation processes. Put never
// blocks; Get blocks the calling process until an item is available.
//
// Put may additionally be called from scheduler-context callbacks registered
// with Env.At, which is how delayed message delivery is modeled.
type Queue[T any] struct {
	env     *Env
	items   []T
	waiters []*Proc
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] {
	return &Queue[T]{env: env}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v and wakes the longest-waiting getter, if any.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		w.unblock()
	}
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}

// Get removes and returns the head item, blocking the calling process until
// one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		q.waiters = append(q.waiters, p)
		p.block()
	}
}

// GetBefore behaves like Get but gives up at virtual time deadline. The
// boolean result reports whether an item was obtained.
func (q *Queue[T]) GetBefore(p *Proc, deadline Time) (T, bool) {
	for {
		if v, ok := q.TryGet(); ok {
			return v, true
		}
		if p.Now() >= deadline {
			var zero T
			return zero, false
		}
		q.waiters = append(q.waiters, p)
		p.scheduleWake(deadline)
		p.yield()
		// Either the timed wakeup fired or a Put unblocked us; remove any
		// leftover registration so a later Put does not wake us spuriously.
		q.dropWaiter(p)
	}
}

func (q *Queue[T]) dropWaiter(p *Proc) {
	for i, w := range q.waiters {
		if w == p {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}
