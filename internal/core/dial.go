package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"time"

	"streamjoin/internal/engine"
)

// Dialing with retries. Cluster formation races the master's listeners
// against slave startup, so every slave-side dial retries; PR 9 replaced the
// original fixed 100 x 200 ms loop with jittered exponential backoff under
// an overall budget, so a herd of slaves restarting together spreads out
// instead of hammering the master in lockstep, and a dead address fails the
// slave within the budget instead of a hard-coded 20 s.

const (
	dialBase       = 50 * time.Millisecond // backoff cap of the first retry
	dialCap        = 2 * time.Second       // backoff cap growth limit
	dialPerAttempt = 2 * time.Second       // per-attempt connect timeout limit
)

// backoffDelay returns the delay before retry `attempt` (0-based): uniform
// in [cap/2, cap] where cap doubles from dialBase up to dialCap. rnd is a
// [0,1) sample; the half-window jitter keeps the expected curve exponential
// while decorrelating simultaneous dialers.
func backoffDelay(attempt int, rnd float64) time.Duration {
	c := dialCap
	if attempt < 30 { // avoid shift overflow; 50ms<<6 already exceeds 2s
		if shifted := dialBase << uint(attempt); shifted < dialCap {
			c = shifted
		}
	}
	half := c / 2
	return half + time.Duration(rnd*float64(half))
}

// dialer retries a Transport dial with jittered exponential backoff until it
// succeeds, the context is cancelled, or the budget is exhausted. The budget
// is accounted from the delays the dialer *requests* (sleeps plus connect
// timeouts), not wall-clock observations, so tests with an injected sleep
// exercise the exact production schedule deterministically.
type dialer struct {
	tr     engine.Transport
	budget time.Duration

	// test seams; nil selects the production implementations
	sleep func(context.Context, time.Duration) error
	rnd   func() float64
}

func (d *dialer) dial(ctx context.Context, addr string) (net.Conn, error) {
	sleep := d.sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	rnd := d.rnd
	if rnd == nil {
		rnd = rand.Float64
	}
	var lastErr error
	spent := time.Duration(0)
	for attempt := 0; ; attempt++ {
		timeout := dialPerAttempt
		if remaining := d.budget - spent; remaining < timeout {
			timeout = remaining
		}
		if timeout <= 0 {
			return nil, fmt.Errorf("core: dial %s: budget %v exhausted: %w",
				addr, d.budget, lastErr)
		}
		c, err := d.tr.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("core: dial %s: %w (last error: %v)",
				addr, ctx.Err(), lastErr)
		}
		delay := backoffDelay(attempt, rnd())
		if remaining := d.budget - spent; delay >= remaining {
			// Sleeping out the rest of the budget buys no further attempt.
			return nil, fmt.Errorf("core: dial %s: budget %v exhausted: %w",
				addr, d.budget, lastErr)
		}
		spent += delay
		if err := sleep(ctx, delay); err != nil {
			return nil, fmt.Errorf("core: dial %s: %w (last error: %v)",
				addr, err, lastErr)
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dialRetry is the deployment-path entry: retry addr over tr within budget.
func dialRetry(tr engine.Transport, addr string, budget time.Duration) (net.Conn, error) {
	d := dialer{tr: tr, budget: budget}
	return d.dial(context.Background(), addr)
}

// newPairSink builds the deployment-side SocketSink for a consumer at addr,
// spooling up to SinkSpoolBytes (0 = the engine's default) while it redials.
// Redialed connections get the same write deadline as the original.
func (c *Config) newPairSink(p *engine.LiveProc, conn io.WriteCloser, slave int32, addr string) *engine.SocketSink {
	return engine.NewSocketSinkWith(p, conn, slave, engine.SinkOptions{
		SpoolBytes: c.SinkSpoolBytes,
		Redial: func() (io.WriteCloser, error) {
			nc, err := c.transport().DialTimeout("tcp", addr, dialPerAttempt)
			if err != nil {
				return nil, err
			}
			return engine.WithDeadlines(nc, 0, c.wireDeadline()), nil
		},
	})
}

// pairSinks is one slave's downstream pair consumers: one connection and one
// SocketSink per distinct consumer address among its queries' SinkAddrs, so
// join output never funnels through the master; queries sharing an address
// multiplex over its sink by query id.
type pairSinks struct {
	slave int32
	conns map[string]net.Conn           // dialed, not yet owned by a sink
	sinks map[string]*engine.SocketSink // by consumer address
}

func newPairSinks(slave int32) *pairSinks {
	return &pairSinks{
		slave: slave,
		conns: make(map[string]net.Conn),
		sinks: make(map[string]*engine.SocketSink),
	}
}

// dial connects to every consumer address cfg's queries name that is not
// connected yet; a slave calls it again after adopting the master's QuerySet.
func (ps *pairSinks) dial(cfg *Config) error {
	for _, q := range cfg.Queries {
		if q.SinkAddr == "" || ps.conns[q.SinkAddr] != nil {
			continue
		}
		c, err := dialRetry(cfg.transport(), q.SinkAddr, cfg.dialBudget())
		if err != nil {
			return fmt.Errorf("core: slave %d pair sink: %w", ps.slave, err)
		}
		ps.conns[q.SinkAddr] = engine.WithDeadlines(c, 0, cfg.wireDeadline())
	}
	return nil
}

// bind creates the SocketSinks, accounting to p, and returns cfg with every
// SinkAddr resolved to its query's Sink. Each sink takes ownership of its
// connection; one dialed for a spec the master's QuerySet then dropped stays
// in conns until close.
func (ps *pairSinks) bind(cfg Config, p *engine.LiveProc) Config {
	cfg.Queries = slices.Clone(cfg.Queries)
	for i := range cfg.Queries {
		q := &cfg.Queries[i]
		if q.SinkAddr == "" {
			continue
		}
		s := ps.sinks[q.SinkAddr]
		if s == nil {
			s = cfg.newPairSink(p, ps.conns[q.SinkAddr], ps.slave, q.SinkAddr)
			ps.sinks[q.SinkAddr] = s
			delete(ps.conns, q.SinkAddr)
		}
		q.Sink = s.ForQuery(q.ID)
	}
	return cfg
}

// flushBarrier blocks until every pair emitted so far is in the kernel's
// hands (the per-epoch delivery barrier of a replicating slave).
func (ps *pairSinks) flushBarrier() {
	for _, s := range ps.sinks {
		s.FlushBarrier()
	}
}

// close flushes and closes every sink, reporting the first delivery
// failure, and drops any connection no sink took over. Call it only once no
// join worker can still Emit; a second call is a no-op.
func (ps *pairSinks) close() error {
	var err error
	for a, s := range ps.sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("core: slave %d pair sink: %w", ps.slave, cerr)
		}
		delete(ps.sinks, a)
	}
	for a, c := range ps.conns {
		c.Close()
		delete(ps.conns, a)
	}
	return err
}
