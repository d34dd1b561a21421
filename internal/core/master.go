package core

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// Ingestor supplies the master with stream tuples that arrived up to a given
// time, in timestamp order. The simulated engine pulls from workload
// sources; the live engine swaps out a run queue fed by the source goroutine.
// The master copies what it keeps: the returned slice need only stay valid
// until the next Pull.
type Ingestor interface {
	Pull(uptoMs int32) []tuple.Tuple
}

// moveInfo tracks one in-flight partition-group movement.
type moveInfo struct {
	id    int64
	group int32
	from  int32
	to    int32
}

// DoDSample records the degree of declustering at a reorganization point.
type DoDSample struct {
	AtMs   int32
	Active int
}

// phase is a slave slot's place in the membership lifecycle. Every
// transition, and where it is made:
//
//	free             → member   admitted while the cluster forms (admit)
//	free             → joining  admitted mid-run (admit)
//	joining          → member   activated at a boundary (reorganize)
//	joining, member  → leaving  graceful leave requested (requestLeave)
//	leaving          → gone     drained and released (exchange)
//	any roster phase → dead     crashed (handleDeath)
//	any roster phase → gone     sent the end-of-run shutdown (exchange)
//	gone, dead       → joining  re-admitted once slotClean (admit)
//
// joining, member and leaving are the roster phases (slot.member). The
// simulator and in-process runs start every slot as a founder member; a TCP
// master starts them free.
type phase uint8

const (
	phaseFree phase = iota
	phaseJoining
	phaseMember
	phaseLeaving
	phaseGone
	phaseDead
)

// slot is the master's record of one slave slot.
type slot struct {
	conn  engine.Conn
	phase phase
	spec  wire.MemberSpec // its roster entry

	// Placement: active takes tuples every epoch; activating and
	// deactivating are scheduled flips not yet delivered, and dirs the
	// movement directives waiting for its next batch.
	active, activating, deactivating bool
	dirs                             []wire.Directive

	occ        float64 // its last occupancy report (haveOcc: one arrived)
	haveOcc    bool
	lastWindow int64 // its last reported window footprint (accountWindowLoss)

	// firstEpoch is the first epoch it takes part in: 0 for a founder, the
	// reorganization boundary after a joiner's admission, computed
	// identically by the joiner from its anchor batch. lastMem is the roster
	// version it last heard; it is sent a Membership update before its next
	// Batch whenever that lags memEpoch.
	firstEpoch, lastMem int64
}

// member reports whether the slot is on the roster.
func (s *slot) member() bool {
	return s.phase == phaseJoining || s.phase == phaseMember || s.phase == phaseLeaving
}

// masterNode runs Algorithm 1: buffer incoming tuples in per-partition-group
// mini-buffers, serve slaves in a fixed order each distribution epoch, and
// reorganize (supplier/consumer pairing, degree-of-declustering adaptation)
// each reorganization epoch.
type masterNode struct {
	cfg   *Config
	proc  engine.Proc
	slots []slot
	in    Ingestor
	stop  func() bool

	// Mini-buffers are per partition-group — the unit of ownership,
	// withholding and movement — so a drain is a concatenation. Drained
	// buffers keep their capacity for the next epoch.
	minibuf   [][]tuple.Tuple // per group, timestamp-ordered
	lastTS    []int32         // per group, last buffered timestamp (order guard)
	tsClamped int64           // tuples whose timestamp the order guard rewrote
	bufBytes  int64
	peakBuf   int64

	groupOwner []int32
	heldGroup  map[int32]bool

	inflight map[int64]moveInfo
	nextMove int64
	rng      *rand.Rand

	// gridAt is the origin of the epoch grid on the master's clock: epoch e
	// starts at gridAt + e·t_d. A TCP master sets it when the cluster forms
	// (startFormed); pipes and the simulator start at zero with the clock.
	gridAt time.Duration

	// instrumentation
	epochsServed  int64
	lastEpochAt   time.Duration
	movesIssued   int
	movesDone     int
	movesDegraded int
	dodTrace      []DoDSample

	// Cluster membership (elastic.go): memEpoch is the roster version.
	memEpoch int64
	events   chan memberEvent
	onAdmit  func(id int32, closeCtl func())
	qset     *wire.QuerySet
	logfn    func(format string, args ...any)

	// sending, non-nil while a drained batch is in flight to a slave, lets
	// the death recovery re-buffer tuples the failed Send never delivered.
	sending *wire.Batch
	// due holds the data slots scheduled by this and the previous epoch's
	// exchanges and not yet sent, in time order.
	due []dataSlot

	// memMoves tracks membership-driven movements (join rebalance, leave
	// drain, crash adoption) by the time their group's tuples began to be
	// withheld — issue for an install, the announced cut-over for a streamed
	// move; the time from there to the ack accumulates into rebalStallMs.
	memMoves     map[int64]time.Duration
	joins        int
	evictions    int
	leaves       int
	groupsMoved  int
	rebalStallMs int64

	// Crash-recovery accounting (replica.go / elastic.go). tuplesDrained
	// counts every tuple delivered to a slave, promotions the replica
	// promotions issued, lostWindowTuples the estimated window tuples lost
	// to unrecovered evictions.
	tuplesDrained    int64
	promotions       int
	lostWindowTuples int64
}

// newMaster builds a master whose slots are all founder members; the caller
// hands each slot its connection (slots[i].conn), and a TCP master frees
// them to fill by admission.
func newMaster(cfg *Config, proc engine.Proc, in Ingestor, stop func() bool) *masterNode {
	m := &masterNode{
		cfg:        cfg,
		proc:       proc,
		slots:      make([]slot, cfg.Slaves),
		in:         in,
		stop:       stop,
		minibuf:    make([][]tuple.Tuple, cfg.NumGroups()),
		lastTS:     make([]int32, cfg.NumGroups()),
		groupOwner: make([]int32, cfg.NumGroups()),
		heldGroup:  make(map[int32]bool),
		inflight:   make(map[int64]moveInfo),
		nextMove:   1,
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0x51700a75e1ec0111)),
		memMoves:   make(map[int64]time.Duration),
	}
	// Initial placement: partition-groups round-robin over the initially
	// active slaves.
	n0 := cfg.initialActive()
	for i := range m.slots {
		m.slots[i].phase = phaseMember
		m.slots[i].active = i < n0
	}
	for g := range m.groupOwner {
		m.groupOwner[g] = int32(g % n0)
	}
	return m
}

// dataSlot is one data delivery on the master's schedule: at `at`, slave
// `slave` is sent the tuples buffered for it since its last delivery, in a
// plain Batch of `epoch`.
type dataSlot struct {
	at    time.Duration
	slave int32
	epoch int64
}

// run is the master process body. Control runs once per distribution epoch:
// each served slave's exchange at its slot. Data runs k = dataSlots() times
// per epoch: an active slave also takes a plain Batch at each of its k−1
// data slots, t_d/k apart after its exchange. Both are fixed in advance, so
// the communication pattern stays predefined (§IV-B); a slave's data slots
// can fall after the next epoch starts, so they are sent in time order
// among the next epoch's events.
func (m *masterNode) run() {
	td := time.Duration(m.cfg.DistEpochMs) * time.Millisecond
	ng := m.cfg.SubGroups
	K := m.cfg.epochsPerReorg()

	for e := int64(0); ; e++ {
		stopping := m.stop()
		epochStart := m.gridAt + time.Duration(e)*td
		m.sendDataUntil(epochStart)
		// Membership changes apply at the epoch's start, so a joiner's
		// anchor leaves exactly when its admission epoch begins.
		m.proc.IdleUntil(epochStart)
		m.drainEvents(e, stopping)
		for slot := 0; slot < ng; slot++ {
			for i := slot; i < m.cfg.Slaves; i += ng {
				if !m.shouldServe(e, i) {
					continue
				}
				at := epochStart + m.cfg.slotOffset(i)
				m.sendDataUntil(at)
				m.proc.IdleUntil(at)
				m.ingest(msOf(m.proc.Now()))
				m.serve(int32(i), func() { m.exchange(e, int32(i), stopping) })
				if !stopping {
					m.scheduleData(e, int32(i), at)
				}
			}
		}
		m.epochsServed++
		m.lastEpochAt = m.proc.Now()
		if stopping && m.memberCount() == 0 {
			return
		}
		if !stopping && (e+1)%K == 0 {
			m.reorganize(e)
		}
	}
}

// scheduleData queues the data slots of slave i's epoch e, whose exchange
// began at `at`: one every t_d/k until its next exchange, if the exchange
// left it active. A stopping epoch has none.
func (m *masterNode) scheduleData(e int64, i int32, at time.Duration) {
	s, k := &m.slots[i], m.cfg.dataSlots()
	if k == 1 || !s.member() || !s.active {
		return
	}
	td := time.Duration(m.cfg.DistEpochMs) * time.Millisecond
	for j := 1; j < k; j++ {
		m.due = append(m.due, dataSlot{at: at + time.Duration(j)*td/time.Duration(k), slave: i, epoch: e})
	}
	slices.SortStableFunc(m.due, func(a, b dataSlot) int { return cmp.Compare(a.at, b.at) })
}

// sendDataUntil sends every queued data slot due at or before t, in time
// order: the slots' tuples, arrived up to each slot, to a slave still active
// on the roster. A failed send is an eviction (serve).
func (m *masterNode) sendDataUntil(t time.Duration) {
	for len(m.due) > 0 && m.due[0].at <= t {
		d := m.due[0]
		m.due = slices.Delete(m.due, 0, 1)
		if s := &m.slots[d.slave]; !s.member() || !s.active {
			continue
		}
		m.proc.IdleUntil(d.at)
		m.ingest(msOf(m.proc.Now()))
		m.serve(d.slave, func() {
			m.deliver(d.slave, &wire.Batch{Epoch: d.epoch, Tuples: m.drainFor(d.slave)})
		})
	}
}

// shouldServe reports whether slave i participates in epoch e: active slaves
// every epoch, inactive slaves only at reorganization boundaries (their
// low-cost poll for reactivation).
func (m *masterNode) shouldServe(e int64, i int) bool {
	s := &m.slots[i]
	return s.member() && e >= s.firstEpoch && (s.active || e%m.cfg.epochsPerReorg() == 0)
}

// ingest scatters newly arrived tuples into their group's mini-buffer in one
// pass. Timestamps are clamped to per-group monotonicity (the live engine can
// deliver cross-source arrivals marginally out of order); every clamp is
// counted, so late data is rewritten visibly.
func (m *masterNode) ingest(uptoMs int32) {
	ts := m.in.Pull(uptoMs)
	if len(ts) == 0 {
		return
	}
	clamped := 0
	for _, t := range ts {
		g := m.cfg.GroupOfKey(t.Key)
		if t.TS < m.lastTS[g] {
			t.TS = m.lastTS[g]
			clamped++
		} else {
			m.lastTS[g] = t.TS
		}
		m.minibuf[g] = append(m.minibuf[g], t)
	}
	m.tsClamped += int64(clamped)
	m.buffered(len(ts))
	m.proc.Compute(m.cfg.Cost.Master(len(ts)))
}

// buffered accounts n tuples entering the mini-buffers.
func (m *masterNode) buffered(n int) {
	m.bufBytes += int64(n) * tuple.LogicalSize
	if m.bufBytes > m.peakBuf {
		m.peakBuf = m.bufBytes
	}
}

// serve runs one step of slave i's schedule — its epoch exchange or a data
// slot — fault-tolerantly: a transport failure (the slave crashed, or the
// heartbeat monitor closed its connection) is absorbed and turns into an
// eviction instead of killing the master. Only TCP connections fail that
// way, so the recovery is inert on pipes and the simulator.
func (m *masterNode) serve(i int32, step func()) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(*engine.TCPError); !ok {
			panic(r)
		}
		if b := m.sending; b != nil {
			// The failed Send never delivered this drain; put the tuples
			// back so the groups' new owners receive them.
			m.sending = nil
			m.rebuffer(b.Tuples)
		}
		m.handleDeath(i, fmt.Sprintf("connection failed: %v", r))
	}()
	step()
}

// exchange is one epoch's Hello/Batch round trip with slave i: receive its
// Hello (load report and movement ACKs), then send the tuples buffered for
// its partition-groups plus any pending directives.
func (m *masterNode) exchange(e int64, i int32, stopping bool) {
	s := &m.slots[i]
	hello, ok := s.conn.Recv().(*wire.Hello)
	if !ok {
		panic(fmt.Sprintf("core: master expected Hello from slave %d", i))
	}
	s.occ, s.haveOcc, s.lastWindow = hello.Occupancy, true, hello.WindowBytes
	for _, ack := range hello.MoveACKs {
		m.completeMove(ack)
	}
	// Cut-over announcements: the supplier has fully shipped its snapshot
	// and sends the closing catch-up delta this epoch, so start withholding
	// the group's tuples now — this same exchange's batch already excludes
	// them. They release to the new owner when the consumer's ack arrives.
	for _, id := range hello.Closing {
		if mi, ok := m.inflight[id]; ok {
			m.heldGroup[mi.group] = true
			if _, tracked := m.memMoves[id]; tracked {
				m.memMoves[id] = m.proc.Now() // rebalance stall is the held time
			}
		}
	}
	// Moves the consumer completed with an empty install: the window state
	// was lost in transit (dead or stalled supplier, no local shadow). The
	// run still converges; the count makes the loss exact rather than silent.
	m.movesDegraded += len(hello.Degraded)
	if s.lastMem != m.memEpoch {
		// Roster changed since this slave last heard from us: prefix the
		// batch with a Membership update so it can prune dead mesh peers
		// and learn about joiners before any directive references them.
		s.conn.Send(m.membershipFor(i))
		s.lastMem = m.memEpoch
	}

	batch := &wire.Batch{Epoch: e}
	switch {
	case stopping:
		batch.Shutdown = true
		s.phase = phaseGone
	case s.phase == phaseLeaving && !s.active && !s.activating && m.slotClean(i):
		// A graceful leaver whose groups have all drained and acked: this
		// batch releases it from the cluster.
		batch.Shutdown = true
		s.phase, s.spec = phaseGone, wire.MemberSpec{}
		m.memEpoch++
		m.leaves++
		m.logf("membership: slave %d left gracefully at epoch %d, roster %d/%d",
			i, e, m.memberCount(), m.cfg.Slaves)
	}
	if s.activating {
		batch.Activate = true
		s.activating, s.active = false, true
	}
	// A transfer streams over several consecutive epochs, and both endpoints
	// must keep their per-epoch exchanges until the last move acks — so a
	// deactivation waits with them (deactivating stays set, which also keeps
	// the slave out of new reorganization pairings).
	deact := s.deactivating && !m.slaveInflight(i)
	if deact {
		batch.Deactivate = true
		s.deactivating = false
	}
	batch.Directives, s.dirs = s.dirs, nil

	if s.active {
		batch.Tuples = m.drainFor(i)
	}
	m.deliver(i, batch)
	if deact {
		s.active = false
	}
}

// deliver sends slave i a batch of drained tuples. While the Send is in
// flight, m.sending holds the batch for serve's recovery.
func (m *masterNode) deliver(i int32, batch *wire.Batch) {
	m.tuplesDrained += int64(len(batch.Tuples))
	m.proc.Compute(m.cfg.Cost.Master(len(batch.Tuples)))
	m.sending = batch
	// A slave that crashed since its last message has closed its end, yet
	// a Send would still succeed and the tuples vanish with it; failing
	// here lets serve re-buffer them for the groups' new owners.
	engine.CheckPeer(m.slots[i].conn)
	m.slots[i].conn.Send(batch)
	m.sending = nil
}

// rebuffer returns drained tuples to their group mini-buffers after a failed
// delivery. The tuples were drained at this exchange or data slot with no
// ingest since, so appending them preserves per-group timestamp order.
func (m *masterNode) rebuffer(ts []tuple.Tuple) {
	for _, t := range ts {
		g := m.cfg.GroupOfKey(t.Key)
		m.minibuf[g] = append(m.minibuf[g], t)
	}
	m.buffered(len(ts))
}

// drains reports whether group g's mini-buffer ships to slave i this epoch:
// i owns it and no movement is withholding its tuples until the consumer
// acknowledges.
func (m *masterNode) drains(g int, i int32) bool {
	return m.groupOwner[g] == i && !m.heldGroup[int32(g)]
}

// drainFor empties the mini-buffers of every partition-group that drains to
// slave i and returns them concatenated in one exactly-sized slice — the
// wire.Batch.Tuples contract: group-contiguous, timestamp-ordered within each
// group. The cost is O(tuples), whatever the partition count.
func (m *masterNode) drainFor(i int32) []tuple.Tuple {
	total := 0
	for g, buf := range m.minibuf {
		if len(buf) > 0 && m.drains(g, i) {
			total += len(buf)
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]tuple.Tuple, 0, total)
	for g, buf := range m.minibuf {
		if len(buf) > 0 && m.drains(g, i) {
			out = append(out, buf...)
			m.minibuf[g] = buf[:0]
		}
	}
	m.bufBytes -= int64(total) * tuple.LogicalSize
	return out
}

func (m *masterNode) completeMove(id int64) {
	mi, ok := m.inflight[id]
	if !ok {
		return
	}
	m.groupOwner[mi.group] = mi.to
	delete(m.heldGroup, mi.group)
	delete(m.inflight, id)
	m.movesDone++
	if t0, ok := m.memMoves[id]; ok {
		// A membership-driven move: its held time is rebalance stall.
		m.rebalStallMs += int64((m.proc.Now() - t0) / time.Millisecond)
		delete(m.memMoves, id)
	}
}

// slaveInflight reports whether slave i is an endpoint of any unfinished
// movement (the deactivation gate).
func (m *masterNode) slaveInflight(i int32) bool {
	for _, mi := range m.inflight {
		if mi.from == i || mi.to == i {
			return true
		}
	}
	return false
}

// view snapshots the controller state the planner reads (plan.go), walking
// the in-flight moves, the slots and the group owners once each.
func (m *masterNode) view() *placementView {
	v := &placementView{cfg: m.cfg, slots: make([]slotView, m.cfg.Slaves)}
	moving := make(map[int32]bool, len(m.inflight))
	for _, mi := range m.inflight {
		moving[mi.group] = true
		v.slots[mi.to].busy = true
		if mi.from >= 0 {
			v.slots[mi.from].busy = true
		}
	}
	for i := range v.slots {
		s, ms := &v.slots[i], &m.slots[i]
		s.occ, s.haveOcc = ms.occ, ms.haveOcc
		s.active, s.activating = ms.active, ms.activating
		if s.active {
			v.active++
		}
		s.busy = s.busy || len(ms.dirs) > 0 || ms.activating || ms.deactivating
		s.leaving, s.member, s.joining = ms.phase == phaseLeaving, ms.member(), ms.phase == phaseJoining
	}
	for g, owner := range m.groupOwner {
		if !m.heldGroup[int32(g)] && !moving[int32(g)] {
			v.slots[owner].free = append(v.slots[owner].free, int32(g))
		}
	}
	return v
}

// reorganize runs one reorganization boundary: it samples the degree of
// declustering, plans the boundary's placement (planBoundary: §IV-C pairing,
// §V-A adaptation, leave drains and join rebalances) and applies it.
func (m *masterNode) reorganize(e int64) {
	v := m.view()
	m.dodTrace = append(m.dodTrace, DoDSample{
		AtMs:   int32((e + 1) * int64(m.cfg.DistEpochMs)),
		Active: v.active,
	})
	p := planBoundary(v, m.rng)
	m.apply(p.moves)
	for _, j := range p.activate {
		m.slots[j].activating = true
	}
	for _, j := range p.deactivate {
		m.slots[j].deactivating = true
	}
	for _, i := range p.drained {
		m.logf("membership: draining slave %d for graceful leave at epoch %d", i, e)
	}
	for _, j := range p.joins {
		m.slots[j.slave].phase = phaseMember
		m.logf("membership: activating slave %d at epoch %d, rebalancing %d groups toward it", j.slave, e+1, j.groups)
	}
}

// apply issues planned moves in order: a streamed move to both endpoints,
// an install (from < 0) to its target alone.
func (m *masterNode) apply(moves []move) {
	for _, mv := range moves {
		issue := m.issueMove
		if mv.from < 0 {
			issue = m.issueInstall
		}
		if id := issue(mv.group, mv.from, mv.to); mv.tracked {
			m.trackMove(id)
		}
	}
}

// issueMove orders group g from its owner to slave `to`. The supplier keeps
// owning and probing the group while its snapshot streams, so the group's
// tuples keep flowing to it; withholding starts only when its Hello announces
// the cut-over (Closing, in exchange). It returns the move's id.
func (m *masterNode) issueMove(g, from, to int32) int64 {
	d := wire.Directive{MoveID: m.nextMove, Group: g, From: from, To: to}
	m.nextMove++
	m.slots[from].dirs = append(m.slots[from].dirs, d)
	m.slots[to].dirs = append(m.slots[to].dirs, d)
	m.inflight[d.MoveID] = moveInfo{id: d.MoveID, group: g, from: from, to: to}
	m.movesIssued++
	return d.MoveID
}

// msOf converts a duration since start to milliseconds.
func msOf(d time.Duration) int32 { return int32(d / time.Millisecond) }
