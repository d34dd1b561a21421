package core

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/wire"
)

// This file deploys the master/slave protocol over real TCP for a
// multi-process (or multi-host) cluster — the one TCP deployment. The master
// binary hosts the master node, the collector, and the synthetic stream
// sources; slave binaries host one slave each and a mesh among themselves
// for state movement. Membership is open for the whole run (§IV-B: slaves
// register, the master "synchronizes clocks with the active slaves", epochs
// start); a cluster nobody joins late or leaves is simply the case where
// nothing more happens after formation:
//
//   - a joining slave dials the control address and sends
//     Hello{Slave: -1, Epoch: joinEpoch} followed by a one-entry Membership
//     announcing its mesh address, worker count and wire.Version (a master
//     of another version says which and hangs up). The master replies on
//     the same connection with the roster (assigning the slave its ID), the
//     query registration if any, and an anchor Batch carrying the origin of
//     the master's epoch grid, from which the slave sets its clock to the
//     master's: the cluster has one clock and one grid. The grid starts,
//     and the founders' anchors (Epoch: startEpoch) go out together, once
//     cfg.MinSlaves slaves — every slot, when it is 0 — have joined; a later
//     joiner's anchor carries the admission epoch and leaves as it begins;
//   - every joined slave opens a second control connection for heartbeats:
//     wire.Ping each HeartbeatMs, answered with wire.Pong. Silence beyond
//     HeartbeatMisses intervals evicts the slave (heartbeatMonitor);
//   - the mesh is grown incrementally: a joiner dials every slave already
//     in the roster (identifying with a Hello) and accepts dials from
//     slaves that join later, so each pair is connected exactly once.
//
// The run keeps going through joins, graceful leaves (Ping.Leave), and
// crashes: a crashed slave is always evicted, never fatal.

// ServeMaster runs the master and collector of a TCP cluster, listening for
// slave control connections on ctlAddr and result connections on resAddr:
// it forms the cluster from the first cfg.MinSlaves joiners (all cfg.Slaves
// when 0), then serves an open-membership run for cfg.DurationMs of wall
// time from formation plus shutdown. Tuple timestamps are milliseconds since
// the call, on the master's clock, which every slave reads too.
// logf, when non-nil, receives a line for every membership transition.
func ServeMaster(cfg Config, ctlAddr, resAddr string, logf func(format string, args ...any)) (*Result, error) {
	ctlLn, resLn, err := listenMaster(&cfg, ctlAddr, resAddr)
	if err != nil {
		return nil, err
	}
	return serveMaster(cfg, ctlLn, resLn, logf, nil)
}

// ServeMasterTCP is ServeMaster without a membership log.
func ServeMasterTCP(cfg Config, ctlAddr, resAddr string) (*Result, error) {
	return ServeMaster(cfg, ctlAddr, resAddr, nil)
}

// listenMaster validates cfg and opens the master's control and result
// listeners through its transport.
func listenMaster(cfg *Config, ctlAddr, resAddr string) (ctlLn, resLn net.Listener, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if ctlLn, err = cfg.transport().Listen("tcp", ctlAddr); err != nil {
		return nil, nil, err
	}
	if resLn, err = cfg.transport().Listen("tcp", resAddr); err != nil {
		ctlLn.Close()
		return nil, nil, err
	}
	return ctlLn, resLn, nil
}

// ServeSlaveTCP is ServeSlave for callers that hold the cluster's mesh
// address list: id only selects meshAddrs[id] as this slave's mesh listen
// address — the master assigns the slot.
func ServeSlaveTCP(cfg Config, id int, ctlAddr, resAddr string, meshAddrs []string) error {
	if id < 0 || id >= len(meshAddrs) {
		return fmt.Errorf("core: slave id %d of %d mesh addresses", id, len(meshAddrs))
	}
	return ServeSlave(cfg, ctlAddr, resAddr, JoinOptions{MeshListen: meshAddrs[id]})
}

// controlPlane is the master's end of the control port: the membership event
// queue that the acceptor and the failure detector feed and the master
// drains at epoch boundaries, plus a registry of raw connections (join/epoch
// and heartbeat) by slave id so a dead slave's links can be severed —
// closing the control connection fails any master Recv blocked on it over.
type controlPlane struct {
	cfg    *Config
	proc   *engine.LiveProc
	logf   func(format string, args ...any)
	events chan memberEvent
	hb     *heartbeatMonitor

	mu     sync.Mutex
	closer map[int32][]func()
}

func newControlPlane(cfg *Config, lm *liveMaster) *controlPlane {
	cp := &controlPlane{
		cfg:  cfg,
		proc: lm.masterP,
		logf: lm.master.logf,
		// Sized for a burst of joins and deaths within one epoch; post drops
		// beyond it.
		events: make(chan memberEvent, 256),
		closer: make(map[int32][]func()),
	}
	cp.hb = newHeartbeatMonitor(
		time.Duration(cfg.HeartbeatMs)*time.Millisecond, cfg.HeartbeatMisses, lm.env.Now,
		func(id int32) {
			cp.post(memberEvent{kind: evDeath, slave: id, reason: "heartbeat timeout"})
			cp.sever(id)
		})
	return cp
}

// post queues a death or leave event without blocking; on a full queue the
// event is dropped (both are re-detectable).
func (cp *controlPlane) post(ev memberEvent) {
	select {
	case cp.events <- ev:
	default:
	}
}

// register records how to close one of slave id's control connections.
func (cp *controlPlane) register(id int32, closeConn func()) {
	cp.mu.Lock()
	cp.closer[id] = append(cp.closer[id], closeConn)
	cp.mu.Unlock()
}

// sever closes and forgets every registered connection of slave id, or of
// every slave when id is negative (end of run).
func (cp *controlPlane) sever(id int32) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for k, cls := range cp.closer {
		if id < 0 || k == id {
			for _, cl := range cls {
				cl()
			}
			delete(cp.closer, k)
		}
	}
}

// accept serves the control listener for the whole run: each connection is
// classified by its first message — a join handshake or a heartbeat stream.
// It is the only place slave control connections are accepted.
func (cp *controlPlane) accept(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go cp.handle(c)
	}
}

func (cp *controlPlane) handle(c net.Conn) {
	defer func() { recover() }() // torn-down handshake
	// Both stream kinds carried by this listener get the control deadline:
	// join/epoch control reads resume every epoch, ping streams far more
	// often. A slave that stops moving bytes for longer than that is wedged;
	// failing its conn here feeds the same eviction path heartbeat death
	// uses.
	dc := engine.WithDeadlines(c, cp.cfg.ctlReadDeadline(), cp.cfg.wireDeadline())
	ec := engine.WrapTCPBatched(cp.proc, dc, cp.cfg.WireBatchBytes)
	reject := func(what string) {
		cp.logf("membership: control connection from %s opened with %s, closing", c.RemoteAddr(), what)
		c.Close()
	}
	switch first := ec.Recv().(type) {
	case *wire.Hello:
		if first.Slave != -1 || first.Epoch != joinEpoch {
			reject(fmt.Sprintf("Hello{Slave: %d, Epoch: %d}, not a join handshake (an sjoin-slave predating -join?)",
				first.Slave, first.Epoch))
			return
		}
		ann, ok := ec.Recv().(*wire.Membership)
		if !ok || len(ann.Slaves) != 1 {
			reject("a join Hello but no one-entry Membership announcement")
			return
		}
		if ann.Epoch != wire.Version {
			// Tell the joiner which revision it met, so its error can name
			// both; a slave predating wire.Version reads this as a refusal.
			cp.logf("membership: slave at %s speaks wire v%d, this master v%d, closing",
				c.RemoteAddr(), ann.Epoch, wire.Version)
			ec.Send(&wire.Membership{Epoch: wire.Version, Self: -1})
			c.Close()
			return
		}
		select {
		case cp.events <- memberEvent{
			kind:    evJoin,
			conn:    ec,
			close:   func() { c.Close() },
			addr:    ann.Slaves[0].Addr,
			workers: ann.Slaves[0].Workers,
		}:
		case <-time.After(30 * time.Second):
			c.Close()
		}
	case *wire.Ping:
		cp.pong(c, ec, first)
	default:
		reject(first.Kind().String())
	}
}

// pong answers one slave's heartbeat stream until it ends, feeding the
// failure detector and turning Ping.Leave into a leave event.
func (cp *controlPlane) pong(c net.Conn, ec engine.Conn, msg *wire.Ping) {
	defer c.Close()
	id := msg.Slave
	// A slave may redial its heartbeat stream after a conn fault; arm refuses
	// ids already declared dead so an evicted slave cannot zombie-ping its
	// slot alive again (the slot only revives through a fresh admission,
	// which clears the dead mark).
	if id < 0 || int(id) >= cp.cfg.Slaves || !cp.hb.arm(id) {
		return
	}
	cp.register(id, func() { c.Close() })
	leaveSent := false
	defer func() {
		if leaveSent {
			// A leaver's stream ends when it is released: its last ping
			// must not outlive it and declare the slot's next occupant dead.
			cp.hb.clear(id)
		}
	}()
	for {
		cp.hb.observe(id)
		if msg.Leave && !leaveSent {
			leaveSent = true
			cp.post(memberEvent{kind: evLeave, slave: id})
		}
		ec.Send(&wire.Pong{})
		next, ok := ec.Recv().(*wire.Ping)
		if !ok {
			return
		}
		msg = next
	}
}

// monitor runs the failure detector at half the heartbeat interval, so the
// worst-case declaration latency is budget + interval/2, until stop closes.
func (cp *controlPlane) monitor(stop <-chan struct{}) {
	t := time.NewTicker(time.Duration(cp.cfg.HeartbeatMs) * time.Millisecond / 2)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cp.hb.check()
		}
	}
}

// acceptResults serves the results listener for the whole run (result
// connections arrive whenever a slave joins): each reader drains one slave's
// result stream into the collector inbox and ends when the slave closes (or
// crashes) the connection. The readers are waited on at shutdown, so every
// result batch a slave ever flushed is folded into the collector before the
// final snapshot — the run's Outputs is exact, not a race against in-flight
// frames.
func acceptResults(ln net.Listener, lm *liveMaster, readers *sync.WaitGroup) {
	async := engine.NewLiveAsyncSender(lm.collP, lm.inbox)
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer c.Close()
			defer func() { recover() }() // connection teardown
			// Read-only: one Recv per message, however many result batches
			// the slave packed into a frame.
			rc := engine.WrapTCPBatched(lm.collP, c, 0)
			for {
				async.SendAsync(rc.Recv())
			}
		}()
	}
}

// serveMaster is ServeMaster on the listeners listenMaster opened, which it
// closes, with an ingestor seam: a non-nil ing replaces the synthetic source
// goroutine (tests feed a finite, known workload through it).
func serveMaster(cfg Config, ctlLn, resLn net.Listener, logf func(string, ...any), ing Ingestor) (*Result, error) {
	defer ctlLn.Close()
	defer resLn.Close()
	if cfg.InitialActive == 0 {
		cfg.InitialActive = cfg.formation()
	}
	lm := newLiveMaster(&cfg, ing)
	defer lm.feedStop.Store(true)
	master := lm.master
	for i := range master.slots {
		master.slots[i].phase = phaseFree // slots fill by admission
	}
	master.logfn = logf
	cp := newControlPlane(&cfg, lm)
	defer cp.sever(-1)
	master.events = cp.events
	master.onAdmit = func(id int32, closeCtl func()) {
		cp.register(id, closeCtl)
		cp.hb.clear(id) // slot legitimately recycled: allow its ping stream
	}
	var resReaders sync.WaitGroup
	go acceptResults(resLn, lm, &resReaders)
	go cp.accept(ctlLn)

	// Cluster formation: admit the founders, then start the epoch grid and
	// send every founder its anchor.
	formTimeout := time.After(cfg.formTimeout())
	for admitted := 0; admitted < cfg.formation(); {
		select {
		case ev := <-cp.events:
			if ev.kind != evJoin {
				continue // pre-run deaths surface again at the first serve
			}
			master.admit(ev, startEpoch)
			admitted++
		case <-formTimeout:
			return nil, fmt.Errorf("core: cluster formation timed out waiting for %d slaves", cfg.formation())
		}
	}
	master.logf("membership: cluster formed with %d of %d slaves, epoch schedule starting", cfg.formation(), cfg.Slaves)
	master.startFormed()

	monStop := make(chan struct{})
	var monDone sync.WaitGroup
	monDone.Add(1)
	go func() { defer monDone.Done(); cp.monitor(monStop) }()
	err := lm.play(&cfg, nil)
	close(monStop)
	monDone.Wait()
	if err != nil {
		return nil, err
	}
	ctlLn.Close()
	cp.sever(-1)
	resLn.Close()
	readersDone := make(chan struct{})
	go func() { resReaders.Wait(); close(readersDone) }()
	select {
	case <-readersDone:
	case <-time.After(10 * time.Second): // a wedged slave must not hang the run
	}
	lm.stopCollector()
	return newResult(cfg, cfg.DurationMs, lm.master, lm.collector, lm.masterP.Stats(), nil, nil), nil
}

// JoinOptions configures a slave's entry into the cluster (ServeSlave).
type JoinOptions struct {
	// MeshListen is the address the slave accepts mesh (state-movement)
	// connections on; empty means "127.0.0.1:0". The address advertised to
	// the cluster uses this host (or, when it is empty or a wildcard, the
	// local address of the master dial) with the listener's actual port.
	MeshListen string
	// Leave, when it receives or closes, requests a graceful departure:
	// the master drains the slave's groups to the survivors and releases
	// it, at which point ServeSlave returns nil.
	Leave <-chan struct{}

	// kill is a test seam: when it fires, every connection of the slave is
	// closed abruptly — indistinguishable, at the TCP level, from the
	// process being killed.
	kill <-chan struct{}

	// meshLn is the mesh listener of a slave whose address a test's fault
	// rule names before the slave starts; nil listens on MeshListen.
	meshLn net.Listener

	// failAt is the deterministic fault-injection seam of the
	// crash-recovery tests: at the start of epoch failAt — after that
	// epoch's results and replication deltas have been flushed, before its
	// Hello — the slave delivers everything pending downstream and then
	// severs every connection at once, exactly as a crash between two
	// epoch exchanges would look from outside. 0 disables the seam.
	failAt int64
	// failSlot > 0 moves the failAt crash to the middle of the epoch: once
	// its batch is in, before data slot failSlot. The connections close as
	// a killed process's do, so the master learns of the crash only from
	// the FIN waiting on its control connection.
	failSlot int
	// batchWait is the clock-alignment seam: when non-nil it receives, each
	// epoch, how long the slave waited between sending its Hello and
	// receiving the master's Batch.
	batchWait func(time.Duration)
}

// tcpSlave is one slave's wiring into a TCP cluster, built up step by step
// by ServeSlave: mesh listener, join handshake, mesh dials, collector and
// sink connections, heartbeat, anchor.
type tcpSlave struct {
	cfg      Config
	joinAddr string
	id       int32
	roster   *wire.Membership

	// env is the slave's clock, set to the master's when the anchor arrives;
	// every connection accounts to proc.
	env  *engine.LiveEnv
	proc *engine.LiveProc

	ml     net.Listener // mesh
	mc, rc net.Conn     // control, results
	master engine.Conn
	coll   *tcpAsyncSender
	tab    *peerTable
	rset   *shadowSet
	repl   *replicator
	sinks  *pairSinks

	// done closes when ServeSlave returns; hb guards the heartbeat stream,
	// which its goroutine may redial while a crash seam severs it for good.
	done chan struct{}
	hb   struct {
		sync.Mutex
		severed bool
		close   func()
	}
}

// ServeSlave dials into the cluster at joinAddr — forming or already running
// — letting the master assign the slave its identity, and runs the slave
// loop until the master shuts it down (end of run or completed graceful
// leave). It is the only slave-side handshake.
func ServeSlave(cfg Config, joinAddr, resAddr string, opts JoinOptions) (err error) {
	if err := cfg.Validate(); err != nil {
		return err
	}
	t := &tcpSlave{cfg: cfg, joinAddr: joinAddr, id: -1, sinks: newPairSinks(-1),
		env: engine.NewLiveEnv(), done: make(chan struct{})}
	t.proc = t.env.NewProc("slave")
	defer func() {
		// A transport failure anywhere — the master turning the join away,
		// a peer vanishing mid-handshake, the crash seams — surfaces here.
		if r := recover(); r != nil {
			err = fmt.Errorf("core: slave %d failed: %v", t.id, r)
		}
		// The slave loop has returned (or died, or never started), so no
		// worker can still Emit; flush every sink and surface the first
		// delivery failure.
		if cerr := t.sinks.close(); cerr != nil && err == nil {
			err = cerr
		}
		close(t.done)
		t.sever()
	}()
	if err := t.join(opts.MeshListen, opts.meshLn); err != nil {
		return err
	}
	if err := t.connect(resAddr); err != nil {
		return err
	}
	if err := t.startHeartbeat(opts.Leave); err != nil {
		return err
	}
	s, err := t.anchor()
	if err != nil {
		return err
	}
	t.replicate(s)

	// Crash seams (tests): kill severs every connection at once, whenever
	// it fires; failAt first delivers the pairs still queued for the sinks —
	// the epoch's results and replication deltas are already flushed — so
	// exactly the state at an epoch boundary is lost (with failSlot, that
	// and the epoch's batch). Either way the slave loop dies on its next
	// Send or Recv.
	if opts.kill != nil {
		go func() {
			select {
			case <-opts.kill:
				t.sever()
			case <-t.done:
			}
		}()
	}
	s.batchWait = opts.batchWait
	if opts.failAt > 0 {
		s.failHook = func(e int64, slot int) {
			if e != opts.failAt || slot != opts.failSlot {
				return
			}
			t.sinks.flushBarrier()
			t.sever()
		}
	}

	s.run()
	return nil
}

// join opens the mesh listener (or takes ml), dials the master and performs
// the first half of the handshake: announce, learn our id and the roster.
// The control connection's reads idle until the master admits us and — for
// a founder — until the rest of the cluster has joined, hence the formation
// margin on this phase's read deadline.
func (t *tcpSlave) join(meshListen string, ml net.Listener) error {
	if meshListen == "" {
		meshListen = "127.0.0.1:0"
	}
	var err error
	if t.ml = ml; ml == nil {
		if t.ml, err = t.cfg.transport().Listen("tcp", meshListen); err != nil {
			return err
		}
	}
	if t.mc, err = dialRetry(t.cfg.transport(), t.joinAddr, t.cfg.dialBudget()); err != nil {
		return err
	}
	advert, err := advertiseAddr(meshListen, t.ml.Addr(), t.mc.LocalAddr())
	if err != nil {
		return err
	}
	t.master = engine.WrapTCPBatched(t.proc,
		engine.WithDeadlines(t.mc, t.cfg.formReadDeadline(), t.cfg.wireDeadline()), t.cfg.WireBatchBytes)
	t.master.Send(&wire.Hello{Slave: -1, Epoch: joinEpoch})
	t.master.Send(&wire.Membership{Epoch: wire.Version, Self: -1, Slaves: []wire.MemberSpec{
		{ID: -1, Addr: advert, Workers: int32(t.cfg.LiveWorkers())},
	}})
	roster, ok := t.master.Recv().(*wire.Membership)
	if !ok {
		return fmt.Errorf("core: join: expected Membership from master")
	}
	if roster.Self < 0 && roster.Epoch != wire.Version {
		return fmt.Errorf("core: join rejected: the master speaks wire v%d, this slave v%d", roster.Epoch, wire.Version)
	}
	if roster.Self < 0 || int(roster.Self) >= t.cfg.Slaves {
		return fmt.Errorf("core: join rejected (assigned id %d of %d; is -slaves consistent with the master?)",
			roster.Self, t.cfg.Slaves)
	}
	t.id, t.roster, t.sinks.slave = roster.Self, roster, roster.Self
	return nil
}

// connect wires the slave to everyone but the master: the mesh (accept
// slaves that join after us, dial everyone already there), the collector,
// and the downstream pair sinks.
func (t *tcpSlave) connect(resAddr string) error {
	t.tab = newPeerTable(t.cfg.meshPatience())
	t.rset = newShadowSet(t.proc)
	go t.acceptMesh()
	for _, sp := range t.roster.Slaves {
		if sp.ID == t.id || sp.Addr == "" {
			continue
		}
		c, err := dialRetry(t.cfg.transport(), sp.Addr, t.cfg.dialBudget())
		if err != nil {
			return fmt.Errorf("core: slave %d mesh dial to %d: %w", t.id, sp.ID, err)
		}
		pc := t.wrapMesh(c)
		pc.Send(&wire.Hello{Slave: t.id, Epoch: joinEpoch})
		t.tab.set(sp.ID, pc, func() { c.Close() })
	}

	var err error
	if t.rc, err = dialRetry(t.cfg.transport(), resAddr, t.cfg.dialBudget()); err != nil {
		return err
	}
	// Write-only from this side: a collector that stops draining fails the
	// conn within one wire deadline instead of wedging a flush.
	t.coll = &tcpAsyncSender{engine.WrapTCPBatched(t.proc,
		engine.WithDeadlines(t.rc, 0, t.cfg.wireDeadline()), t.cfg.WireBatchBytes)}
	return t.sinks.dial(&t.cfg)
}

// wrapMesh frames a mesh or heartbeat connection. The mesh read deadline
// fits every stream kind they carry: state moves arrive within their
// directive's epoch, replication streams carry at least a keepalive delta per
// distribution epoch, and pongs answer pings at once.
func (t *tcpSlave) wrapMesh(c net.Conn) engine.Conn {
	return engine.WrapTCPBatched(t.proc,
		engine.WithDeadlines(c, t.cfg.meshReadDeadline(), t.cfg.wireDeadline()), t.cfg.WireBatchBytes)
}

// acceptMesh serves the mesh listener. It carries two stream kinds, told
// apart by the first Hello's Epoch: joinEpoch marks a state-movement peer,
// replEpoch a buddy-replication stream whose deltas feed the local
// shadowSet. Every slave accepts replica streams, so a replicating peer
// always has somewhere to ship to.
func (t *tcpSlave) acceptMesh() {
	for {
		c, err := t.ml.Accept()
		if err != nil {
			return
		}
		go func() {
			defer func() { recover() }() // torn-down handshake
			pc := t.wrapMesh(c)
			h, ok := pc.Recv().(*wire.Hello)
			if !ok || h.Slave < 0 || h.Slave == t.id {
				c.Close()
				return
			}
			if h.Epoch != replEpoch {
				t.tab.set(h.Slave, pc, func() { c.Close() })
				return
			}
			// Replication reader: apply the owner's deltas until the
			// stream ends — or carries anything but a replication delta.
			// endReader signals take that every delta the owner flushed
			// before dying is applied.
			done := t.rset.beginReader(h.Slave, func() { c.Close() })
			defer t.rset.endReader(h.Slave, done)
			for {
				wd, ok := pc.Recv().(*wire.WindowDelta)
				if !ok || wd.MoveID != 0 || wd.Close {
					c.Close()
					return
				}
				t.rset.apply(wd)
			}
		}()
	}
}

// anchor completes the handshake — an optional QuerySet announcing the query
// specs (the master's set replaces the slave's queries, so slave binaries
// need no matching -query flags), then the anchor batch — sets the slave's
// clock to the master's, and builds the slave node.
func (t *tcpSlave) anchor() (*slaveNode, error) {
	first := t.master.Recv()
	if qset, ok := first.(*wire.QuerySet); ok {
		qs := make([]QuerySpec, len(qset.Specs))
		for i, sp := range qset.Specs {
			qs[i] = QuerySpec{
				ID:        sp.Query,
				Prober:    join.Mode(sp.Prober),
				CountOnly: sp.CountOnly,
				SinkAddr:  sp.SinkAddr,
			}
		}
		// The set replaces query 0's Sink and LiveProber too.
		t.cfg.Queries, t.cfg.Sink, t.cfg.LiveProber = qs, nil, join.ModeHash
		if err := t.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("core: slave %d query set: %w", t.id, err)
		}
		if err := t.sinks.dial(&t.cfg); err != nil {
			return nil, err
		}
		first = t.master.Recv()
	}
	start, ok := first.(*wire.Batch)
	if !ok {
		return nil, fmt.Errorf("core: slave %d: expected anchor batch", t.id)
	}
	// The cluster has one clock, the master's. A founder's anchor
	// (startEpoch) left the instant the grid started at Origin; a mid-run
	// joiner's left as its admission epoch began, at Origin + epoch·t_d. The
	// slave's clock reads that instant from here on, so tuple timestamps,
	// window expiry and epoch slots share one time base. It lags the
	// master's by the anchor's transit, plus the few local dials a slave
	// admitted last makes before it reads the anchor. A joiner's first
	// participating epoch is the next reorganization boundary — the same
	// arithmetic the master used (masterNode.admit).
	origin := time.Duration(start.Origin)
	sentAt, epoch0 := origin, int64(0)
	if start.Epoch != startEpoch {
		K := t.cfg.epochsPerReorg()
		sentAt += time.Duration(start.Epoch) * time.Duration(t.cfg.DistEpochMs) * time.Millisecond
		epoch0 = (start.Epoch/K + 1) * K
	}
	t.env.SetNow(sentAt)
	// After the anchor the master sends nothing before this slave's first
	// Hello: an epoch's Batch (with any Membership before it) answers the
	// epoch's Hello, and its data-slot Batches follow that one. So the
	// handshake framing holds no unread bytes and the control connection
	// can be re-framed with the steady-state deadline: reads now resume at
	// every exchange and data slot.
	t.master = engine.WrapTCPBatched(t.proc,
		engine.WithDeadlines(t.mc, t.cfg.ctlReadDeadline(), t.cfg.wireDeadline()), t.cfg.WireBatchBytes)

	// The node gets its own Config carrying the bound sinks; t.cfg stays as
	// the mesh acceptor reads it.
	nodeCfg := t.sinks.bind(t.cfg, t.proc)
	s := newSlave(&nodeCfg, t.id, t.proc, t.master, t.tab, t.coll,
		engine.NewLiveRunner(t.proc, t.cfg.LiveWorkers()))
	s.origin, s.epoch0 = origin, epoch0
	s.active = start.Activate
	s.rset = t.rset
	return s, nil
}

// startHeartbeat opens the second control connection, pinging every
// HeartbeatMs from admission on — a founder already pings while the cluster
// is still forming; leave requests ride it as Ping.Leave. A failed stream — reset,
// or a write blocked past the wire deadline — is redialed a bounded number
// of times, so a transient conn fault does not cost a healthy slave its
// membership; sever cuts the stream for good, and the master refuses ping
// streams for slots it already evicted.
func (t *tcpSlave) startHeartbeat(leave <-chan struct{}) error {
	dial := func() (engine.Conn, error) {
		c, err := dialRetry(t.cfg.transport(), t.joinAddr, t.cfg.dialBudget())
		if err != nil {
			return nil, err
		}
		t.hb.Lock()
		defer t.hb.Unlock()
		if t.hb.severed {
			c.Close()
			return nil, net.ErrClosed
		}
		t.hb.close = func() { c.Close() }
		return t.wrapMesh(c), nil
	}
	conn, err := dial()
	if err != nil {
		return err
	}
	var leaving atomic.Bool
	if leave != nil {
		go func() {
			select {
			case <-leave:
				leaving.Store(true)
			case <-t.done:
			}
		}()
	}
	go func() {
		interval := time.Duration(t.cfg.HeartbeatMs) * time.Millisecond
		for redials := 0; conn != nil && redials <= 5; redials++ {
			tolerateTCP(func() {
				for {
					conn.Send(&wire.Ping{Slave: t.id, Leave: leaving.Load()})
					if _, ok := conn.Recv().(*wire.Pong); !ok {
						return
					}
					select {
					case <-t.done:
						return
					case <-time.After(interval):
					}
				}
			})
			select {
			case <-t.done:
				return
			default:
			}
			conn, _ = dial() // nil once severed or unreachable: give up
		}
	}()
	return nil
}

// replicate turns on the sending side of buddy replication (cfg.Replicate):
// the replicator ships every owned group's window delta to the next roster
// member each epoch, and — with pair sinks — a per-epoch delivery barrier
// puts the pairs an epoch reports in the kernel's hands before its Hello, so
// even an abrupt crash cannot lose output the master has accounted.
func (t *tcpSlave) replicate(s *slaveNode) {
	if !t.cfg.Replicate {
		return
	}
	t.repl = newReplicator(&t.cfg, t.id, t.proc, func(addr string) (engine.Conn, func(), error) {
		c, err := t.cfg.transport().DialTimeout("tcp", addr, time.Duration(t.cfg.DistEpochMs)*time.Millisecond)
		if err != nil {
			return nil, nil, err
		}
		// Write-only from the owner side: a buddy that stops draining
		// fails the stream within one wire deadline; the next flush
		// redials it, restarting every buddy stream, instead of wedging
		// the epoch barrier.
		dc := engine.WithDeadlines(c, 0, t.cfg.wireDeadline())
		return engine.WrapTCPBatched(t.proc, dc, t.cfg.WireBatchBytes), func() { c.Close() }, nil
	})
	t.repl.updateRoster(t.roster.Slaves)
	s.repl = t.repl
	if len(t.sinks.sinks) > 0 {
		s.preFlush = t.sinks.flushBarrier
	}
}

// sever closes every connection of the slave at once: the ordinary teardown
// when ServeSlave returns, and — fired mid-run by a crash seam — what a
// process kill looks like from outside. Safe to call more than once and at
// any stage of the wiring.
func (t *tcpSlave) sever() {
	t.hb.Lock()
	t.hb.severed = true
	if t.hb.close != nil {
		t.hb.close()
	}
	t.hb.Unlock()
	for _, c := range []io.Closer{t.mc, t.rc, t.ml} {
		if c != nil {
			c.Close()
		}
	}
	if t.tab != nil {
		t.tab.closeAll()
		t.rset.closeAll()
	}
	if t.repl != nil {
		t.repl.close()
	}
}

// advertiseAddr builds the mesh address a slave announces to the cluster:
// the configured listen host (or, for an empty or wildcard host, the local
// address of the master dial — the interface the cluster actually reaches
// us through) with the listener's real port.
func advertiseAddr(listenSpec string, lnAddr, localAddr net.Addr) (string, error) {
	_, port, err := net.SplitHostPort(lnAddr.String())
	if err != nil {
		return "", err
	}
	host, _, err := net.SplitHostPort(listenSpec)
	if err != nil || host == "" || host == "0.0.0.0" || host == "::" {
		host, _, err = net.SplitHostPort(localAddr.String())
		if err != nil {
			return "", err
		}
	}
	return net.JoinHostPort(host, port), nil
}

// tcpAsyncSender adapts a framed TCP connection to the AsyncSender used for
// the collector path (TCP buffering provides the asynchrony). Result batches
// coalesce into a shared frame until the slave loop flushes at the end of
// each epoch's result flush (or the conn's byte threshold trips first).
type tcpAsyncSender struct {
	conn engine.Conn
}

// SendAsync implements engine.AsyncSender.
func (t *tcpAsyncSender) SendAsync(m wire.Message) { engine.SendBuffered(t.conn, m) }

// Flush implements engine.Flusher: it pushes any coalescing frame out.
func (t *tcpAsyncSender) Flush() { engine.Flush(t.conn) }
