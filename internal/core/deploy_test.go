package core

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/wire"
)

// freePorts reserves n distinct localhost TCP ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	// The same deployment end to end with 4 join workers per slave (the
	// worker pool) and with one (the inline loop).
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"batched", 4},
		{"inline", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = tc.workers
			cfg.Slaves = 2
			cfg.Rate = 600
			cfg.WindowMs = 3_000
			cfg.DistEpochMs = 250
			cfg.ReorgEpochMs = 2_500
			cfg.DurationMs = 5_000
			cfg.WarmupMs = 1_000
			cfg.Theta = 32 << 10
			cfg.Domain = 20_000

			addrs := freePorts(t, 4)
			ctl, res := addrs[0], addrs[1]
			mesh := addrs[2:4]

			var wg sync.WaitGroup
			slaveErr := make(chan error, cfg.Slaves)
			for i := 0; i < cfg.Slaves; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					if err := ServeSlaveTCP(cfg, id, ctl, res, mesh); err != nil {
						slaveErr <- fmt.Errorf("slave %d: %w", id, err)
					}
				}(i)
			}

			result, err := ServeMasterTCP(cfg, ctl, res)
			if err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(slaveErr)
			for err := range slaveErr {
				t.Error(err)
			}
			if result.Outputs == 0 {
				t.Fatal("TCP cluster produced no outputs")
			}
			if result.EpochsServed < 10 {
				t.Fatalf("epochs = %d", result.EpochsServed)
			}
			t.Logf("tcp cluster: outputs=%d delay=%v epochs=%d frames=%d/%d msgs",
				result.Outputs, result.MeanDelay(), result.EpochsServed,
				result.Master.WireFramesSent+result.Master.WireFramesRecv,
				result.Master.MsgsSent+result.Master.MsgsRecv)
		})
	}
}

// TestFullRosterFormation: with MinSlaves 0 the cluster forms only when all
// cfg.Slaves have joined — the epoch schedule does not start on the first
// join, however long the last slave takes — and a control connection that
// opens with anything but a join handshake or a Ping (here: the registration
// Hello of an sjoin-slave predating -join) is logged and closed instead of
// vanishing silently. So is a join handshake of another wire.Version, which
// is also told the master's.
func TestFullRosterFormation(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Slaves = 2
	cfg.Rate = 600
	cfg.WindowMs = 3_000
	cfg.DistEpochMs = 250
	cfg.ReorgEpochMs = 2_500
	cfg.DurationMs = 3_000
	cfg.WarmupMs = 500
	cfg.Theta = 32 << 10
	cfg.Domain = 20_000
	const lateBy = 1500 * time.Millisecond

	addrs := freePorts(t, 4)
	ctl, res, mesh := addrs[0], addrs[1], addrs[2:4]
	begin := time.Now()
	var logMu sync.Mutex
	var lines []string
	var formedAfter time.Duration
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		logMu.Lock()
		lines = append(lines, line)
		if strings.Contains(line, "cluster formed") {
			formedAfter = time.Since(begin)
		}
		logMu.Unlock()
		t.Log(line)
	}

	var wg sync.WaitGroup
	slaveErr := make(chan error, cfg.Slaves)
	for i := 0; i < cfg.Slaves; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			time.Sleep(time.Duration(id) * lateBy)
			if err := ServeSlaveTCP(cfg, id, ctl, res, mesh); err != nil {
				slaveErr <- fmt.Errorf("slave %d: %w", id, err)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(lateBy / 3)
		c, err := net.Dial("tcp", ctl)
		if err != nil {
			t.Errorf("stale slave dial: %v", err)
			return
		}
		defer c.Close()
		stale := engine.WrapTCPBatched(engine.NewLiveEnv().NewProc("stale-slave"), c, 0)
		stale.Send(&wire.Hello{Slave: 0, Epoch: startEpoch})
		if tolerateTCP(func() { stale.Recv() }) {
			t.Error("master answered a pre-join registration Hello instead of closing it")
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(lateBy / 3)
		c, err := net.Dial("tcp", ctl)
		if err != nil {
			t.Errorf("other-version slave dial: %v", err)
			return
		}
		defer c.Close()
		other := engine.WrapTCPBatched(engine.NewLiveEnv().NewProc("other-version-slave"), c, 0)
		other.Send(&wire.Hello{Slave: -1, Epoch: joinEpoch})
		other.Send(&wire.Membership{Epoch: wire.Version + 1, Self: -1,
			Slaves: []wire.MemberSpec{{ID: -1, Addr: "127.0.0.1:1", Workers: 1}}})
		var reply wire.Message
		if !tolerateTCP(func() { reply = other.Recv() }) {
			t.Error("master hung up on another wire version without saying its own")
			return
		}
		if ms, ok := reply.(*wire.Membership); !ok || ms.Self != -1 || ms.Epoch != wire.Version {
			t.Errorf("master answered another wire version with %+v, want Membership{Self: -1, Epoch: %d}", reply, wire.Version)
		}
		if tolerateTCP(func() { other.Recv() }) {
			t.Error("master kept talking to a slave of another wire version")
		}
	}()

	result, err := serveMaster(cfg, ctl, res, logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(slaveErr)
	for err := range slaveErr {
		t.Error(err)
	}

	logMu.Lock()
	defer logMu.Unlock()
	joins, formedAt, rejected, versionLogged := 0, -1, false, false
	for i, line := range lines {
		switch {
		case strings.Contains(line, "joined"):
			joins++
		case strings.Contains(line, "cluster formed"):
			formedAt = i
			if joins != cfg.Slaves {
				t.Errorf("cluster formed after %d joins, want %d", joins, cfg.Slaves)
			}
		case strings.Contains(line, "control connection from") &&
			strings.Contains(line, "Hello{Slave: 0, Epoch: -1}"):
			rejected = true
		case strings.Contains(line, fmt.Sprintf("speaks wire v%d, this master v%d, closing", wire.Version+1, wire.Version)):
			versionLogged = true
		}
	}
	if !versionLogged {
		t.Error("the join of another wire version was closed without a membership log line naming both")
	}
	if formedAt < 0 {
		t.Fatal("formation was never logged")
	}
	if formedAfter < lateBy {
		t.Errorf("cluster formed %v in, before the last slave joined at %v", formedAfter, lateBy)
	}
	if !rejected {
		t.Error("the stale registration was closed without a membership log line")
	}
	if result.Joins != cfg.Slaves || result.Evictions != 0 {
		t.Errorf("joins = %d, evictions = %d, want %d and 0", result.Joins, result.Evictions, cfg.Slaves)
	}
	if result.Outputs == 0 {
		t.Error("no outputs")
	}
	// Epochs are paced from the anchors: had the schedule started with the
	// first join, the wait for the second slave would have added lateBy/t_d
	// epochs (6 here) to the run's DurationMs/t_d.
	if limit := int64(cfg.DurationMs/cfg.DistEpochMs) + 3; result.EpochsServed > limit {
		t.Errorf("epochs served = %d, want at most %d — the schedule ran while the cluster was forming",
			result.EpochsServed, limit)
	}
}

// TestJoinNamesBothWireVersions: a slave turned away by a master of another
// wire.Version fails its join with an error that names both.
func TestJoinNamesBothWireVersions(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		master := engine.WrapTCPBatched(engine.NewLiveEnv().NewProc("other-version-master"), c, 0)
		tolerateTCP(func() {
			master.Recv() // join Hello
			master.Recv() // announcement
			master.Send(&wire.Membership{Epoch: wire.Version + 1, Self: -1})
		})
	}()
	cfg := DefaultConfig()
	err = ServeSlave(cfg, ln.Addr().String(), ln.Addr().String(), JoinOptions{})
	want := fmt.Sprintf("the master speaks wire v%d, this slave v%d", wire.Version+1, wire.Version)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ServeSlave = %v, want an error containing %q", err, want)
	}
}
