package core

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"streamjoin/internal/engine"
	"streamjoin/internal/wire"
)

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

// listenRecorder is the OS TCP stack, remembering every listener it opens.
type listenRecorder struct {
	engine.Transport
	opened []net.Listener
}

func (lr *listenRecorder) Listen(network, addr string) (net.Listener, error) {
	ln, err := lr.Transport.Listen(network, addr)
	if err == nil {
		lr.opened = append(lr.opened, ln)
	}
	return ln, err
}

// TestServeMasterListenErrors: ServeMaster validates its config before it
// listens, and a result address it cannot bind leaves no listener open.
func TestServeMasterListenErrors(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	invalid := DefaultConfig()
	invalid.SinkAddr, invalid.CountOnly = "127.0.0.1:9", true
	for _, tc := range []struct {
		cfg        Config
		res        string
		wantOpened int
	}{{invalid, "127.0.0.1:0", 0}, {DefaultConfig(), busy.Addr().String(), 1}} {
		lr := &listenRecorder{Transport: engine.TCP}
		tc.cfg.Transport = lr
		if _, err := ServeMaster(tc.cfg, "127.0.0.1:0", tc.res, nil); err == nil {
			t.Fatalf("ServeMaster(res %s) succeeded", tc.res)
		}
		if len(lr.opened) != tc.wantOpened {
			t.Errorf("res %s: opened %d listeners, want %d", tc.res, len(lr.opened), tc.wantOpened)
		}
		for _, ln := range lr.opened {
			if err := ln.Close(); !errors.Is(err, net.ErrClosed) {
				t.Errorf("res %s: listener %s left open", tc.res, ln.Addr())
			}
		}
	}
}
