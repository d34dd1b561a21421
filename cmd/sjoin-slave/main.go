// Command sjoin-slave hosts one slave node of a TCP cluster deployment. Run
// it with the same system flags as the master. Each slave process drives
// -workers join workers (one per CPU core by default), each owning a
// disjoint subset of the slave's partition-groups. -sink selects what
// happens to materialized join pairs: "discard" (materialize then drop, the
// default), "count" (skip pair materialization, counts unchanged), or
// "tcp:HOST:PORT" (dial the downstream consumer at that address — e.g.
// sjoin-collect — and stream the pairs; a slow consumer backpressures the
// join workers).
//
// The slave dials the master at -join; the master assigns its ID, the mesh
// is discovered from the roster, and the slave may be started before the
// cluster has formed or at any later point of the run:
//
//	sjoin-slave -join localhost:7400 -results localhost:7401 \
//	    -slaves 4 -min-slaves 2 -window 5s -td 250ms ...
//
// It leaves gracefully on SIGINT/SIGTERM: the master drains its
// partition-groups to the survivors and releases it, and the process exits
// cleanly. Kill -9 it (or pull the network) to exercise crash eviction
// instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"streamjoin/internal/cliflags"
	"streamjoin/internal/core"
)

func main() {
	fs := flag.NewFlagSet("sjoin-slave", flag.ExitOnError)
	getConfig := cliflags.Bind(fs)
	join := fs.String("join", "localhost:7400", "master control address (the master assigns the slave ID)")
	res := fs.String("results", "localhost:7401", "master results (collector) address")
	meshListen := fs.String("mesh-listen", "", "mesh listen address (default 127.0.0.1:0; the port is advertised to the cluster)")
	fs.Parse(os.Args[1:])
	cfg := getConfig()

	leave := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("sjoin-slave: leave requested, draining partition-groups")
		close(leave)
		// A second signal skips the graceful drain.
		<-sig
		os.Exit(1)
	}()
	fmt.Printf("sjoin-slave: joining master at %s (%d join workers)\n", *join, cfg.LiveWorkers())
	err := core.ServeSlave(cfg, *join, *res, core.JoinOptions{
		MeshListen: *meshListen,
		Leave:      leave,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sjoin-slave:", err)
		os.Exit(1)
	}
	fmt.Println("sjoin-slave: shut down cleanly")
}
