// Command sjoin-collect is the reference downstream consumer of a TCP
// cluster deployment: for every query the master declares with
// `-query ID:PROBER:tcp:HOST:PORT`, each slave dials it directly and
// streams the query's materialized join pairs as wire.PairBatch
// messages (join output never funnels through the master). The collector
// keeps per-group and per-slave counts and receive rates, optionally
// re-frames the decoded batches to stdout for the next stage of a pipeline,
// and emits a machine-readable JSON summary on exit — the e2e CI job
// compares its pair total against the master's result summary.
//
//	sjoin-collect -listen :7402 -conns 2 -json summary.json
//	sjoin-master  -ctl :7400 -results :7401 -slaves 2 ... -query 0:hash:tcp:localhost:7402
//	sjoin-slave   -join localhost:7400 ...
//	sjoin-slave   -join localhost:7400 ...
//
// With -conns N it exits once N producers have connected and hung up (a
// bounded run); otherwise it runs until -duration elapses or SIGINT/SIGTERM.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"streamjoin/internal/collect"
	"streamjoin/internal/wire"
)

func main() {
	listen := flag.String("listen", ":7402", "address to accept slave sink connections on")
	conns := flag.Int("conns", 0, "exit after this many producers have connected and closed (0 = run until -duration or SIGINT)")
	duration := flag.Duration("duration", 0, "exit after this long (0 = no limit)")
	report := flag.Duration("report", 0, "periodic per-group progress line interval on stderr (0 = none)")
	jsonOut := flag.String("json", "", `write the final JSON summary to this file ("-" = stdout)`)
	reframe := flag.Bool("reframe", false, "re-frame every decoded pair batch to stdout (pipe to the next consumer)")
	flag.Parse()

	if *reframe && *jsonOut == "-" {
		fatal(fmt.Errorf("-reframe and -json - both want stdout"))
	}

	var out *bufio.Writer
	var onBatch func(*wire.PairBatch)
	if *reframe {
		out = bufio.NewWriterSize(os.Stdout, 1<<16)
		fw := wire.NewFrameWriter(out, 0)
		// Called serially under the tally's lock, so writes never interleave.
		// One flush per batch: every batch is its own single-message frame.
		onBatch = func(pb *wire.PairBatch) {
			if err := fw.Append(pb); err != nil {
				fatal(err)
			}
			if err := fw.Flush(); err != nil {
				fatal(err)
			}
		}
	}
	tally := collect.New(onBatch)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sjoin-collect: listening on %s\n", ln.Addr())
	start := time.Now()

	var producers sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for accepted := 0; *conns == 0 || accepted < *conns; {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed at shutdown
			}
			accepted++
			producers.Add(1)
			go func(c net.Conn) {
				defer producers.Done()
				defer c.Close()
				if err := tally.Consume(c); err != nil {
					fmt.Fprintf(os.Stderr, "sjoin-collect: %s: %v\n", c.RemoteAddr(), err)
				}
			}(c)
		}
	}()

	if *report > 0 {
		go func() {
			tick := time.NewTicker(*report)
			defer tick.Stop()
			for range tick.C {
				s := tally.Snapshot(time.Since(start))
				fmt.Fprintf(os.Stderr, "sjoin-collect: %d pairs (%.0f/s) %s\n",
					s.Pairs, s.PairsPerSec, s.GroupLine())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}
	if *conns > 0 {
		bounded := make(chan struct{})
		go func() { <-acceptDone; producers.Wait(); close(bounded) }()
		select {
		case <-bounded:
		case <-sig:
		case <-timeout:
		}
	} else {
		select {
		case <-sig:
		case <-timeout:
		}
	}
	ln.Close()
	// Give connections already mid-frame a moment to finish, then report.
	drained := make(chan struct{})
	go func() { producers.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
	}

	sum := tally.Snapshot(time.Since(start))
	if out != nil {
		if err := out.Flush(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "sjoin-collect: %d pairs in %d batches over %d groups, %.0f pairs/s, %d bytes\n",
		sum.Pairs, sum.Batches, len(sum.Groups), sum.PairsPerSec, sum.Bytes)
	if len(sum.Queries) > 1 {
		ids := make([]int, 0, len(sum.Queries))
		for k := range sum.Queries {
			if id, err := strconv.Atoi(k); err == nil {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(os.Stderr, "sjoin-collect: query %d: %d pairs\n",
				id, sum.Queries[strconv.Itoa(id)])
		}
	}
	if *jsonOut != "" {
		enc, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fatal(err)
		}
		enc = append(enc, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sjoin-collect:", err)
	os.Exit(1)
}
