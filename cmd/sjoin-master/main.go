// Command sjoin-master hosts the master node, the collector and the
// synthetic stream sources of a TCP cluster deployment. Start it first, then
// one sjoin-slave per slave with identical system flags (the shared flag
// surface includes -workers, which only slave processes act on; see
// OPERATIONS.md for the full flag reference).
//
// The run starts once -min-slaves slaves have joined — all -slaves of them
// with the default -min-slaves 0 — and from then on slaves may join (up to
// -slaves), leave gracefully, or crash: a crashed slave is evicted and the
// run continues. Every membership transition is logged to stderr.
//
//	sjoin-master -ctl :7400 -results :7401 -slaves 4 -min-slaves 2 \
//	    -rate 800 -window 5s -td 250ms -tr 2500ms -duration 15s -warmup 5s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"streamjoin/internal/cliflags"
	"streamjoin/internal/core"
)

func main() {
	fs := flag.NewFlagSet("sjoin-master", flag.ExitOnError)
	getConfig := cliflags.Bind(fs)
	ctl := fs.String("ctl", ":7400", "control listen address (slave epoch exchanges)")
	res := fs.String("results", ":7401", "results listen address (collector)")
	fs.Parse(os.Args[1:])
	cfg := getConfig()

	fmt.Printf("sjoin-master: waiting for slaves on %s (results on %s)\n", *ctl, *res)
	logger := log.New(os.Stderr, "sjoin-master: ", log.Lmicroseconds)
	r, err := core.ServeMaster(cfg, *ctl, *res, logger.Printf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sjoin-master:", err)
		os.Exit(1)
	}
	fmt.Printf("outputs:        %d\n", r.Outputs)
	if len(cfg.Queries) > 0 {
		// One line per registered query, in id order (the two-query e2e
		// check compares these against the consumer's per-query tallies).
		ids := make([]int, 0, len(r.DelayByQuery))
		for q := range r.DelayByQuery {
			ids = append(ids, int(q))
		}
		sort.Ints(ids)
		for _, q := range ids {
			st := r.DelayByQuery[int32(q)]
			fmt.Printf("query %d outputs: %d (avg delay %v)\n", q, st.Count, st.Mean())
		}
	}
	fmt.Printf("average delay:  %v\n", r.MeanDelay())
	fmt.Printf("epochs served:  %d\n", r.EpochsServed)
	if r.SourceDropped > 0 {
		fmt.Printf("source dropped: %d tuples (master over two epochs behind its schedule; offered load the cluster never saw)\n",
			r.SourceDropped)
	}
	if r.TSClamped > 0 {
		fmt.Printf("ts clamped:     %d tuples (arrived out of order; timestamp raised to their group's latest)\n",
			r.TSClamped)
	}
	fmt.Printf("movements:      %d completed\n", r.MovesCompleted)
	if r.MovesDegraded > 0 {
		fmt.Printf("degraded moves: %d (state lost in transit; windows restarted empty)\n",
			r.MovesDegraded)
	}
	if r.MovesCompleted > 0 && r.XferStallTotal() > 0 {
		// Slave-side stall accounting reaches the Result on in-process runs
		// only; the TCP master has no view of it.
		fmt.Printf("reorg stall:    %v worst epoch (%v total)\n",
			r.XferStallMax().Round(10*time.Microsecond),
			r.XferStallTotal().Round(10*time.Microsecond))
	}
	if r.EpochLat.Count > 0 {
		// Slave-side lateness samples reach the Result on in-process runs
		// only; the TCP master has no view of them.
		fmt.Printf("p99 epoch:      %v late\n", r.EpochP99().Round(time.Millisecond))
	}
	fmt.Printf("master comm:    %v\n", r.Master.Comm.Round(time.Millisecond))
	fmt.Printf("membership:     %d joins, %d leaves, %d evictions\n",
		r.Joins, r.Leaves, r.Evictions)
	fmt.Printf("rebalanced:     %d groups (%dms cumulative stall)\n",
		r.GroupsRebalanced, r.RebalanceStallMs)
	if cfg.Replicate {
		fmt.Printf("promoted:       %d groups from buddy replicas\n", r.GroupsPromoted)
	}
	if r.Evictions > 0 {
		fmt.Printf("pairs lost:     %d (estimated, from %d window tuples discarded at evictions)\n",
			r.PairsLost, r.LostWindowTuples)
	}
}
