// Package cliflags binds the system configuration to command-line flags,
// shared by the sjoin-* binaries so a cluster deployment cannot drift
// between master and slave processes.
package cliflags

import (
	"flag"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"streamjoin/internal/core"
	"streamjoin/internal/join"
)

// sinkModes names every valid SINK of -query; unknown values are rejected
// with an error listing them rather than silently falling back to the
// default.
const sinkModes = `"discard", "count", or "tcp:HOST:PORT"`

// parseSink parses the SINK of a -query value into the query's
// (CountOnly, SinkAddr) pair.
func parseSink(v string) (countOnly bool, sinkAddr string, err error) {
	switch {
	case v == "discard":
		return false, "", nil
	case v == "count":
		return true, "", nil
	case strings.HasPrefix(v, "tcp:"):
		addr := strings.TrimPrefix(v, "tcp:")
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return false, "", fmt.Errorf("sink address %q: %v (want tcp:HOST:PORT)", addr, err)
		}
		return false, addr, nil
	default:
		return false, "", fmt.Errorf("unknown sink %q (valid modes: %s)", v, sinkModes)
	}
}

// parseQuery parses one -query flag value, "ID:PROBER:SINK", into a
// core.QuerySpec: a non-negative query id, a prober ("hash" or "scan"), and
// a sink, "discard", "count" or "tcp:HOST:PORT" (the tcp form keeps its own
// colons: "1:hash:tcp:127.0.0.1:9999").
func parseQuery(v string) (core.QuerySpec, error) {
	var q core.QuerySpec
	parts := strings.SplitN(v, ":", 3)
	if len(parts) != 3 {
		return q, fmt.Errorf("query %q: want ID:PROBER:SINK", v)
	}
	id, err := strconv.ParseInt(parts[0], 10, 32)
	if err != nil || id < 0 {
		return q, fmt.Errorf("query %q: bad id %q (want a non-negative integer)", v, parts[0])
	}
	q.ID = int32(id)
	switch parts[1] {
	case "hash":
		q.Prober = join.ModeHash
	case "scan":
		q.Prober = join.ModeScan
	default:
		return q, fmt.Errorf("query %q: unknown prober %q (want hash or scan)", v, parts[1])
	}
	countOnly, sinkAddr, err := parseSink(parts[2])
	if err != nil {
		return q, fmt.Errorf("query %q: %v", v, err)
	}
	q.CountOnly, q.SinkAddr = countOnly, sinkAddr
	return q, nil
}

// Bind registers flags for every user-facing Config field onto fs and
// returns a function that materializes the Config after fs.Parse.
func Bind(fs *flag.FlagSet) func() core.Config {
	def := core.DefaultConfig()
	var (
		slaves   = fs.Int("slaves", def.Slaves, "total slave nodes (max degree of declustering)")
		active   = fs.Int("active", 0, "initially active slaves (0 = all)")
		adaptive = fs.Bool("adaptive", def.Adaptive, "adapt the degree of declustering")
		beta     = fs.Float64("beta", def.Beta, "DoD growth threshold β")
		ng       = fs.Int("subgroups", def.SubGroups, "sub-groups ng for staggered distribution")
		parts    = fs.Int("partitions", def.Partitions, "logical hash partitions")
		ppg      = fs.Int("ppg", def.PartitionsPerGroup, "partitions per partition-group")
		window   = fs.Duration("window", time.Duration(def.WindowMs)*time.Millisecond, "sliding window W")
		theta    = fs.Int64("theta", def.Theta, "fine-tuning threshold θ (bytes)")
		fine     = fs.Bool("finetune", def.FineTune, "enable fine-grained partition tuning")
		td       = fs.Duration("td", time.Duration(def.DistEpochMs)*time.Millisecond, "distribution epoch")
		tr       = fs.Duration("tr", time.Duration(def.ReorgEpochMs)*time.Millisecond, "reorganization epoch")
		thsup    = fs.Float64("thsup", def.ThSup, "supplier occupancy threshold")
		thcon    = fs.Float64("thcon", def.ThCon, "consumer occupancy threshold")
		buf      = fs.Int64("slavebuf", def.SlaveBufBytes, "slave stream buffer (bytes)")
		rate     = fs.Float64("rate", def.Rate, "per-stream arrival rate (tuples/sec)")
		skew     = fs.Float64("skew", def.Skew, "b-model bias of join attribute values")
		domain   = fs.Int("domain", int(def.Domain), "join attribute domain size")
		seed     = fs.Uint64("seed", def.Seed, "workload/controller seed")
		duration = fs.Duration("duration", time.Duration(def.DurationMs)*time.Millisecond, "run length")
		warmup   = fs.Duration("warmup", time.Duration(def.WarmupMs)*time.Millisecond, "warm-up discarded from metrics")
		workers  = fs.Int("workers", def.Workers, "join workers per live slave over disjoint partition-groups (0 = one per CPU core)")
		minsl    = fs.Int("min-slaves", def.MinSlaves, "membership: start the epoch schedule once this many slaves have joined, admit up to -slaves while running (0 = start when all -slaves have joined)")
		hbint    = fs.Duration("heartbeat", time.Duration(def.HeartbeatMs)*time.Millisecond, "membership: slave heartbeat interval")
		hbmiss   = fs.Int("heartbeat-misses", def.HeartbeatMisses, "membership: consecutive missed heartbeats before a slave is declared dead")
		repl     = fs.Bool("replicate", def.Replicate, "chain-replicate each slave's window state to a buddy every epoch, so a crashed slave's groups are promoted from their replicas instead of restarting empty")
		wiredl   = fs.Duration("wire-deadline", 30*time.Second, "per-operation write deadline on every live connection; idle read deadlines derive from it (0 disables all wire deadlines)")
		formto   = fs.Duration("form-timeout", 2*time.Minute, "cluster formation timeout: how long the master waits for the founding slaves")
	)
	spool := int64(1 << 20)
	fs.Func("sink-spool", "bytes of pair batches spooled in memory while a downstream sink connection is being re-dialed; overflow is dropped and accounted; must be > 0 (default 1048576)",
		func(v string) error {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return fmt.Errorf("sink spool %q: want a byte count > 0", v)
			}
			spool = n
			return nil
		})
	var queries []core.QuerySpec
	fs.Func("query", `register one join query as "ID:PROBER:SINK" (repeatable; declared on the master, which sends its queries to every slave): non-negative id, prober "hash" (key-index) or "scan" (nested-loop ablation), and sink "discard" (materialize each output pair, then drop it), "count" (skip pair materialization entirely) or "tcp:HOST:PORT" (each slave dials the downstream consumer at HOST:PORT and streams the query's pairs; see sjoin-collect), e.g. -query 0:hash:count -query "1:scan:tcp:127.0.0.1:9999". All queries share each slave's ingested windows. Omitted = one query, 0:hash:discard`,
		func(v string) error {
			q, err := parseQuery(v)
			if err != nil {
				return err
			}
			queries = append(queries, q)
			return nil
		})
	return func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Slaves = *slaves
		cfg.InitialActive = *active
		cfg.Adaptive = *adaptive
		cfg.Beta = *beta
		cfg.SubGroups = *ng
		cfg.Partitions = *parts
		cfg.PartitionsPerGroup = *ppg
		cfg.WindowMs = int32(*window / time.Millisecond)
		cfg.Theta = *theta
		cfg.FineTune = *fine
		cfg.DistEpochMs = int32(*td / time.Millisecond)
		cfg.ReorgEpochMs = int32(*tr / time.Millisecond)
		cfg.ThSup = *thsup
		cfg.ThCon = *thcon
		cfg.SlaveBufBytes = *buf
		cfg.Rate = *rate
		cfg.Skew = *skew
		cfg.Domain = int32(*domain)
		cfg.Seed = *seed
		cfg.DurationMs = int32(*duration / time.Millisecond)
		cfg.WarmupMs = int32(*warmup / time.Millisecond)
		cfg.Queries = queries
		cfg.Workers = *workers
		cfg.MinSlaves = *minsl
		cfg.HeartbeatMs = int32(*hbint / time.Millisecond)
		cfg.HeartbeatMisses = *hbmiss
		cfg.Replicate = *repl
		// Zero means "explicitly disabled" on the flag surface but "use the
		// default" on the Config struct, so disabling maps to the negative
		// sentinel.
		if *wiredl <= 0 {
			cfg.WireDeadlineMs = -1
		} else {
			cfg.WireDeadlineMs = int32(*wiredl / time.Millisecond)
		}
		cfg.FormTimeoutMs = int32(*formto / time.Millisecond)
		cfg.SinkSpoolBytes = spool
		return cfg
	}
}
