#!/usr/bin/env bash
# End-to-end chaos check: a live 3-slave TCP cluster whose entire control
# plane is routed through the sjoin-chaos fault-injecting proxy, with
# sjoin-collect attached downstream and the race detector on. The master
# declares the pair sink (-query 0:hash:tcp:...); the slaves take no sink
# flag and learn it from the master's join handshake.
#
#   t≈0s   sjoin-chaos starts, fronting the master's control port. Every
#          proxied connection carries 2ms(+1ms jitter) per-write latency;
#          connection #2 — deterministically the first slave's heartbeat
#          stream, because that slave joins alone — is scheduled to be
#          reset after 256 bytes (a few beats in)
#   t≈0.5s the master starts elastic (-min-slaves 3); slave 0 dials the
#          proxy and opens control (#1) and heartbeat (#2) connections
#   t≈1.5s slaves 1 and 2 dial in; the cluster forms and the run starts
#   t≈2s   the injected reset kills slave 0's heartbeat stream mid-run.
#          The slave redials it through the proxy inside the miss budget
#          (-heartbeat 250ms -heartbeat-misses 8 = 2s of tolerance), so
#          the master must NOT evict it: a reset control stream is a
#          recoverable fault, not a death
#   t≈13s  the run ends; every process shuts down cleanly
#
# Both faults are recoverable, so the downstream consumer must have seen
# exactly the master's result summary: collect pair total == master outputs
# == per-group sum, zero emission-sequence regressions, and membership
# 3 joins / 0 leaves / 0 evictions. The proxy's stderr must show that both
# rules actually fired.
#
# Usage: ci/e2e-chaos.sh            (race detector on; RACE= to disable)
set -euo pipefail
cd "$(dirname "$0")/.."

RACE="${RACE---race}"
WORK="$(mktemp -d)"
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build ${RACE:+"$RACE"} -o "$WORK" \
  ./cmd/sjoin-master ./cmd/sjoin-slave ./cmd/sjoin-collect ./cmd/sjoin-chaos

CTL=127.0.0.1:7446
RES=127.0.0.1:7447
SINK=127.0.0.1:7448
PROXY=127.0.0.1:7449
FLAGS=(-slaves 3 -min-slaves 3 -rate 600 -window 3s -td 250ms -tr 2500ms
       -duration 12s -warmup 1s -theta 32768 -domain 20000 -workers 2
       -heartbeat 250ms -heartbeat-misses 8 -wire-deadline 5s)

"$WORK/sjoin-chaos" -listen "$PROXY" -target "$CTL" \
  -latency 2ms -jitter 1ms -reset-conn 2 -reset-after 256 \
  2>"$WORK/chaos.log" &
CHAOS=$!
"$WORK/sjoin-collect" -listen "$SINK" -conns 3 -json "$WORK/collect.json" &
COLLECT=$!
"$WORK/sjoin-master" "${FLAGS[@]}" -query "0:hash:tcp:$SINK" -ctl "$CTL" -results "$RES" \
  >"$WORK/master.out" 2>"$WORK/master.log" &
MASTER=$!
sleep 0.5

# Slave 0 joins alone: proxy connection #1 is its control stream and #2 its
# heartbeat stream, which pins the reset to the heartbeat path.
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$PROXY" -results "$RES" &
SLAVE0=$!
sleep 1
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$PROXY" -results "$RES" &
SLAVE1=$!
sleep 0.2
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$PROXY" -results "$RES" &
SLAVE2=$!

wait "$MASTER"
wait "$SLAVE0"
wait "$SLAVE1"
wait "$SLAVE2"
wait "$COLLECT"
kill "$CHAOS" 2>/dev/null || true
wait "$CHAOS" 2>/dev/null || true

echo "--- chaos proxy log ---"
cat "$WORK/chaos.log"
echo "--- master membership log ---"
cat "$WORK/master.log"
echo "--- master summary ---"
cat "$WORK/master.out"

outputs=$(awk '/^outputs:/{print $2}' "$WORK/master.out")
membership=$(awk '/^membership:/{print $2, $4, $6}' "$WORK/master.out")
pairs=$(sed -n 's/^  "pairs": \([0-9][0-9]*\),$/\1/p' "$WORK/collect.json")
group_sum=$(sed -n '/"groups"/,/}/s/[^:]*: \([0-9][0-9]*\),\{0,1\}$/\1/p' "$WORK/collect.json" |
  awk '{s+=$1} END {print s+0}')
seq_dups=$(sed -n 's/^  "seq_dups": \([0-9][0-9]*\)$/\1/p' "$WORK/collect.json")
q0_pairs=$(sed -n '/"queries"/,/}/s/^ *"0": \([0-9][0-9]*\),\{0,1\}$/\1/p' "$WORK/collect.json")
echo "e2e-chaos: master outputs=$outputs collect pairs=$pairs per-group sum=$group_sum query 0=$q0_pairs seq_dups=$seq_dups membership=[$membership]"

# Both injected faults actually happened: latency shaped the control plane,
# and the scheduled reset killed heartbeat connection #2 mid-run.
grep -q 'under latency rule' "$WORK/chaos.log"
grep -q 'reset after 256 bytes' "$WORK/chaos.log"
# Nobody was evicted for it — the heartbeat redial recovered the stream...
test "$membership" = "3 0 0"   # joins leaves evictions
# ...and the output survived exactly: no pair lost, none duplicated.
test -n "$outputs"
test "$outputs" -gt 0
test "$outputs" = "$pairs"
test "$outputs" = "$group_sum"
test "$pairs" = "$q0_pairs"
test "$seq_dups" = "0"
echo "e2e-chaos: OK"
