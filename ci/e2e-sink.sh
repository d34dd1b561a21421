#!/usr/bin/env bash
# End-to-end socket-sink check: a full TCP cluster — master, two slaves, and
# the sjoin-collect downstream consumer — over loopback, with the race
# detector on. Two topologies run back to back:
#
#   1. Single query: every slave dials the consumer directly
#      (-sink tcp:...) and ships its materialized join pairs as wire
#      PairBatch frames; the check asserts the consumer's pair total equals
#      the master's result summary exactly (the per-group counts in
#      collect.json sum to the same figure).
#   2. Two queries (-query 0:hash:... -query 1:scan:...) over one shared
#      window set: the master announces the query set over the control
#      handshake (the slaves take no sink flags at all), both queries
#      multiplex onto one consumer connection per slave, and the check
#      asserts each query's collected pair count equals its own line in the
#      master summary — and that the hash and scan queries agree exactly.
#
# Usage: ci/e2e-sink.sh            (race detector on; RACE= to disable)
set -euo pipefail
cd "$(dirname "$0")/.."

RACE="${RACE---race}"
WORK="$(mktemp -d)"
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build ${RACE:+"$RACE"} -o "$WORK" ./cmd/sjoin-master ./cmd/sjoin-slave ./cmd/sjoin-collect

CTL=127.0.0.1:7400
RES=127.0.0.1:7401
SINK=127.0.0.1:7402
FLAGS=(-slaves 2 -rate 600 -window 3s -td 250ms -tr 2500ms
       -duration 6s -warmup 1s -theta 32768 -domain 20000 -workers 2)

"$WORK/sjoin-collect" -listen "$SINK" -conns 2 -json "$WORK/collect.json" &
COLLECT=$!
"$WORK/sjoin-master" "${FLAGS[@]}" -ctl "$CTL" -results "$RES" >"$WORK/master.out" &
MASTER=$!
sleep 0.5
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$CTL" -results "$RES" -sink "tcp:$SINK" &
SLAVE0=$!
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$CTL" -results "$RES" -sink "tcp:$SINK" &
SLAVE1=$!

wait "$MASTER"
wait "$SLAVE0"
wait "$SLAVE1"
wait "$COLLECT"

cat "$WORK/master.out"
outputs=$(awk '/^outputs:/{print $2}' "$WORK/master.out")
pairs=$(sed -n 's/^  "pairs": \([0-9][0-9]*\),$/\1/p' "$WORK/collect.json")
group_sum=$(sed -n '/"groups"/,/}/s/[^:]*: \([0-9][0-9]*\),\{0,1\}$/\1/p' "$WORK/collect.json" |
  awk '{s+=$1} END {print s+0}')
echo "e2e-sink: master outputs=$outputs collect pairs=$pairs per-group sum=$group_sum"

test -n "$outputs"
test "$outputs" -gt 0
test "$outputs" = "$pairs"
test "$outputs" = "$group_sum"
echo "e2e-sink: single-query OK"

# --- Two queries over one shared window set -------------------------------
# Fresh ports so lingering sockets from run 1 can't interfere. The slaves
# get no sink or query flags: the master's QuerySet handshake is the single
# source of truth for what runs where.
CTL=127.0.0.1:7420
RES=127.0.0.1:7421
SINK=127.0.0.1:7422
QUERIES=(-query "0:hash:tcp:$SINK" -query "1:scan:tcp:$SINK")

"$WORK/sjoin-collect" -listen "$SINK" -conns 2 -json "$WORK/collect2.json" &
COLLECT=$!
"$WORK/sjoin-master" "${FLAGS[@]}" "${QUERIES[@]}" -ctl "$CTL" -results "$RES" >"$WORK/master2.out" &
MASTER=$!
sleep 0.5
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$CTL" -results "$RES" &
SLAVE0=$!
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$CTL" -results "$RES" &
SLAVE1=$!

wait "$MASTER"
wait "$SLAVE0"
wait "$SLAVE1"
wait "$COLLECT"

cat "$WORK/master2.out"
outputs=$(awk '/^outputs:/{print $2}' "$WORK/master2.out")
q0_out=$(awk '/^query 0 outputs:/{print $4}' "$WORK/master2.out")
q1_out=$(awk '/^query 1 outputs:/{print $4}' "$WORK/master2.out")
pairs=$(sed -n 's/^  "pairs": \([0-9][0-9]*\),$/\1/p' "$WORK/collect2.json")
q0_pairs=$(sed -n '/"queries"/,/}/s/^ *"0": \([0-9][0-9]*\),\{0,1\}$/\1/p' "$WORK/collect2.json")
q1_pairs=$(sed -n '/"queries"/,/}/s/^ *"1": \([0-9][0-9]*\),\{0,1\}$/\1/p' "$WORK/collect2.json")
echo "e2e-sink: master q0=$q0_out q1=$q1_out total=$outputs; collect q0=$q0_pairs q1=$q1_pairs total=$pairs"

# Each query's collected pairs match its master summary line; the two
# queries — one hash-indexed, one scanning — agree on the join output; and
# the totals tie out.
test -n "$q0_out"
test "$q0_out" -gt 0
test "$q0_out" = "$q0_pairs"
test "$q1_out" = "$q1_pairs"
test "$q0_out" = "$q1_out"
test "$outputs" = "$pairs"
echo "e2e-sink: OK"
