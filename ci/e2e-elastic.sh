#!/usr/bin/env bash
# End-to-end elastic-membership checks against a live TCP cluster with
# sjoin-collect attached downstream and the race detector on. In both
# scenarios the master declares the pair sink (-query 0:hash:tcp:...); the
# slaves, joiners included, take no sink flag and learn it from the master's
# join handshake.
#
# Scenario A — lossless transitions (join rebalance + graceful leave):
#   t≈0s   master starts elastic (-min-slaves 2 -slaves 3); two slaves dial
#          in with -join and form the cluster
#   t≈3s   a third slave dials in mid-run; the master admits it and peels
#          partition-groups toward it at the next reorganization boundary
#   t≈6s   the first slave gets SIGTERM: a graceful leave — its groups drain
#          to the survivors through the ordinary state-movement path, then
#          the master releases it and the process exits cleanly
#   t≈14s  the run ends; every surviving process shuts down
#
# Because both transitions move state losslessly (join rebalance and
# graceful-leave drain, no crash), the downstream consumer must have seen
# exactly the master's result summary: collect pair total == master outputs
# == per-group sum, with zero emission-sequence regressions (seq_dups). The
# master's membership counters must read 3 joins / 1 leave / 0 evictions,
# and its log must show the activation and the release.
#
# Scenario B — crash scale-in under buddy replication (-replicate):
#   t≈0s   master starts with -min-slaves 3 -replicate; three slaves form
#          the cluster and chain-replicate their windows to their buddies
#   t≈5s   the first slave gets SIGKILL — a real crash, nothing flushed on
#          the way out. The master evicts it and promotes its groups from
#          the buddy's replicas instead of re-adopting them empty
#   t≈8s   a replacement slave joins, recycling the dead slot; its sink's
#          emission sequence restarts, which the collector must surface as
#          seq_dups regressions (the operator's dedup signal)
#   t≈16s  the run ends
#
# The per-epoch sink delivery barrier of the replicating slave guarantees
# that every pair the master's summary accounts was already in the kernel's
# hands when the process died: collect pair total >= master outputs, even
# through SIGKILL. The eviction must promote (not adopt) the dead slave's
# groups, membership must read 4 joins / 0 leaves / 1 eviction, and
# seq_dups must be > 0 — the slot recycle exercised the dedup signal.
#
# Usage: ci/e2e-elastic.sh            (race detector on; RACE= to disable)
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

CTL=127.0.0.1:7440
RES=127.0.0.1:7441
SINK=127.0.0.1:7442
FLAGS=(-slaves 3 -min-slaves 2 -rate 600 -window 3s -td 250ms -tr 2500ms
       -duration 14s -warmup 1s -theta 32768 -domain 20000 -workers 2)

"$WORK/sjoin-collect" -listen "$SINK" -conns 3 -json "$WORK/collect.json" &
COLLECT=$!
"$WORK/sjoin-master" "${FLAGS[@]}" -query "0:hash:tcp:$SINK" -ctl "$CTL" -results "$RES" \
  >"$WORK/master.out" 2>"$WORK/master.log" &
MASTER=$!
sleep 0.5

# Initial cluster: two slaves join; the master assigns ids 0 and 1 and
# starts the epoch schedule.
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$CTL" -results "$RES" &
SLAVE0=$!
sleep 0.2   # deterministic id order (0 before 1) keeps the kill target fixed
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$CTL" -results "$RES" &
SLAVE1=$!

# Scale out: a third slave dials into the live run (assigned id 2).
sleep 3
"$WORK/sjoin-slave" "${FLAGS[@]}" -join "$CTL" -results "$RES" &
SLAVE2=$!

# Scale in: SIGTERM asks slave 0 for a graceful leave; the master drains its
# groups to the survivors and releases it well before the run ends.
sleep 3
kill -TERM "$SLAVE0"

wait "$MASTER"
wait "$SLAVE0"
wait "$SLAVE1"
wait "$SLAVE2"
wait "$COLLECT"

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
echo "e2e-elastic: master outputs=$outputs collect pairs=$pairs per-group sum=$group_sum query 0=$q0_pairs seq_dups=$seq_dups membership=[$membership]"

# Both membership transitions actually happened...
grep -q 'membership: activating slave 2' "$WORK/master.log"
grep -q 'membership: slave 0 left gracefully' "$WORK/master.log"
test "$membership" = "3 1 0"   # joins leaves evictions
# ...and the output survived them exactly: no pair lost, none duplicated.
test -n "$outputs"
test "$outputs" -gt 0
test "$outputs" = "$pairs"
test "$outputs" = "$group_sum"
test "$pairs" = "$q0_pairs"
test "$seq_dups" = "0"
echo "e2e-elastic scenario A: OK"

# --- Scenario B: crash scale-in (SIGKILL) under buddy replication -----------

CTL=127.0.0.1:7443
RES=127.0.0.1:7444
SINK=127.0.0.1:7445
BFLAGS=(-slaves 3 -min-slaves 3 -replicate -rate 600 -window 3s -td 250ms
        -tr 2500ms -duration 16s -warmup 1s -theta 32768 -domain 20000 -workers 2)

"$WORK/sjoin-collect" -listen "$SINK" -conns 4 -json "$WORK/collect-b.json" \
  2>"$WORK/collect-b.log" &
COLLECTB=$!
"$WORK/sjoin-master" "${BFLAGS[@]}" -query "0:hash:tcp:$SINK" -ctl "$CTL" -results "$RES" \
  >"$WORK/master-b.out" 2>"$WORK/master-b.log" &
MASTERB=$!
sleep 0.5

# Initial cluster: three slaves; the first is the crash victim.
"$WORK/sjoin-slave" "${BFLAGS[@]}" -join "$CTL" -results "$RES" &
VICTIM=$!
sleep 0.2   # deterministic id order keeps the kill target at slot 0
"$WORK/sjoin-slave" "${BFLAGS[@]}" -join "$CTL" -results "$RES" &
SLAVEB1=$!
sleep 0.2
"$WORK/sjoin-slave" "${BFLAGS[@]}" -join "$CTL" -results "$RES" &
SLAVEB2=$!

# Crash: SIGKILL gives the victim no chance to flush anything. The master
# must evict it and promote its groups from the buddy's replicas.
sleep 5
kill -9 "$VICTIM"

# Replacement: joins the live run, recycling the drained dead slot. Its sink
# restarts the emission sequence for slot 0, so the collector's seq_dups
# dedup signal must fire once it regains groups the victim emitted for.
sleep 3
"$WORK/sjoin-slave" "${BFLAGS[@]}" -join "$CTL" -results "$RES" &
SLAVEB3=$!

wait "$MASTERB"
wait "$VICTIM" || true   # killed: nonzero by design
wait "$SLAVEB1"
wait "$SLAVEB2"
wait "$SLAVEB3"
wait "$COLLECTB"

echo "--- scenario B master membership log ---"
cat "$WORK/master-b.log"
echo "--- scenario B master summary ---"
cat "$WORK/master-b.out"

outputs_b=$(awk '/^outputs:/{print $2}' "$WORK/master-b.out")
membership_b=$(awk '/^membership:/{print $2, $4, $6}' "$WORK/master-b.out")
promoted_b=$(awk '/^promoted:/{print $2}' "$WORK/master-b.out")
pairs_b=$(sed -n 's/^  "pairs": \([0-9][0-9]*\),$/\1/p' "$WORK/collect-b.json")
group_sum_b=$(sed -n '/"groups"/,/}/s/[^:]*: \([0-9][0-9]*\),\{0,1\}$/\1/p' "$WORK/collect-b.json" |
  awk '{s+=$1} END {print s+0}')
seq_dups_b=$(sed -n 's/^  "seq_dups": \([0-9][0-9]*\)$/\1/p' "$WORK/collect-b.json")
q0_pairs_b=$(sed -n '/"queries"/,/}/s/^ *"0": \([0-9][0-9]*\),\{0,1\}$/\1/p' "$WORK/collect-b.json")
echo "e2e-elastic B: master outputs=$outputs_b collect pairs=$pairs_b per-group sum=$group_sum_b query 0=$q0_pairs_b seq_dups=$seq_dups_b promoted=$promoted_b membership=[$membership_b]"

# The crash was detected, the windows were promoted (not re-adopted empty),
# and the replacement joined the recycled slot.
grep -q 'membership: slave 0 dead' "$WORK/master-b.log"
test "$membership_b" = "4 0 1"   # joins leaves evictions
test -n "$promoted_b"
test "$promoted_b" -gt 0
# Delivery barrier through SIGKILL: every pair the master accounted was in
# the kernel's hands before the crash — the collector can only hold more
# (pairs produced after the victim's last accounting flush), never less.
test -n "$outputs_b"
test "$outputs_b" -gt 0
test "$pairs_b" -ge "$outputs_b"
test "$group_sum_b" = "$pairs_b"
test "$pairs_b" = "$q0_pairs_b"
# The recycled slot restarted its emission sequence: the dedup signal fired.
test "$seq_dups_b" -gt 0
echo "e2e-elastic scenario B: OK"
