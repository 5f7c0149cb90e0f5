#!/usr/bin/env bash
# serve_crash_smoke -- kill -9 torture test of rebudgetd's durability
# layer, run by CTest (plain, asan and tsan presets).
#
#   serve_crash_smoke.sh <rebudgetd> <rebudgetctl> <rebudgetload>
#
# Part A boots rebudgetd with --state-dir, drives it with rebudgetload,
# and kill -9s the daemon mid-load.  The load generator must die with a
# typed transport error (exit code < 128 -- NOT a SIGPIPE signal
# death), and two offline `--verify-state` passes over the survivor
# files must print the same digest (deterministic recovery).
#
# Part B restarts the daemon on the same state directory and asserts
# its recovered digest matches the offline one bit for bit, that a
# GetAllocation on a recovered market answers from the pre-crash
# published state, and that new writes and ticks work post-recovery.
# The daemon is then shut down gracefully via SIGTERM (drain + final
# snapshot) and must exit zero.
#
# Part C injects corruption -- bit flips in the newest snapshot, a
# truncated journal -- and asserts recovery NEVER crashes: every
# --verify-state pass exits zero, degrading to the previous snapshot
# or a cold start with warnings instead.

set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: serve_crash_smoke.sh <rebudgetd> <rebudgetctl>" \
         "<rebudgetload>" >&2
    exit 2
fi
SMOKE_NAME=serve_crash_smoke
DAEMON=$1
CTL=$2
LOAD=$3
source "$(dirname "${BASH_SOURCE[0]}")/serve_smoke_lib.sh"

SHARDS=4
STATE=$TMPDIR_SMOKE/state

start_crash_daemon() {
    # $1 = log file.
    start_daemon "$1" --shards $SHARDS --jobs 2 --tick-ms 5 \
        --state-dir "$STATE" --snapshot-ticks 8 --no-fsync
}

verify_digest() {
    # Offline recovery digest of the state dir (same --shards as the
    # daemon: the digest folds markets in shard order).
    "$DAEMON" --verify-state "$STATE" --shards $SHARDS 2>/dev/null \
        | awk '/^recovered markets/ { print $7 }'
}

# ----------------------------------------------------------------
# Part A: kill -9 mid-load.
# ----------------------------------------------------------------
start_crash_daemon "$TMPDIR_SMOKE/daemon1.log"

# Drive enough ops that the generator is still mid-flight at the kill.
"$LOAD" --socket "$SOCK" --mode closed --connections 2 --inflight 4 \
    --ops 500000 --markets 8 --players 4 --mix 60:30:10 --seed 42 \
    --out "$TMPDIR_SMOKE/load.json" 2>"$TMPDIR_SMOKE/load.err" &
LOAD_PID=$!

# A blind sleep is not enough on a slow or loaded box: the generator
# pre-builds its 500k-op schedule before the setup phase even connects,
# so kill too early and the daemon dies with zero markets -- proving
# nothing.  Poll the daemon's stats until every market exists, then
# give the op mix a moment to land journal records past the snapshot.
MARKETS_UP=0
for _ in $(seq 1 300); do
    # First match only: the stats JSON repeats "markets" per shard.
    N=$("$CTL" --socket "$SOCK" --timeout-ms 2000 stats 2>/dev/null \
        | awk -F'[:,]' '/"markets"/ { gsub(/ /, "", $2); print $2; exit }')
    if [ -n "$N" ] && [ "$N" -ge 8 ]; then
        MARKETS_UP=1
        break
    fi
    kill -0 "$LOAD_PID" 2>/dev/null || break
    sleep 0.1
done
[ "$MARKETS_UP" -eq 1 ] || fail "loadgen never populated its markets"
sleep 1
kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died before the kill"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

LOAD_RC=0
wait "$LOAD_PID" || LOAD_RC=$?
# The generator must notice the dead daemon as a TYPED error: exit
# codes >= 128 mean signal death (SIGPIPE = 141), which the client
# SIGPIPE fix forbids.  rc 0 would mean the run finished early -- then
# the kill was not mid-load and the test proves nothing.
[ "$LOAD_RC" -ne 0 ] || fail "load generator finished before the kill;" \
    "raise --ops"
[ "$LOAD_RC" -lt 128 ] || fail "load generator died of a signal" \
    "(exit $LOAD_RC, expected a typed transport error)"
echo "serve_crash_smoke: part A (kill -9 mid-load," \
     "loadgen exit $LOAD_RC) OK"

# Recovery must be deterministic: two offline passes, one digest.
V1=$(verify_digest)
V2=$(verify_digest)
[ -n "$V1" ] || fail "--verify-state printed no digest"
[ "$V1" = "$V2" ] || fail "offline recovery not deterministic:" \
    "$V1 vs $V2"

# ----------------------------------------------------------------
# Part B: restart, digest match, serve from recovered state.
# ----------------------------------------------------------------
start_crash_daemon "$TMPDIR_SMOKE/daemon2.log"

RECOVERED_LINE=$(grep '^recovered markets' "$TMPDIR_SMOKE/daemon2.log" \
    || true)
[ -n "$RECOVERED_LINE" ] || fail "restarted daemon printed no recovery line"
RD=$(echo "$RECOVERED_LINE" | awk '{ print $7 }')
RM=$(echo "$RECOVERED_LINE" | awk '{ print $3 }')
[ "$RD" = "$V1" ] || fail "recovered digest $RD != offline digest $V1"
[ "$RM" -gt 0 ] || fail "restarted daemon recovered zero markets"

# The pre-crash published allocation must be servable immediately.
GET_OUT=$("$CTL" --socket "$SOCK" get 0) || fail "get on recovered" \
    "market rejected"
echo "$GET_OUT" | grep -q "market 0" || fail "recovered allocation" \
    "missing market id"

# And the daemon must accept new writes and ticks post-recovery.
"$CTL" --socket "$SOCK" create 9000 mcf,vpr || fail "create rejected" \
    "post-recovery"
"$CTL" --socket "$SOCK" tick || fail "tick rejected post-recovery"
"$CTL" --socket "$SOCK" get 9000 >/dev/null || fail "get on new market" \
    "rejected post-recovery"

# Graceful shutdown: SIGTERM drains and writes a final snapshot.
kill -TERM "$DAEMON_PID"
await_daemon_exit SIGTERM

# The final snapshot must cover the post-recovery writes: market 9000
# lives in the recovered image now.
FINAL_MARKETS=$("$DAEMON" --verify-state "$STATE" --shards $SHARDS \
    2>/dev/null | awk '/^recovered markets/ { print $3 }')
[ -n "$FINAL_MARKETS" ] || fail "post-shutdown --verify-state printed" \
    "no recovery line"
[ "$FINAL_MARKETS" -ge 9 ] || fail "final snapshot lost markets" \
    "(recovered $FINAL_MARKETS, expected >= 9)"
echo "serve_crash_smoke: part B (restart digest match, recovered" \
     "serving) OK"

# ----------------------------------------------------------------
# Part C: injected corruption must degrade, never crash.
# ----------------------------------------------------------------
corrupt_check() {
    # $1 = label.  --verify-state must exit zero and still print a
    # recovery line, whatever we did to the files.
    local out
    out=$("$DAEMON" --verify-state "$STATE" --shards $SHARDS 2>&1) \
        || fail "$1: --verify-state crashed (exit $?)"
    echo "$out" | grep -q '^recovered' \
        || fail "$1: no recovery line after corruption"
}

# Bit flips in the newest snapshot of every shard: CRC catches them,
# recovery falls back to .snap.prev (written by the pre-shutdown
# rotation) or a cold start.
for f in "$STATE"/shard-*.snap; do
    [ -f "$f" ] || continue
    printf '\xff\xff\xff\xff' \
        | dd of="$f" bs=1 seek=40 count=4 conv=notrunc 2>/dev/null
done
corrupt_check "bit-flipped snapshots"

# Truncated journals: replay must stop at the tear, keeping the prefix.
for f in "$STATE"/shard-*.journal; do
    [ -f "$f" ] || continue
    SIZE=$(wc -c < "$f")
    [ "$SIZE" -gt 20 ] && truncate -s $((SIZE / 2)) "$f"
done
corrupt_check "truncated journals"

# Scorched earth: zero-length snapshots AND journals -- recovery must
# cold-start cleanly (zero markets is fine; crashing is not).
for f in "$STATE"/shard-*; do
    [ -f "$f" ] && : > "$f"
done
corrupt_check "zeroed state files"
echo "serve_crash_smoke: part C (corruption degrades, never" \
     "crashes) OK"
