#!/usr/bin/env bash
# serve_load_smoke -- closed-loop load generator vs a live daemon,
# run by CTest (plain, asan and tsan presets).
#
#   serve_load_smoke.sh <rebudgetd> <rebudgetctl> <rebudgetload>
#
# Part A boots rebudgetd on a Unix socket and drives it with
# rebudgetload in closed-loop mode using a churn-heavy mix (reads,
# demand writes AND join/leave churn on live connections).  The tool
# exits non-zero on any transport error, typed Error reply, or reply
# decode failure, so a clean exit is the assertion.  The JSON report
# is additionally checked for a zero error count and a non-zero op
# count (a generator that silently did nothing must not pass).
#
# Part B repeats a short run in open-loop (fixed-rate) mode.
#
# Part C uses --emit-trace to serialize the same deterministic
# schedule as a replay trace and asserts the daemon's replay digest
# is bit-identical at --jobs 1, --jobs 2 and the hardware default.
#
# Part D exercises rebudgetctl --timeout-ms against the live daemon
# (a sane deadline must not trip on a healthy reply).

set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: serve_load_smoke.sh <rebudgetd> <rebudgetctl>" \
         "<rebudgetload>" >&2
    exit 2
fi
SMOKE_NAME=serve_load_smoke
DAEMON=$1
CTL=$2
LOAD=$3
source "$(dirname "${BASH_SOURCE[0]}")/serve_smoke_lib.sh"

check_report() {
    # $1 = report path, $2 = part label.  The generator already exits
    # non-zero on errors; this guards against a zero-op "success".
    grep -q '"errors": 0' "$1" \
        || fail "$2: report carries a non-zero error count"
    grep -q '"decode_errors": 0' "$1" \
        || fail "$2: report carries reply decode errors"
    # Anchored to the top-level field: a per-class zero (e.g. no churn
    # ops in a churn-free mix) is fine, a zero total is not.
    grep -q '^  "ops": 0,' "$1" \
        && fail "$2: generator completed zero ops"
    return 0
}

start_daemon "" --shards 4 --jobs 2 --tick-ms 5

# ----------------------------------------------------------------
# Part A: closed-loop run with a churn-heavy mix.
# ----------------------------------------------------------------
"$LOAD" --socket "$SOCK" --mode closed --connections 2 --inflight 4 \
    --ops 1500 --markets 8 --players 4 --mix 70:20:10 --seed 42 \
    --out "$TMPDIR_SMOKE/closed.json" \
    || fail "closed-loop run exited non-zero"
check_report "$TMPDIR_SMOKE/closed.json" "closed"
echo "serve_load_smoke: part A (closed loop, churn mix) OK"

# ----------------------------------------------------------------
# Part B: open-loop (fixed-rate) run against the same daemon.  The
# markets already exist, so skip re-creation with --no-setup; the mix
# carries no churn because part A may have ended with its churn
# tenants still joined (each run tracks join state from scratch).
# ----------------------------------------------------------------
"$LOAD" --socket "$SOCK" --mode open --rate 5000 --seconds 1 \
    --connections 2 --markets 8 --players 4 --mix 90:10:0 --seed 7 \
    --no-setup --out "$TMPDIR_SMOKE/open.json" \
    || fail "open-loop run exited non-zero"
check_report "$TMPDIR_SMOKE/open.json" "open"
echo "serve_load_smoke: part B (open loop) OK"

# ----------------------------------------------------------------
# Part D (order: while the daemon is still up): rebudgetctl with a
# reply deadline.  A healthy daemon answers well inside 5 seconds.
# ----------------------------------------------------------------
"$CTL" --socket "$SOCK" --timeout-ms 5000 stats \
    | grep -q "rebudget.serve_stats.v1" \
    || fail "--timeout-ms stats round-trip failed"
echo "serve_load_smoke: part D (ctl --timeout-ms) OK"

"$CTL" --socket "$SOCK" shutdown || fail "shutdown rejected"
await_daemon_exit Shutdown

# ----------------------------------------------------------------
# Part C: emit the deterministic schedule as a replay trace; the
# digest must be identical whatever the worker count.
# ----------------------------------------------------------------
TRACE=$TMPDIR_SMOKE/load_trace.txt
"$LOAD" --socket "$SOCK" --mode closed --connections 2 --ops 400 \
    --markets 4 --players 4 --mix 70:20:10 --seed 42 \
    --emit-trace "$TRACE" || fail "--emit-trace exited non-zero"
[ -s "$TRACE" ] || fail "--emit-trace wrote an empty trace"

check_replay_digests "$TRACE"
echo "serve_load_smoke: part C (trace replay determinism) OK:" \
     "digest $REPLAY_DIGEST"
