#!/usr/bin/env bash
# serve_smoke -- end-to-end check of the serving stack, run by CTest.
#
#   serve_smoke.sh <rebudgetd> <rebudgetctl> <trace>
#
# Part 0 checks that rebudgetctl rejects an out-of-range --port by
# name, without connecting.
#
# Part A drives a live daemon over a Unix-domain socket: create a
# market, tick, read the allocation back, exercise one typed-error
# path, then shut the daemon down cleanly through the protocol.
#
# Part B replays the committed trace at --jobs 1, --jobs 2 and the
# hardware default and asserts all three digests are bit-identical --
# the daemon's determinism contract.

set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: serve_smoke.sh <rebudgetd> <rebudgetctl> <trace>" >&2
    exit 2
fi
SMOKE_NAME=serve_smoke
DAEMON=$1
CTL=$2
TRACE=$3
source "$(dirname "${BASH_SOURCE[0]}")/serve_smoke_lib.sh"

# ----------------------------------------------------------------
# Part 0: --port out of range is a named flag error, before any
# connection attempt.
# ----------------------------------------------------------------
for port in 70000 65536; do
    ERR=$("$CTL" --port "$port" stats 2>&1) && RC=0 || RC=$?
    [ "$RC" -eq 1 ] || fail "--port $port exited $RC, expected 1"
    echo "$ERR" | grep -q "^error: --port: '$port' exceeds the allowed" \
        || fail "--port $port: unexpected message: $ERR"
    if echo "$ERR" | grep -q "connect"; then
        fail "--port $port attempted a connection: $ERR"
    fi
done
echo "serve_smoke: part 0 (--port range) OK"

# ----------------------------------------------------------------
# Part A: live daemon round-trip over a Unix socket.
# ----------------------------------------------------------------
start_daemon "" --shards 4 --jobs 2 --tick-ms 0

"$CTL" --socket "$SOCK" create 42 mcf,vpr,twolf,art \
    || fail "create rejected"
"$CTL" --socket "$SOCK" demand 42 1 2.5 || fail "demand rejected"
"$CTL" --socket "$SOCK" tick || fail "tick rejected"

GET_OUT=$("$CTL" --socket "$SOCK" get 42) || fail "get rejected"
echo "$GET_OUT" | grep -q "market 42" || fail "allocation missing market id"
echo "$GET_OUT" | grep -q "tenant 3" || fail "allocation missing tenant 3"

# Typed-error path: unknown market must fail the client (exit 1) but
# leave the daemon serving.
if "$CTL" --socket "$SOCK" get 999 2>/dev/null; then
    fail "get on unknown market should exit non-zero"
fi
"$CTL" --socket "$SOCK" stats | grep -q "rebudget.serve_stats.v1" \
    || fail "stats reply missing schema tag"

"$CTL" --socket "$SOCK" shutdown || fail "shutdown rejected"
await_daemon_exit Shutdown
echo "serve_smoke: part A (socket round-trip) OK"

# ----------------------------------------------------------------
# Part B: deterministic replay, digest stable across --jobs.
# ----------------------------------------------------------------
check_replay_digests "$TRACE"
echo "serve_smoke: part B (replay determinism) OK: digest $REPLAY_DIGEST"
