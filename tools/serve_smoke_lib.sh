# serve_smoke_lib -- shared harness of the serve smoke scripts.
#
# Source it after setting SMOKE_NAME (the prefix of FAIL lines) and
# DAEMON (the rebudgetd binary):
#
#   SMOKE_NAME=serve_smoke DAEMON=$1
#   source "$(dirname "${BASH_SOURCE[0]}")/serve_smoke_lib.sh"
#
# It creates $TMPDIR_SMOKE with $SOCK inside it and installs an EXIT
# trap that stops a still-running daemon (bounded: SIGTERM, five
# seconds to drain, then SIGKILL) and removes the directory.

TMPDIR_SMOKE=$(mktemp -d)
SOCK=$TMPDIR_SMOKE/rebudget.sock
DAEMON_PID=""

cleanup() {
    # Bounded: the cleanup path must never hang the test run.
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        for _ in $(seq 1 50); do
            kill -0 "$DAEMON_PID" 2>/dev/null || break
            sleep 0.1
        done
        kill -9 "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$TMPDIR_SMOKE"
}
trap cleanup EXIT

fail() {
    echo "$SMOKE_NAME: FAIL: $*" >&2
    exit 1
}

# start_daemon LOG [ARGS...] -- boot $DAEMON on $SOCK with ARGS, its
# output to LOG (empty: inherit), and wait until the socket exists.
start_daemon() {
    local log=$1
    shift
    # A stale socket file from a crashed previous run would make the
    # "daemon is up" probe below pass before bind(); clear it first.
    rm -f "$SOCK"
    if [ -n "$log" ]; then
        "$DAEMON" --socket "$SOCK" "$@" > "$log" 2>&1 &
    else
        "$DAEMON" --socket "$SOCK" "$@" &
    fi
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited early"
        sleep 0.1
    done
    [ -S "$SOCK" ] || fail "daemon never created $SOCK"
}

# await_daemon_exit WHAT -- after a Shutdown request or a SIGTERM
# (WHAT names it), the daemon must exit zero within ten seconds.
await_daemon_exit() {
    local waited=0
    while kill -0 "$DAEMON_PID" 2>/dev/null; do
        waited=$((waited + 1))
        [ "$waited" -le 100 ] || fail "daemon ignored $1"
        sleep 0.1
    done
    wait "$DAEMON_PID" || fail "daemon exited non-zero after $1"
    DAEMON_PID=""
}

# check_replay_digests TRACE -- replay TRACE at --jobs 1, 2 and the
# hardware default; all three digests must match.  Sets REPLAY_DIGEST.
check_replay_digests() {
    local d1 d2 dhw
    d1=$("$DAEMON" --replay "$1" --shards 4 --jobs 1 \
        | awk '/^digest/ { print $2 }')
    d2=$("$DAEMON" --replay "$1" --shards 4 --jobs 2 \
        | awk '/^digest/ { print $2 }')
    dhw=$("$DAEMON" --replay "$1" --shards 4 \
        | awk '/^digest/ { print $2 }')
    [ -n "$d1" ] || fail "replay printed no digest"
    [ "$d1" = "$d2" ] || fail "digest differs --jobs 1 ($d1) vs 2 ($d2)"
    [ "$d1" = "$dhw" ] || fail "digest differs --jobs 1 ($d1) vs hw ($dhw)"
    REPLAY_DIGEST=$d1
}
