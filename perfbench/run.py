#!/usr/bin/env python3
"""The repo benchmark: builds the program, runs one workload, checks its
outputs and prints the metrics.

    python3 perfbench/run.py --workload serve-read|serve-write|eval-sweep|
        sim-epochs|all --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The program is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with its own
CMake package (perfbench/CMakeLists.txt).  With --trace 0 the last line
of standard output is a JSON object holding every end-to-end metric;
with --trace 1 it holds every per-layer metric (see perfbench/README.md
for what each one means and which end-to-end metric it should move).
Lines before it are a record header and a human-readable table.  With
--workload all every workload runs in turn, each printing its own table
and result, and the last line merges them.

Exit status: 0 when the run measured and every output check passed, 1
when a check failed (the result line still prints, with correct=false),
2 when the program could not be built or run (no result line).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-read", "serve-write", "eval-sweep", "sim-epochs")
SERVE = ("serve-read", "serve-write")
SETUP_REPS = 3
# Share of a traced offline run's busy time the layer spans may leave
# unattributed.
ATTRIBUTION_TOLERANCE = 0.05
# Bounded waits.  Everything after the build must end within
# RUN_BUDGET_S, so a hung daemon or workload program fails the run in
# time.
RUN_BUDGET_S = 170
BOOT_TIMEOUT_S = 10
EXIT_TIMEOUT_S = 20
# The daemon: four shards and two tick workers, so the one-thread
# client, the I/O thread and the workers fit in four cores.  serve-read
# ticks every 1 ms.  serve-write ticks every 5 ms: at 1 ms most of a
# write's latency is queueing behind ticks, which swings with the
# machine's speed and hides the write path.  It snapshots about once a
# second.  The in-process replay of traced runs gets the same flags.
DAEMON_FLAGS = {
    "serve-read": ["--shards", "4", "--jobs", "2", "--tick-ms", "1"],
    "serve-write": ["--shards", "4", "--jobs", "2", "--tick-ms", "5",
                    "--snapshot-ticks", "200"],
}
DURABLE_FLAGS = ["--state-dir", "state", "--no-fsync"]

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_us": "us",
    "epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "client.read_p99_us": "us",
    "client.write_p50_us": "us",
    "client.write_p99_us": "us",
    "client.lag_p99_us": "us",
    "failed_frac": "ratio",
    "protocol.encode_ns": "ns",
    "protocol.decode_ns": "ns",
    "transport.read_residual_us": "us",
    "server_core.read_ns": "ns",
    "server_core.read_p99_ns": "ns",
    "server_core.write_sojourn_p50_us": "us",
    "server_core.write_sojourn_p99_us": "us",
    "server_core.pending_ops_max": "count",
    "server_core.tick_p50_ms": "ms",
    "server_core.tick_p99_ms": "ms",
    "persist.journal_p50_ns": "ns",
    "persist.journal_p99_ns": "ns",
    "persist.journal_ops": "count",
    "persist.journal_bytes": "bytes",
    "persist.snapshot_p50_ms": "ms",
    "persist.snapshot_max_ms": "ms",
    "persist.snapshot_bytes": "bytes",
    "tick.solves": "count",
    "tick.sweeps_per_solve": "ratio",
    "tick.failsafe_trips": "count",
    "tick.converged_frac": "ratio",
    "tick.cold_solves": "count",
    "tick.watchdog_trips": "count",
    "tick.fallback_epochs": "count",
    "tick.solve_s": "s",
    "shard.requests_rejected": "count",
    "shard.steady_tick_allocs": "count",
    "market.solves": "count",
    "market.sweeps": "count",
    "market.hill_climb_steps": "count",
    "market.failsafe_trips": "count",
    "market.warm_solves": "count",
    "market.elided_rescales": "count",
    "market.ns_per_sweep": "ns",
    "core.allocate_ms.EqualBudget": "ms",
    "core.allocate_ms.Balanced": "ms",
    "core.allocate_ms.ReBudget-20": "ms",
    "core.allocate_ms.ReBudget-40": "ms",
    "core.budget_rounds": "count",
    "eval.make_problem_ms": "ms",
    "eval.score_ms": "ms",
    "app.catalog_profile_s": "s",
    "sim.self_ms_per_epoch": "ms",
    "sim.solo_calibration_ms": "ms",
    "sim.market_iterations": "count",
    "sim.failed_allocations": "count",
    "sim.fallback_epochs": "count",
    "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
}


class BenchError(Exception):
    """The program could not be built or run; the message says why."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def jobs():
    """Offline worker threads: all CPUs but one, at most four, so the
    pool's slowest worker is not the one the OS preempts."""
    return max(1, min(4, len(os.sched_getaffinity(0)) - 1))


def build():
    for need in ("src/CMakeLists.txt", "tools/rebudgetd.cpp"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} not found under {ROOT}: run from the "
                             "root of a ReBudget checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    (out / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(out / "tmp")
    with open(out / "build.log", "w") as blog:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "-j",
                      str(len(os.sched_getaffinity(0)))])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=blog, stderr=subprocess.STDOUT,
                                timeout=900).returncode
            if rc != 0:
                tail = (out / "build.log").read_text()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    rc = subprocess.run([str(out / "pb_stats_test")], capture_output=True,
                        text=True, timeout=60)
    if rc.returncode != 0:
        raise BenchError("pb_stats_test failed:\n" + rc.stderr)
    return out


# --- record header -----------------------------------------------------

def record_header(args, out):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith("//"):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]))
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "tools", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".txt",
                                                   ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "kernel": platform.release(), "build_type": build_type,
        "cxx_flags": flags, "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "commit": commit, "source_sha256": digest.hexdigest()[:16],
    }


# --- processes ---------------------------------------------------------

def cpu_split():
    """(daemon CPUs, client CPUs): the one-thread client gets a CPU of
    its own so it never preempts the daemon's I/O thread or workers.
    None when there are too few CPUs to split."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return set(cpus[:-1]), {cpus[-1]}


def pinned(cpus):
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


_deadline = None


def start_clock():
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S


def remaining():
    left = _deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run took longer than {RUN_BUDGET_S} s")
    return left


def run_json(cmd, cwd, what, cpus=None):
    """Run a workload program, return its last stdout line parsed as
    JSON."""
    timeout = remaining()
    try:
        r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                           timeout=timeout, preexec_fn=pinned(cpus))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what}: no result within {timeout:.0f} s (hung)")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError(f"{what} exited with {r.returncode}: "
                         f"{r.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def vm_hwm_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("daemon has no VmHWM")


class Daemon:
    """One rebudgetd on a fresh socket and state dir, with bounded boot
    and exit waits.  Use as a context manager: it is always stopped."""

    def __init__(self, binary, rundir, flags):
        self.rundir = rundir
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        cmd = [str(binary), "--socket", "d.sock", *flags]
        self.log = open(rundir / "daemon.log", "w")
        self.spawned_ns = time.monotonic_ns()
        split = cpu_split()
        self.proc = subprocess.Popen(cmd, cwd=rundir, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     preexec_fn=pinned(split and split[0]))
        deadline = time.monotonic() + min(BOOT_TIMEOUT_S, remaining())
        while not (rundir / "d.sock").exists():
            if self.proc.poll() is not None:
                raise BenchError(f"daemon died at boot with code "
                                 f"{self.proc.returncode}: {self.tail()}")
            if time.monotonic() > deadline:
                raise BenchError(f"daemon did not listen within "
                                 f"{BOOT_TIMEOUT_S} s")
            time.sleep(0.002)

    def tail(self):
        self.log.flush()
        return (self.rundir / "daemon.log").read_text()[-1000:]

    def alive(self):
        if self.proc.poll() is not None:
            raise BenchError(f"daemon died with code {self.proc.returncode}:"
                             f" {self.tail()}")

    def stop(self):
        """SIGTERM, then wait; a daemon that does not drain and exit 0
        in time fails the run."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError(f"daemon did not exit within "
                                 f"{EXIT_TIMEOUT_S} s of SIGTERM")
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited with code "
                             f"{self.proc.returncode}: {self.tail()}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        return False


# --- workloads ---------------------------------------------------------

def run_offline(args, out):
    program = [str(out / "pb_offline"), "--workload", args.workload,
              "--jobs", str(jobs())]
    setups = [run_json(program + ["--setup-only"], ROOT,
                       "pb_offline set-up")["setup_s"]
              for _ in range(SETUP_REPS - 1)]
    r = run_json(program + ["--seed", str(args.seed), "--seconds",
                           str(args.seconds), "--trace", str(args.trace)],
                 ROOT, "pb_offline")
    setups.append(r["setup_s"])
    ok = r["correct"] and r["failed"] == 0
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": r["ops_per_s"],
        "p50_us": r["p50_us"],
        "epochs_per_s": r["epochs_per_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    layers = {k: v for k, v in r.items() if k in PER_LAYER}
    layers["failed_frac"] = r["failed_frac"]
    if args.trace:
        # Accounting: the benchmark's own glue (the root span's self
        # time) may hide at most ATTRIBUTION_TOLERANCE of the busy time.
        attributed = r["trace.attributed_frac"]
        if attributed < 1.0 - ATTRIBUTION_TOLERANCE:
            ok = False
            r["check_errors"] = "; ".join(filter(None, [
                r["check_errors"], f"layer self times cover only "
                f"{attributed:.3f} of busy time"]))
    samples = {"setup_s": len(setups), "p50_us": r["samples"],
               "ops_per_s": r["rate_samples"],
               "epochs_per_s": r["rate_samples"], "peak_rss_mb": 1}
    return ok, r["attempted"], r["failed"], e2e, layers, samples, {
        "digest": r["digest"], "check_errors": r["check_errors"]}


def run_serve(args, out):
    runs = build_dir() / "runs"
    durable = args.workload == "serve-write"
    flags = DAEMON_FLAGS[args.workload] + (DURABLE_FLAGS if durable else [])
    client = [str(out / "pb_serve"), "--socket", "d.sock", "--workload",
              args.workload, "--seed", str(args.seed)]
    split = cpu_split()
    client_cpus = split and split[1]
    setups = []
    for rep in range(SETUP_REPS):
        rundir = runs / f"{args.workload}-{os.getpid()}-{rep}"
        last = rep == SETUP_REPS - 1
        with Daemon(out / "rebudgetd", rundir, flags) as d:
            if not last:
                r = run_json(client + ["--setup-only"], rundir,
                             "pb_serve set-up", client_cpus)
                setups.append((r["setup_done_ns"] - d.spawned_ns) / 1e9)
                d.stop()
                shutil.rmtree(rundir, ignore_errors=True)
                continue
            seconds = args.seconds
            if args.trace:
                seconds = args.seconds * 2 / 3
            r = run_json(client + ["--seconds", str(seconds), "--trace",
                                   str(args.trace)], rundir, "pb_serve",
                         client_cpus)
            d.alive()
            rss = vm_hwm_mb(d.proc.pid)
            d.stop()
        setups.append((r["setup_done_ns"] - d.spawned_ns) / 1e9)
        inproc = None
        if args.trace:
            cmd = [str(out / "pb_serve"), "--inproc", "--workload",
                   args.workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds / 3), *DAEMON_FLAGS[args.workload]]
            if durable:
                cmd += ["--state-dir", "inproc-state"]
            inproc = run_json(cmd, rundir, "pb_serve --inproc")
        shutil.rmtree(rundir, ignore_errors=True)

    ok = r["failed"] == 0
    read_n = r["read_us_n"]
    write_n = r["write_us_n"]
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": r.get("closed_ops_per_s", 0.0),
        "p50_us": r.get("read_us_windowed_p50" if args.workload ==
                        "serve-read" else "write_us_windowed_p50", 0.0),
        "epochs_per_s": r.get("ticks_per_s", 0.0),
        "peak_rss_mb": rss,
    }
    layers = {
        "client.read_p99_us": r["read_us_p99"],
        "client.write_p50_us": r["write_us_p50"],
        "client.write_p99_us": r["write_us_p99"],
        "client.lag_p99_us": r["lag_us_p99"],
        "failed_frac": r["failed_frac"],
    }
    if inproc is not None:
        ok = ok and inproc["errors"] == 0 and inproc["unanswered"] == 0
        d = {k[len("traced."):]: v for k, v in r.items()
             if k.startswith("traced.")}
        solves = d["equilibrium_solves"]
        layers.update({
            "protocol.encode_ns": r["encode_ns_p50"],
            "protocol.decode_ns": r["decode_ns_p50"],
            "transport.read_residual_us":
                r["read_us_p50"] - inproc["read_ns_p50"] / 1e3
                - (r["encode_ns_p50"] + r["decode_ns_p50"]) / 1e3,
            "server_core.read_ns": inproc["read_ns_p50"],
            "server_core.read_p99_ns": inproc["read_ns_p99"],
            "server_core.write_sojourn_p50_us": inproc["sojourn_us_p50"],
            "server_core.write_sojourn_p99_us": inproc["sojourn_us_p99"],
            "server_core.pending_ops_max": inproc["pending_ops_max"],
            "server_core.tick_p50_ms": inproc["tick_ms_p50"],
            "server_core.tick_p99_ms": inproc["tick_ms_p99"],
            "tick.solves": solves,
            "tick.sweeps_per_solve":
                d["sweep_iterations"] / solves if solves else 0.0,
            "tick.failsafe_trips": d["fail_safe_trips"],
            "tick.converged_frac":
                1.0 - d["fail_safe_trips"] / solves if solves else 0.0,
            "tick.cold_solves": d["cold_started_solves"],
            "tick.watchdog_trips": d["watchdog_trips"],
            "tick.fallback_epochs": d["fallback_epochs"],
            "tick.solve_s": d["solve_seconds"],
            "shard.requests_rejected": d["requests_rejected"],
            "shard.steady_tick_allocs": inproc["steady_tick_allocs"],
            "trace.overhead_frac":
                r["traced_read_us_p50"] / r["read_us_p50"] - 1.0,
        })
        if durable:
            layers.update({
                "persist.journal_p50_ns": inproc["journal_ns_p50"],
                "persist.journal_p99_ns": inproc["journal_ns_p99"],
                "persist.journal_ops": inproc["journal_ops"],
                "persist.journal_bytes": inproc["journal_bytes"],
                "persist.snapshot_p50_ms": inproc["snapshot_p50_ms"],
                "persist.snapshot_max_ms": inproc["snapshot_max_ms"],
                "persist.snapshot_bytes": inproc["snapshot_bytes"],
            })
    windows = r.get("windows", 0)
    samples = {"setup_s": len(setups), "ops_per_s": r.get("closed_windows"),
               "p50_us": f"{windows} windows of "
               f"{read_n if args.workload == 'serve-read' else write_n}",
               "epochs_per_s": f"{windows} windows", "peak_rss_mb": 1}
    checks = {"first_failure": r["first_failure"]}
    if not args.trace:
        # The daemon's own counters per phase (GetStats deltas), and the
        # tick rate while the closed loop saturates the I/O thread.
        checks["daemon"] = {k: v for k, v in r.items()
                            if k.startswith(("open.", "closed."))}
        checks["closed_ticks_per_s"] = r["closed_ticks_per_s"]
    if inproc is not None:
        checks.update({f"inproc_{k}": inproc[k] for k in (
            "fail_safe_trips", "fallback_epochs", "steady_ticks")})
    return ok, r["attempted"], r["failed"], e2e, layers, samples, checks


# --- main --------------------------------------------------------------

def run_workload(args, out):
    """Run one workload, print its record, checks and metric table;
    return the result object."""
    start_clock()
    print("# record " + json.dumps(record_header(args, out)), flush=True)
    runner = run_serve if args.workload in SERVE else run_offline
    ok, attempted, failed, e2e, layers, samples, checks = runner(args, out)
    print("# checks " + json.dumps(checks), flush=True)
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {}
    for name, unit in chosen.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        n = samples.get(name)
        print(f"# {name:34s} {value:16.6f} {unit:6s}"
              + (f" n={n}" if n else ""), flush=True)
    print(f"# failed {failed} of {attempted} attempted ops", flush=True)
    return {"correct": bool(ok), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    try:
        out = build()
        if args.workload != "all":
            result = run_workload(args, out)
        else:
            # Every workload in turn; the result line merges them with
            # the metric names prefixed by the workload.
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for workload in WORKLOADS:
                one = run_workload(argparse.Namespace(**{
                    **vars(args), "workload": workload}), out)
                print("# result " + json.dumps(one), flush=True)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, m in one["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = m
    except BenchError as e:
        log(str(e))
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
