#!/usr/bin/env python3
"""Host-cost benchmark for the VODSM simulator.

Builds the benchmark package (perfbench_driver plus the real table_suite and
bench_diff) from this checkout's sources, runs one workload for a fixed time
in fresh processes, checks every simulated result, and prints each metric by
name with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload is_vcsd_128p --seed 0 --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from one untraced pass and one traced probe, plus the trace overhead
against the untraced pass. Workloads, metrics and the layer-to-metric map
are in perfbench/README.md.
"""
import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
DRIVER = os.path.join(BUILD, "perfbench_driver")
TABLE_SUITE = os.path.join(BUILD, "table_suite")
BENCH_DIFF = os.path.join(BUILD, "bench_diff")
TARGETS = ("perfbench_driver", "table_suite", "bench_diff")

# Sources the package builds from; without them there is nothing to measure.
REQUIRED = ("src/CMakeLists.txt", "bench/tables.cpp", "bench/table_suite.cpp",
            "bench/bench_diff.cpp", "bench/profiles", "BENCH_tables.json",
            "BENCH_scaling.json")
# paper_tables runs at 2 jobs: at 4 jobs its wall time and peak RSS both
# widen with which large cells happen to overlap.
SUITE_JOBS = 2
# Set-up takes a few milliseconds and follows the host's state, which
# drifts within a run. Before each pass this many processes are started and
# killed once set-up is done; the median over all of them is reported.
SETUP_SAMPLES_PER_PASS = 25
# Each pass is a fresh process (peak RSS is per process); at least this
# many passes run, even past --seconds, so the medians have a middle.
MIN_PASSES = 2
# Children get the engine's default serial schedule and run.py's own job
# count: the environment may not override either.
ENV = {k: v for k, v in os.environ.items()
       if k not in ("VODSM_JOBS", "VODSM_SIM_THREADS")}
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
         "sim_msgs_per_host_s": "1/s"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the package; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
           "--target"] + list(TARGETS)
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def pin(ncpus):
    """Pins run.py, and so every child it spawns, to the last `ncpus`
    CPUs it may use, so passes do not migrate between cores."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[-ncpus:])


class Workload:
    """How one workload's passes are started and read back."""

    def __init__(self, args):
        self.name = args.workload
        self.seed = args.seed
        os.makedirs(OUT, exist_ok=True)
        self.out = os.path.join(OUT, self.name)
        os.makedirs(self.out, exist_ok=True)
        if self.name == "is_vcsd_128p":
            self.jobs = 1
            self.marker = b"perfbench_driver: setup done"
            self.cmd = self.driver_cmd("is", args.seed, trace=False)
        else:
            self.jobs = SUITE_JOBS
            self.marker = b" cells across "
            self.fresh = os.path.join(self.out, "fresh_tables.json")
            self.profiles = os.path.join(self.out, "fresh_profiles")
            # bench_regression_gate's table_suite command, at SUITE_JOBS.
            self.cmd = [TABLE_SUITE, "--jobs=%d" % SUITE_JOBS,
                        "--json=" + self.fresh, "--profiles=" + self.profiles]

    def driver_cmd(self, probe, seed, trace):
        return [DRIVER, "--probe=" + probe, "--seed=%d" % seed,
                "--trace=%d" % int(trace), "--root=" + ROOT,
                "--out=" + self.out]


def setup_sample(wl):
    """Seconds from spawn until the process says its first cell is about to
    begin; the process is then killed. None if it exits first."""
    r, w = os.pipe()
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_DUP2, w, 2)]
    t0 = time.monotonic_ns()
    pid = os.posix_spawn(wl.cmd[0], wl.cmd, ENV, file_actions=actions)
    os.close(w)
    seen = b""
    took = None
    while True:
        chunk = os.read(r, 4096)
        if not chunk:
            break
        seen += chunk
        if wl.marker in seen:
            took = (time.monotonic_ns() - t0) * 1e-9
            break
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    os.close(r)
    if took is None:
        log("perfbench: set-up of %s ended early: %s"
            % (wl.cmd[0], seen.decode(errors="replace").strip()))
    return took


def run_process(cmd, stdout_path):
    """Runs one timed process with stdout to a file; returns (exit code,
    wall seconds, rusage)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    t0 = time.monotonic_ns()
    pid = os.posix_spawn(cmd[0], cmd, ENV, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = (time.monotonic_ns() - t0) * 1e-9
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        log("perfbench: exit %d from %s" % (code, " ".join(cmd)))
    return code, wall, usage


def read_json(path):
    with open(path) as f:
        return json.load(f)


def suite_failures(wl, cells):
    """bench_diff over the fresh record, as the gate runs it, with host
    timings never failing (the benchmark reports them instead). Returns the
    number of failed cells."""
    cmd = [BENCH_DIFF, "--host-floor-seconds=1e9",
           "--explain=%s,%s" % (os.path.join(ROOT, "bench", "profiles"),
                                wl.profiles),
           os.path.join(ROOT, "BENCH_tables.json"), wl.fresh]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV)
    if p.returncode == 0:
        return 0
    log(p.stdout)
    m = re.search(r"explaining (\d+) drifted cell", p.stdout)
    # Drift outside any cell (the suite header) fails every cell.
    return int(m.group(1)) if m and int(m.group(1)) > 0 else len(cells)


class Tally:
    """Cells attempted and failed over every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def untraced_pass(wl, tally):
    """One pass of the workload; returns its figures, or None if the
    process failed or any cell's output was wrong."""
    stdout_path = os.path.join(wl.out, "stdout.txt")
    code, wall, usage = run_process(wl.cmd, stdout_path)
    if code != 0:
        tally.add(1, 1)
        return None
    if wl.jobs == 1:
        doc = read_json(stdout_path)
        for why in doc["failures"]:
            log("perfbench: FAILED " + why)
        failed = doc["cells_failed"]
        cells = [doc["cell_host_s"]]
        msgs = doc["sim_messages"]
    else:
        doc = read_json(wl.fresh)
        cell_docs = [c for t in doc["tables"] for c in t["cells"]]
        failed = suite_failures(wl, cell_docs)
        cells = [c["host_seconds"] for c in cell_docs]
        msgs = sum(c["messages"] for c in cell_docs)
    tally.add(len(cells), failed)
    if failed:
        return None
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is KiB
        "sim_msgs_per_host_s": msgs / sum(cells),
        "cells": cells,
    }


def host_provenance(jobs):
    """Cores, compiler and build type from the driver (which refuses a
    sanitizer or assertion build, and table_suite shares its flags), plus
    the job count. None if the build may not be timed."""
    p = subprocess.run([DRIVER, "--host"], stdout=subprocess.PIPE, env=ENV)
    if p.returncode != 0:
        return None
    host = json.loads(p.stdout)
    host["jobs"] = jobs
    return host


def print_host(host):
    print("host: %d cores, %s, %s build, %d jobs"
          % (host["cores"], host["compiler"], host["build_type"],
             host["jobs"]))


def end_to_end(args, wl, tally):
    setups = []
    passes = []
    start = time.monotonic()
    while True:
        for _ in range(SETUP_SAMPLES_PER_PASS):
            s = setup_sample(wl)
            if s is None:
                tally.add(1, 1)
                return None
            setups.append(s)
        p = untraced_pass(wl, tally)
        if p is None:
            return None
        passes.append(p)
        elapsed = time.monotonic() - start
        typical = statistics.median(q["wall_s"] for q in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    metrics = {}
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "sim_msgs_per_host_s"):
        metrics[name] = statistics.median(p[name] for p in passes)
    metrics["setup_s"] = statistics.median(setups)
    print("perfbench: %s seed %d, %d passes in %.1f s, %d set-up samples"
          % (wl.name, wl.seed, len(passes), time.monotonic() - start,
             len(setups)))
    for name, value in metrics.items():
        if name == "setup_s":
            detail = "median of %d, min %.4g, max %.4g" % (
                len(setups), min(setups), max(setups))
        else:
            detail = "passes: " + ", ".join("%.4g" % p[name] for p in passes)
        print("  %-22s %14.6g %-4s (%s)" % (name, value, UNITS[name], detail))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def harness_layer(wl, base):
    """Per-cell host time of the untraced pass, and the share of its worker
    time (jobs x the pass's wall time) spent outside cells."""
    cells = base["cells"]
    capacity = wl.jobs * base["wall_s"]
    return {
        "harness.cell_s.p50": {"value": statistics.median(cells), "unit": "s"},
        "harness.cell_s.max": {"value": max(cells), "unit": "s"},
        "harness.worker_idle_frac": {"value": 1.0 - sum(cells) / capacity,
                                     "unit": "ratio"},
    }


def per_layer(args, wl, tally):
    base = untraced_pass(wl, tally)
    if base is None:
        return None
    # paper_tables' own cells keep their recorders private, so its heaviest
    # cell stands in for it, on the committed grid.
    probe, seed = ("is", args.seed) if wl.jobs == 1 else ("gauss", 0)
    stdout_path = os.path.join(wl.out, "probe.json")
    code, wall, _ = run_process(wl.driver_cmd(probe, seed, trace=True),
                                stdout_path)
    if code != 0:
        tally.add(1, 1)
        return None
    doc = read_json(stdout_path)
    tally.add(doc["cells_total"], doc["cells_failed"])
    for why in doc["failures"]:
        log("perfbench: FAILED " + why)
    if doc["cells_failed"]:
        return None
    print("perfbench: %s seed %d, untraced pass and traced %s probe"
          % (wl.name, wl.seed, doc["probe"]))
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "sim_msgs_per_host_s"):
        print("  %-26s %14.6g %s" % (name, base[name], UNITS[name]))
    layer = harness_layer(wl, base)
    layer.update(doc["layer"])
    for name, m in layer.items():
        print("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    untraced = layer["vopp.run_s"]["value"]
    extra = (layer["obs.traced_over_untraced"]["value"] - 1.0) * untraced
    print("trace overhead: tracing the probe cell and folding its trace adds"
          " %.3f s to its %.3f s untraced run, +%.1f%% against untraced"
          " wall_s %.3f s (whole probe process: %.3f s)"
          % (extra, untraced, 100.0 * extra / base["wall_s"], base["wall_s"],
             wall))
    return layer


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("is_vcsd_128p", "paper_tables"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    missing = [f for f in REQUIRED if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        log("perfbench: not a simulator checkout, missing " +
            ", ".join(missing))
        return 2
    if not build():
        log("perfbench: build failed")
        return 2

    wl = Workload(args)
    host = host_provenance(wl.jobs)
    if host is None:
        log("perfbench: this build may not be timed")
        return 2
    print_host(host)
    pin(wl.jobs)
    tally = Tally()
    if args.trace:
        metrics = per_layer(args, wl, tally)
    else:
        metrics = end_to_end(args, wl, tally)
    print(json.dumps({"correct": metrics is not None and tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics or {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
