#!/usr/bin/env python3
"""Protocol-simulation benchmark of DECOR.

Builds the benchmark driver (perfbench/CMakeLists.txt, a Release build of
the repository's libraries) and runs one workload in its own process:

  python3 perfbench/run.py --workload grid_paper --seed 1 --trace 0

--trace 0 measures the end-to-end metrics, --trace 1 reruns the first case
with tracing on and prints the per-layer split. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it carries the build provenance. Extra modes:

  --sink-table   calibrated wall time of grid_observed's first case with
                 each run-directory sink armed alone (report only)
  --toy          shrink the workload to a seconds-long smoke size

See perfbench/README.md for the workloads and the layer map.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

WORKLOADS = ("grid_paper", "voronoi_large_restore", "dataplane_lossy",
             "grid_observed")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir(root):
    # Build outputs live under the checkout: CARGO_TARGET_DIR when the
    # caller names one, .bench_build otherwise.
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = root / base
    return base


def build(root):
    """Configures and builds the driver; returns its path or None."""
    out = build_dir(root) / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(out), "-j",
                  str(os.cpu_count() or 1)]]
        with open(logfile, "w") as f:
            for cmd in steps:
                if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  cwd=root).returncode != 0:
                    f.flush()
                    log("perfbench: build failed; tail of " + str(logfile))
                    log("".join(open(logfile).readlines()[-30:]))
                    return None
    return out / "decor_perfbench"


def run_driver(exe, args, tmp):
    cmd = [str(exe), *args, f"--tmp={tmp}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: driver timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return None
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def provenance_line(doc):
    """Build provenance plus, for untraced runs, the host slowdown and the
    uncalibrated timings."""
    prov = dict(doc["provenance"])
    if prov.get("git_sha") in ("", "unknown"):
        try:
            prov["git_sha"] = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=HERE,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            prov["git_sha"] = "unknown"
    if prov.get("build_type") != "Release":
        log("perfbench: WARNING: NOT A RELEASE BUILD (build_type="
            f"{prov.get('build_type')!r}); timings are not comparable")
    line = {"workload": doc["workload"], "mode": doc["mode"],
            "seed": doc["seed"], "provenance": prov}
    if doc["mode"] == "run":
        raw = benchlib.end_to_end(doc, calibrate=False)
        line["host_slowdown"] = benchlib.run_slowdown(doc)
        line["uncalibrated"] = {k: raw[k] for k in
                                ("wall_s", "setup_s", "events_per_s",
                                 "sim_s_per_wall_s")}
        line["case_wall_s"] = dict(zip(
            ("q1", "median", "q3"),
            benchlib.quartiles(c["wall_s"] for c in doc["cases"])),
            n=len(doc["cases"]))
    return line


def sink_table(doc):
    """Median calibrated wall time per sink row and its delta against no
    sinks."""
    cases = [r["case"] for r in doc["rows"]]
    slow = benchlib.host_slowdown([p for c in cases for p in c["probes"]])
    walls = {}
    for r in doc["rows"]:
        walls.setdefault(r["sink"], []).append(
            benchlib.calibrated_wall(r["case"], slow))
    base = statistics.median(walls["none"])
    print(f"{'sink':<12} {'wall_s':>8} {'delta_s':>8} {'delta':>7}")
    for sink, values in walls.items():
        wall = statistics.median(values)
        print(f"{sink:<12} {wall:8.3f} {wall - base:8.3f} "
              f"{(wall - base) / base:7.1%}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--sink-table", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload is None and not args.sink_table:
        ap.error("--workload is required")

    root = HERE.parent
    exe = build(root)
    if exe is None:
        return 1
    tmp = build_dir(root) / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = "grid_observed" if args.sink_table else args.workload
        mode = ("sinks" if args.sink_table
                else "trace" if args.trace else "run")
        drv_args = [f"--workload={workload}", f"--seed={args.seed}",
                    f"--seconds={args.seconds}", f"--mode={mode}"]
        if args.toy:
            drv_args.append("--toy")
        doc = run_driver(exe, drv_args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if doc is None:
        return 1
    print(json.dumps(provenance_line(doc)))
    if mode == "sinks":
        sink_table(doc)
        return 0

    if mode == "trace":
        # The traced rerun must repeat the untraced trajectory exactly:
        # tracing observes the run, it must not perturb it.
        failed, problems = benchlib.check_cases(doc["untraced"] +
                                                [doc["traced"]])
        attempted = len(doc["untraced"]) + 1
        values = benchlib.per_layer(doc)
        units = benchlib.PER_LAYER
    else:
        failed, problems = benchlib.check_cases(doc["cases"])
        attempted = len(doc["cases"])
        values = benchlib.end_to_end(doc)
        units = benchlib.END_TO_END
    for p in problems:
        log("perfbench: INCORRECT: " + p)
    correct = not problems
    print(json.dumps(benchlib.result_line(correct, attempted, failed,
                                          values, units)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
