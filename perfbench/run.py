#!/usr/bin/env python3
"""Builds and runs the PM-octree wall-clock benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: droplet_dram, droplet_nvbm, serve_mixed, crash_restart (see
perfbench/README.md); --workload all runs each in turn and ends with one
JSON object keyed by workload. The first call configures and builds the
library and the benchmark driver (CMake, Release) into the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
repository root); later calls rebuild only what changed. The driver's
human-readable report goes to stdout, and the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. The
exit code is 0 only when the build succeeded, every output check passed
and that line was printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
WORKLOADS = ("droplet_dram", "droplet_nvbm", "serve_mixed", "crash_restart")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures (once) and builds the driver; returns its path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = [cmake, "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = [cmake, "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    exe = build_dir / "perfbench"
    return exe if exe.is_file() else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return 1

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    tmp = build_dir / "tmp"  # compiler and runtime scratch stay inside
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))

    exe = build(build_dir, env)
    if exe is None:
        log("build failed")
        return 1
    cache = build_dir / "refcache"
    cache.mkdir(exist_ok=True)
    if args.workload != "all":
        return run_one(exe, args, args.workload, cache, env, last=True)[0]
    results, status = {}, 0
    for w in WORKLOADS:
        rc, results[w] = run_one(exe, args, w, cache, env, last=False)
        status = status or rc
    print(json.dumps(results))
    return status


def run_one(exe, args, workload, cache, env, last):
    """Runs the driver once; returns (exit status, parsed result)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cache-dir", str(cache)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(out)
        log(f"{workload}: the driver printed no result line")
        return 1, None
    body = lines[:-1] + ([json.dumps(result)] if last else [])
    sys.stdout.write("\n".join(body) + "\n")
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        log(f"{workload}: output checks failed (exit {proc.returncode})")
        return proc.returncode or 1, result
    return 0, result


if __name__ == "__main__":
    sys.exit(main())
