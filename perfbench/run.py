#!/usr/bin/env python3
"""Repository benchmark entry point (perfbench/README.md describes it).

One workload, one process:

    python3 perfbench/run.py --workload iscas_grid --seed 1 --seconds 15 --trace 0

Every workload, untraced and then traced, with a summary table; exits
non-zero if any correctness gate fails:

    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout. On first use this builds libsm and the
driver from source (Release) into .bench_build/ at the root; later runs
only check that the build is current. Build output goes to stderr, so the
last line of stdout is the driver's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sm_perfbench")
# The driver's own limit is 180 s a run; leave room to report.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_call(cmd):
    """Runs a build step with its output on stderr, or exits on failure.
    The compiler's temporary files stay inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check_call(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", BUILD, "--target", "sm_perfbench",
                "--parallel", "4"])


def commit():
    """The checked-out commit, or "unknown" outside a git repository."""
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_driver(workload, seed, seconds, trace, capture=False):
    """Runs the driver in its own process and waits for it to end."""
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit(), "--trace-out",
           os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(seed, seconds):
    """Every workload untraced, then traced; prints each metric by name and
    unit, and returns non-zero if any run failed a check."""
    spec = load_benchmark_json()
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out = run_driver(w["name"], seed, seconds, trace, capture=True)
            sys.stdout.write(out)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if code != 0 or not result or not result["correct"]:
                print(f"== {w['name']} trace={trace}: FAILED (exit {code})")
                status = 1
                continue
            print(f"== {w['name']} trace={trace}: correct, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
            for name, m in result["metrics"].items():
                print(f"   {name:32s} {m['value']:14.6f} {m['unit']}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="workload name from BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time of one run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be >= 0")
    seconds = a.seconds
    if seconds is None:
        seconds = load_benchmark_json()["run_seconds"]
    if seconds <= 0:
        fail("--seconds must be > 0")

    build()
    if a.workload == "all":
        sys.exit(run_all(a.seed, seconds))
    code, _ = run_driver(a.workload, a.seed, seconds, a.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
