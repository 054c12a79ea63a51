#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see src/main.cpp for the
workloads and the metric map).

    python3 e2ebench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test
    python3 e2ebench/run.py --record-baseline

Run from the root of a checkout.  The first run configures and builds this
package, which compiles the program under test (src/, examples/bpm_serve.cpp)
from source into .bench_build (or $CARGO_TARGET_DIR); later runs only check
that the build is current.  Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_cold", "serve_warm", "table1_batch")
# A run must end well inside the 180 s every run is allowed.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds e2ebench and bpm_serve; returns the
    build directory.  Serialised by a lock so concurrent runs share it."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                       stdout=sys.stderr)
    return out


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(out, workload, seed, seconds, trace, tiny=False, capture=False):
    """Runs one workload; returns (exit code, stdout text or None)."""
    out = os.path.relpath(out, ROOT)  # the run's cwd is ROOT
    cmd = [os.path.join(out, "e2ebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--serve-binary", os.path.join(out, "bpm_serve"),
           "--work-dir", os.path.join(out, "work"),
           "--trace-dir", os.path.join(out, "traces"),
           "--git-sha", git_sha()]
    if tiny:
        cmd.append("--tiny")
    # Own process group: on a timeout the server child dies with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"e2ebench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return proc.returncode, stdout.decode() if capture else None


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            spec["run_seconds"])


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test(out):
    """A tiny run of every workload, untraced and traced: each declared
    metric is emitted with its unit, and nothing fails."""
    end_to_end, per_layer, _ = declared()
    problems = []
    for workload in WORKLOADS:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            code, stdout = run(out, workload, 7, 1, trace, tiny=True,
                               capture=True)
            where = f"{workload} --trace {trace}"
            if code != 0 or not stdout:
                problems.append(f"{where}: exit code {code}")
                continue
            result = result_of(stdout)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name, unit in want.items():
                if name not in got:
                    problems.append(f"{where}: metric {name} missing")
                elif got[name] != unit:
                    problems.append(f"{where}: {name} in {got[name]}, "
                                    f"declared {unit}")
            for name in got.keys() - want.keys():
                problems.append(f"{where}: undeclared metric {name}")
            error_rate = result["failed"] / max(result["attempted"], 1)
            if not result["correct"] or result["attempted"] < 1 or error_rate:
                problems.append(f"{where}: correct={result['correct']} "
                                f"error_rate={error_rate}")
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_baseline(out):
    """Runs every workload once untraced and once traced (seed 1) and
    writes the results with their machine blocks to baseline.json."""
    _, _, seconds = declared()
    record = {"seed": 1, "run_seconds": seconds, "git_sha": git_sha(),
              "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            code, stdout = run(out, workload, 1, seconds, trace, capture=True)
            if code != 0:
                print(f"baseline: {workload} --trace {trace} failed",
                      file=sys.stderr)
                return 1
            lines = stdout.strip().splitlines()
            entry["traced" if trace else "end_to_end"] = {
                "notes": [l[2:] for l in lines[:-1] if l.startswith("# ")],
                "result": result_of(stdout),
            }
        record["workloads"][workload] = entry
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print("baseline written to " + os.path.join(HERE, "baseline.json"))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.record_baseline):
        parser.error("one of --workload, --self-test, --record-baseline")
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(out)
    if args.record_baseline:
        return record_baseline(out)
    code, _ = run(out, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
