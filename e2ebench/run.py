#!/usr/bin/env python3
"""End-to-end benchmark of the cdvs request path.

Builds the benchmark program from this directory (its own CMake package, which
compiles ../src) into the build directory, then runs one workload:

    python3 e2ebench/run.py --workload deadline_sweep --seed 1 \
        --seconds 5 --trace 0

The last line of standard output is the JSON result. The build directory
is $CARGO_TARGET_DIR when set, else .bench_build, relative to the current
directory; traced runs also write their spans there (traces/).

    python3 e2ebench/run.py --workload routed_warm --repeat 10 [--seed S]

runs the workload ten times on consecutive seeds and prints, for every
end-to-end metric, the median, the quartiles and the quartile spread as
a share of the median (the figures the bounds in BENCHMARK.json rest on).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the benchmark program; returns its path."""
    out = os.path.join(build_dir(), "e2ebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "e2ebench", "-j",
         str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "e2ebench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit()]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def repeat(exe, args):
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(exe, args.workload, seed, args.seconds, 0)
        if code != 0:
            print(f"run with seed {seed} failed ({code})", file=sys.stderr)
            return code
        lines = out.strip().splitlines()
        print(lines[-2], file=sys.stderr)
        runs.append(json.loads(lines[-1]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
            file=sys.stderr)
    summary = {"workload": args.workload, "runs": len(runs),
               "correct": all(r["correct"] for r in runs),
               "failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in runs}),
               "metrics": {}}
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"unit": m["unit"], "median": med,
                                    "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    print(json.dumps(summary))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=5)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()
    if not args.workload:
        p.error("--workload is required")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if args.repeat:
        return repeat(exe, args)
    code, out = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
