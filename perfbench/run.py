#!/usr/bin/env python3
"""Build and run the DMP streaming benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-refs   # re-record reference digests

The script builds perfbench/ (which compiles ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
benchmark binary.  Set-up time is measured from just before each process is spawned
until it starts its first operation; the reported setup_s is the median over
the measured run and SETUP_LAUNCHES set-up-only launches.  The last line of
stdout is the binary's JSON result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_LAUNCHES = 25
RUN_TIMEOUT_S = 170
WORKLOADS = ["sim_sweep", "stream_mix", "model_sweep", "inet_loopback"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def launch(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    t0 = time.monotonic_ns()
    proc = subprocess.run([binary] + args + ["--t0-ns", str(t0)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help="re-record reference/<workload>.tsv")
    args = parser.parse_args()
    if not args.record_refs and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    refs = ["--refs", os.path.join(HERE, "reference")]
    if args.record_refs:
        os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
        for workload in WORKLOADS[:3]:  # inet_loopback checks delivery only
            code, lines = launch(binary, ["--workload", workload,
                                          "--record-refs"] + refs)
            print("\n".join(lines))
            if code != 0:
                return code
        return 0

    common = ["--workload", args.workload, "--seed", str(args.seed)] + refs
    setup = []
    if not args.trace:
        for _ in range(SETUP_LAUNCHES):
            code, lines = launch(binary, common + ["--setup-only"])
            if code != 0 or not lines:
                return code or 1
            setup.append(json.loads(lines[-1])["setup_s"])
    code, lines = launch(binary, common + ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace)])
    if code != 0 or not lines:
        print("\n".join(lines))
        return code or 1
    result = json.loads(lines[-1])
    if not args.trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    print("\n".join(lines[:-1]))
    if not args.trace:
        print("setup_s samples: " + " ".join("%.6f" % s for s in setup))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
