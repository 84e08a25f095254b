#!/usr/bin/env python3
"""Build the oasis server and the benchmark harness from source, then run one
workload and print its result as the last line of stdout.

Usage (from the repository root):

    python3 perfbench/run.py --workload short_uncached --seed 1 --seconds 10 --trace 0

Builds go to $CARGO_TARGET_DIR (default .bench_build); scratch files go to
.bench_work and are removed afterwards, except the work ledger and the
trace's span dump. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("short_uncached", "ingest_mixed")
HARNESS_TIMEOUT_S = 170


def build(env):
    """Build `oasis` (repository workspace) and the harness (own workspace)."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "oasis"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        # Build output goes to stderr so stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build(env)

    bench = os.path.join(ROOT, ".bench_work")
    work = os.path.join(bench, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "oasis-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--oasis", os.path.join(target, "release", "oasis"),
        "--work", work,
        "--ledger", os.path.join(bench, "ledger"),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(bench, f"spans-{args.workload}-{args.seed}.json")]
    # Own process group, so a timeout or a signal to this script also stops
    # the servers the harness started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdin=subprocess.DEVNULL)
    code = 1
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = 124
        print(f"harness timed out after {HARNESS_TIMEOUT_S} s", file=sys.stderr)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
