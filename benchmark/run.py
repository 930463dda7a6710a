#!/usr/bin/env python3
"""Builds gsbench from this checkout and runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the checkout. The build (a CMake project of its own,
benchmark/CMakeLists.txt, which pulls in the tree) goes to .bench_build,
or to $CARGO_TARGET_DIR when set; scratch files go below it too, so the
run reads and writes only inside the checkout. Build output goes to
stderr: the last line of stdout is gsbench's JSON result. With --trace 1
gsbench reports the per-layer metrics and leaves its Chrome trace in the
build directory.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("run.py: %s failed" % " ".join(cmd))

    if not os.path.exists(os.path.join(build, "build.ninja")):
        step(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", build,
              "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "--target", "gsbench"])

    cmd = [os.path.join(build, "gsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(
            build, "trace_%s_%d.json" % (args.workload, args.seed))]
    # gsbench stops and reaps its daemons on SIGINT/SIGTERM; pass the
    # signal on and wait for it instead of killing it underneath them.
    proc = subprocess.Popen(cmd, env=env)
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, _frame: proc.send_signal(signum))
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
