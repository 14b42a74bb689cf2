#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build (the dune cache is
off, so nothing is written outside the checkout), runs it with a scratch
directory under .bench_build, and relays its output: the last line of
standard output is the result object.  Build output goes to standard
error.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("zoo_gradient", "zoo_static", "serve_mix")
BUILD_DIR = ".bench_build"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {need} not found; run from the root of a checkout")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    tmp = os.path.join(BUILD_DIR, f"perfbench-tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        run = subprocess.run(
            [
                os.path.join(BUILD_DIR, "default", "perfbench", "main.exe"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--tmp", tmp,
            ],
            env=env,
            timeout=170,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
