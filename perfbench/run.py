#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_warm|serve_mixed|sweep_streamed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is built from the checkout's
sources into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when
that is set, relative to the checkout), then `ppbench` runs the workload.
Build output goes to stderr; the last line of stdout is the result JSON.
`--selftest` builds and runs the tests of the benchmark's own arithmetic.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_warm", "serve_mixed", "sweep_streamed")

# The benchmark passes every setting explicitly; these would otherwise
# reconfigure the program (scale, fidelity, caches, faults) behind its back.
SCRUBBED_ENV_PREFIXES = ("REPRO_", "SIM_", "SWEEP_", "PROFILE_CACHE", "PP_")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out, target):
    if not (ROOT / "src" / "api" / "serve.hpp").is_file():
        fail(f"the program's sources are missing under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    if args.selftest:
        build(out, "perfbench_arith_test")
        sys.exit(subprocess.run([str(out / "perfbench_arith_test")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    build(out, "ppbench")
    env = {k: v for k, v in os.environ.items() if not k.startswith(SCRUBBED_ENV_PREFIXES)}
    cmd = [str(out / "ppbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(out / "work")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
