#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload p2p_sat --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/CMakeLists.txt (the nfvsb library from
src/ plus the driver in perfbench/driver/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the driver. Build output goes to
stderr; the driver's last stdout line is the JSON result. Exits non-zero,
without a result, if the build fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite perfbench/digests/<workload>.txt")
    args = ap.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload,
           "--digests", os.path.join(HERE, "digests")]
    if args.record_digests:
        cmd.append("--record-digests")
    else:
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
