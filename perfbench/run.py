#!/usr/bin/env python3
"""Build and run the vchain end-to-end benchmark.

Run from the root of a vchain checkout:

    python3 perfbench/run.py --workload cold-prove --seed 7 --seconds 12 --trace 0

The benchmark program (perfbench/src/main.cc) is compiled together with the library
sources of the checkout into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr; the last line of
stdout is the program's JSON result. Exit code 0 only for a correct run.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-prove", "warm-scan", "mine-subscribe", "cold-acc1")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "vchain_perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "vchain_perfbench")


def pid_alive(pid):
    try:
        os.kill(int(pid), 0)
    except (ValueError, ProcessLookupError):
        return False
    except PermissionError:
        pass
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.getcwd(), target, "perfbench")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    # Scratch stores of runs that were killed before they could clean up.
    for name in os.listdir(build_dir):
        if name.startswith("work-") and not pid_alive(name[len("work-"):]):
            shutil.rmtree(os.path.join(build_dir, name), ignore_errors=True)
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        rc = 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
