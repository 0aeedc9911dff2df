#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the binary with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs only re-check the build. Build output goes to standard error; the
binary's standard output passes through, and its last line is the JSON
result. Exits non-zero when the build fails or the binary does.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(build_dir, "sofa_perfbench")
    return binary if os.path.exists(binary) else None


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([binary] + argv, cwd=ROOT)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    # A run that died leaves its scratch directory behind; remove it.
    scratch = os.path.join(ROOT, ".bench_data")
    if os.path.isdir(scratch):
        for name in os.listdir(scratch):
            if name.endswith("-%d" % child.pid):
                shutil.rmtree(os.path.join(scratch, name), ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
