#!/usr/bin/env python3
"""Build the NAB session benchmark and run one workload.

    python3 nabbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. On first use this configures and builds the
package in this directory (libnab from ../src plus the nabbench program) in
Release mode under $CARGO_TARGET_DIR/nabbench (default .bench_build/nabbench);
later runs only rebuild what changed. The program's last stdout line is the
JSON result. Build output goes to stderr. A failed build exits nonzero
without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "nabbench")


def build(out):
    """Configure (once) and build nabbench; returns its path or None."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "--target", "nabbench", "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "nabbench")


def main():
    binary = build(build_dir())
    if binary is None:
        print("nabbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
