#!/usr/bin/env python3
"""Build and run the SYRK benchmark from the root of a source checkout.

    python3 syrkbench/run.py --workload small_1d --seed 1 --seconds 15 --trace 0

Configures and builds syrkbench/CMakeLists.txt into .bench_build/syrkbench
(build output goes to standard error), then runs the benchmark program with
the same arguments. Its standard output is passed through unchanged: the last
line is the JSON result. The exit code is the program's, or non-zero when the
build fails.
"""
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "syrkbench"
# A first run (configure + build + run) must end within 900 s, later ones
# within 180 s.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def build(target="syrkbench"):
    """Configures once, then brings `target` up to date. Returns its path."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "syrkbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=CONFIGURE_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return BUILD / target


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"syrkbench: build failed: {e}", file=sys.stderr)
        return 2
    workload = argv[argv.index("--workload") + 1] \
        if "--workload" in argv[:-1] else "unknown"
    spans = BUILD / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(binary), *argv, "--spans-out", str(spans / f"{workload}.jsonl")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("syrkbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
