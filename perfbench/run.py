#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
the project's libraries and the `cpr-perfbench` binary from source into
$CARGO_TARGET_DIR (default `.bench_build`); later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's result object. The exit code is the benchmark's: nonzero on a
failed build or a failed output check.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "cpr-perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "cpr-perfbench")
    # A relative socket path keeps it under sockaddr_un's 108-byte limit
    # however deep the checkout is.
    socket = os.path.relpath(
        os.path.join(build_dir, "cprd-%d.sock" % os.getpid()), ROOT)
    cmd = [binary] + sys.argv[1:] + ["--commit", commit(),
                                     "--socket", socket]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait()
    finally:
        # Reached with the child still running only when this runner is
        # being stopped (SIGTERM or SIGINT): stop the benchmark with it.
        if child.poll() is None:
            child.terminate()
            child.wait()


def stop(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    sys.exit(main())
