#!/usr/bin/env python3
"""Build and run the PUSHtap host wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <oltp_ingest|olap_suite|htap_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which builds the library from the
repository sources) in Release under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the benchmark
binary. Build output goes to a log file next to the build so the
benchmark's JSON result stays the last line of standard output.
Traced runs write their spans to <build dir>/traces/.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, **kwargs):
    """Run cmd and wait for it; a signal to this script stops it too."""
    child = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return None


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        return run_child(cmd, timeout, stdout=log, stderr=subprocess.STDOUT)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench"],
    ]
    for cmd in steps:
        if run_logged(cmd, log_path, BUILD_TIMEOUT_S) != 0:
            with open(log_path) as log:
                sys.stderr.write("".join(log.readlines()[-40:]))
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail(f"no PUSHtap sources found in {root}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    binary = build(root, build_dir)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--out-dir", trace_dir]
    sys.stdout.flush()
    rc = run_child(cmd, RUN_TIMEOUT_S)
    if rc is None:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(rc if rc >= 0 else 1)


if __name__ == "__main__":
    main()
