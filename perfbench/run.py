#!/usr/bin/env python3
"""perfbench entry point: build the benchmark from source, run one workload.

    python3 perfbench/run.py --workload inproc-arxiv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which pulls in ../src and the fleet binaries from ../examples)
into .bench_build/; later calls rebuild incrementally. The fgbench binary
does the measuring and prints every metric with its unit; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Any failure exits non-zero without printing a result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD_DIR, "bin", "fgbench")
# A benchmark run must end within this many seconds; the first run of a
# checkout also builds (configure + compile), which has its own budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
PINNED_ENV = ("FEDGTA_BACKEND", "FEDGTA_NUM_THREADS", "FEDGTA_BENCH_MODE")


def pinned_env():
    env = dict(os.environ)
    for var in PINNED_ENV:
        env.pop(var, None)
    return env


def run_bounded(cmd, timeout, env, merge_stderr=False):
    """Runs cmd in its own process group and returns (exit code, stdout); on
    timeout kills the whole group (every child the benchmark started),
    waits for it and returns (-1, None)."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT if merge_stderr else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: %s timed out after %ds\n" %
                         (cmd[0], timeout))
        return -1, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise


def build(env):
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        sys.stderr.write("perfbench: no src/ tree next to perfbench/; "
                         "run from the repository root\n")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, out = run_bounded(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                                 "-DCMAKE_BUILD_TYPE=Release"],
                                deadline - time.monotonic(), env,
                                merge_stderr=True)
        if code != 0:
            sys.stderr.write(out or "")
            sys.stderr.write("perfbench: cmake configure failed\n")
            return False
    code, out = run_bounded(["cmake", "--build", BUILD_DIR, "-j4"],
                            max(1.0, deadline - time.monotonic()), env,
                            merge_stderr=True)
    if code != 0:
        sys.stderr.write(out or "")
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def source_id():
    """The commit when run inside git, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel",
                              "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    env = pinned_env()
    if not build(env):
        return 1
    work_dir = os.path.join(BUILD_DIR, "run", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BIN, "--work_dir=" + work_dir, "--commit=" + source_id()]
    if args.selftest:
        cmd.append("--selftest")
        timeout = 3 * RUN_TIMEOUT_S
    else:
        cmd += ["--workload=" + args.workload, "--seed=%d" % args.seed,
                "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
        timeout = RUN_TIMEOUT_S
    try:
        code, out = run_bounded(cmd, timeout, env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if out:
        sys.stdout.write(out)
    if code != 0 or out is None:
        return code if code else 1
    if args.selftest:
        return 0
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: fgbench printed no result line\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
