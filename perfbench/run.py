#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lu --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory (its own module, which
replaces the `tireplay` module with the checkout root). This script builds
it with the Go toolchain on PATH, keeping the build cache, temporary files
and the binary under .bench_build in the checkout, then runs it with the
same arguments. The program prints the result as its last line of output.
"""

import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 840  # the first build in a fresh checkout compiles the module
RUN_TIMEOUT_S = 170  # the program stops measuring after --seconds by itself


def go_env():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    # Build offline with the installed toolchain; the module has no
    # dependencies outside the checkout.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="",
               GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def run(cmd, cwd, env, timeout):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    code = run(["go", "build", "-trimpath", "-o", binary, "."], BENCH_DIR, env,
               BUILD_TIMEOUT_S)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    return run([binary] + sys.argv[1:], ROOT, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
