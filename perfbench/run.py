#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|toy] [--pins FILE]

Builds perfbench/main.exe with dune into .bench_build/ (the first run
builds the library too), then runs it in its own process and passes its
stdout through: the last line is the result object. Exits with the
benchmark's code (0 ok, 1 a check failed, 2 usage or environment
error, 3 timeout). See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """MD5 over the library and benchmark sources, for provenance when
    the checkout is not a git repository."""
    h = hashlib.md5()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    os.chdir(ROOT)
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("not a checkout of the repository: %s is missing" % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.join(ROOT, BUILD_DIR),
         "--profile", "release", "--cache", "disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")
    argv = [EXE] + sys.argv[1:] + ["--commit", commit(),
                                   "--source-digest", source_digest()]
    try:
        sys.stdout.flush()
        run = subprocess.run(argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S, code=3)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
