#!/usr/bin/env python3
"""Build the benchmark when its sources are newer than its binary, then run it.

Run from the repository root; every argument is passed to the binary:

    python3 perfbench/run.py --workload live-topk --seed 1 --seconds 30 --trace 0

`cargo run` is not used because outside a git checkout the service crate's
build script asks for a rerun on every build, which recompiled the service
and the benchmark before each run (about 20 s on 2 cores). The binary goes
to `$CARGO_TARGET_DIR/release/perfbench` (`perfbench/target` when unset).
"""

import os
import subprocess
import sys

# Everything the binary is built from, relative to the repository root.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]
SKIP_DIRS = {"target", ".bench_build"}


def newest_source_mtime():
    newest = 0.0
    for top in SOURCES:
        if os.path.isfile(top):
            newest = max(newest, os.path.getmtime(top))
            continue
        for root, dirs, files in os.walk(top):
            dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
            for name in files:
                newest = max(newest, os.path.getmtime(os.path.join(root, name)))
    return newest


def main():
    if not os.path.isdir("crates"):
        sys.exit("perfbench/run.py: run it from the repository root, next to crates/")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    if not os.path.exists(binary) or os.path.getmtime(binary) < newest_source_mtime():
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
