#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) with path dependencies on the repository's crates;
cargo honours CARGO_TARGET_DIR for the build output. The last line of
standard output is the benchmark's JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Build the release binary; return its path, or None on failure."""
    proc = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--message-format=json-render-diagnostics",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if (
            msg.get("reason") == "compiler-artifact"
            and msg.get("target", {}).get("name") == "perfbench"
            and msg.get("executable")
        ):
            exe = msg["executable"]
    return exe


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
