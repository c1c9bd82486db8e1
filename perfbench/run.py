#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The Go program is built from source into
.bench_build (or $CARGO_TARGET_DIR) with a build cache of its own there, so
nothing outside the checkout is read from or written to. The last line of
standard output is the result JSON.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR="",
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTELEMETRY="off",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "bin", "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench, env=env, timeout=BUILD_TIMEOUT,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "run", "--cache", os.path.join(build, "perfbench")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
