#!/usr/bin/env python3
"""Build and run the SYMBOL benchmark (see benchmark/README.md).

Run from the root of a checkout:

    python3 benchmark/run.py --workload cold-start --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into .bench_build/ (or
$CARGO_TARGET_DIR when set), with the Go build cache kept there too, so the
run reads and writes only inside the checkout. The last line of standard
output is the result JSON. A workload process that crashes, is killed (for
example by the OOM killer) or overruns its time limit is reported as a failed
run with its reason, never as a missing result.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "symbol-benchmark")
RUN_LIMIT_S = 170  # the whole run must end within 180 s


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        GOTELEMETRY="off",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
        stdout=sys.stderr, stderr=sys.stderr,
    )
    return proc.returncode == 0


def arg(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def failed_run(argv, reason):
    """Report a run whose workload process died as a failed run."""
    workload = arg(argv, "--workload", "?")
    seed = arg(argv, "--seed", "?")
    print(f"benchmark: workload {workload} seed {seed} failed: {reason}", file=sys.stderr)
    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, f"failed-{workload}-seed{seed}.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "reason": reason}, f)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))


def main():
    argv = sys.argv[1:]
    if not build():
        print("benchmark: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY] + argv + ["--report", os.path.join(BUILD, "reports")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        failed_run(argv, f"no result within {RUN_LIMIT_S} s")
        return 0
    lines = out.strip().splitlines()
    if proc.returncode < 0:
        failed_run(argv, f"killed by {signal.Signals(-proc.returncode).name}")
        return 0
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        failed_run(argv, f"exited with status {proc.returncode}")
        return 0
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
