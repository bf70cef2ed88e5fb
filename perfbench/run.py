#!/usr/bin/env python3
"""Build and run the RBPC restore benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <isp_storm|as_lazy|internet_protocol> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload, and passes its report through.
The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when the
build fails, the run fails, or any output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("isp_storm", "as_lazy", "internet_protocol")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run must end within 180 s; the build before it is not counted here.
RUN_TIMEOUT_S = 170


def source_digest():
    """A digest of the code under test, for checkouts without git data."""
    h = hashlib.sha256()
    for sub in ("crates", "perfbench"):
        base = ROOT / sub
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".lock"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git(*args):
    return subprocess.run(
        ["git", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=10,
        check=True,
    ).stdout.strip()


def commit_stamp():
    """`<git commit, or none outside a git checkout>+src:<digest>`."""
    try:
        top = Path(git("rev-parse", "--show-toplevel")).resolve()
        sha = git("rev-parse", "HEAD") if top == ROOT else "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return f"{sha}+src:{source_digest()}"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def main():
    args = parse_args()
    if not (ROOT / "crates").is_dir():
        print("perfbench: the workspace crates are missing", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--locked",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit_stamp()
    try:
        run = subprocess.run(
            [
                str(target / "release" / "rbpc-perfbench"),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                args.trace,
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run exited {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        print("perfbench: the run printed no result object", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
