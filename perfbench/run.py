#!/usr/bin/env python3
"""Build dlog and its benchmark from source, then run one benchmark pass.

    python3 perfbench/run.py --workload et1_mem --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the release `dlog-server` binary
and the `perfbench` package (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs `perfbench`, whose last line of standard
output is the result object. Data goes under `.perfbench/` and is
removed by the run. Exits non-zero without a result when the sources are
missing or the build or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single measuring run may take before it is stopped.
RUN_LIMIT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_revision():
    """The git revision, or a digest of the sources when not a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".rs", ".toml", ".lock", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    r = subprocess.run(
        ["cargo"] + args, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr
    )
    if r.returncode != 0:
        fail("cargo " + " ".join(args) + " failed", 3)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    for need in ("Cargo.toml", "Cargo.lock", "crates"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found at {ROOT}: run from a full dlog checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cargo(["build", "--release", "--offline", "-p", "dlog-cli", "--bin", "dlog-server"], target)
    cargo(
        ["build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        target,
    )
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", repr(a.seconds),
        "--trace", a.trace,
        "--server-bin", os.path.join(target, "release", "dlog-server"),
        "--data", os.path.join(ROOT, ".perfbench"),
        "--rev", source_revision(),
        "--rustc", rustc.stdout.strip() or "unknown",
    ]
    # Its own process group, so a stuck run is stopped together with the
    # server processes it started.
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = p.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s and was stopped", 4)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
