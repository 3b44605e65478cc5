#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Workloads: explore-grid, serve-mixed, study-fig5, shard-64 (see
BENCHMARK.json and perfbench/harness/src/); `--workload all` runs each in
turn, one process per workload. The harness is its own Cargo
package with path dependencies on the workspace crates, built in release
mode into $CARGO_TARGET_DIR (default: .bench_build in the checkout).

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it is a
context object (host parallelism, threads, seed, commit, digests). The
harness prints each metric's value by name; this script adds the units
from BENCHMARK.json, the only list of metric names, and reads a per-layer
metric the workload did not set as 0. Any failed output check makes the
exit code non-zero; a harness that prints a metric BENCHMARK.json does not
name, or misses an end-to-end one, prints no result at all.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "harness" / "Cargo.toml"
# The harness must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def commit_id():
    """The git commit when the checkout is a repository, else a hash of the
    source tree."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "source-sha256:" + h.hexdigest()[:16]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(binary, workload, args, commit):
    """Runs one workload in its own process; prints its output and returns
    its exit code."""
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit,
    ]
    # Its own process group, so a timeout also stops the set-up probes.
    run = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        values = {k: float(v) for k, v in result["metrics"].items()}
        keys = sorted(result)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        print(f"perfbench: unreadable result line ({e})", file=sys.stderr)
        return 1
    # BENCHMARK.json is the only list of metric names and units. A per-layer
    # metric the workload did not set is a layer it never enters: 0.
    rows = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in rows}
    unknown = sorted(set(values) - set(units))
    missing = [] if args.trace else sorted(set(units) - set(values))
    if keys != ["attempted", "correct", "failed", "metrics"] or unknown or missing:
        print(f"perfbench: result metrics not in BENCHMARK.json {unknown}, missing {missing}",
              file=sys.stderr)
        return 1
    result["metrics"] = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in units.items()}
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}", file=sys.stderr)
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)
    if run.returncode != 0 or not result["correct"]:
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' for each in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = target / "release" / "perfbench"
    commit = commit_id()
    if args.workload == "all":
        names = [w["name"] for w in benchmark_spec()["workloads"]]
    else:
        names = [args.workload]
    codes = [run_workload(binary, name, args, commit) for name in names]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
