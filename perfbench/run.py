#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, every metric, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/workloads.py``):
``serve_read``, ``ingest_edit``, ``stream_tail``, ``adhoc_query``.

Every measurement runs in a fresh process (``perfbench/workloads.py``)
against the sources under ``src/``.  With ``--trace 0`` the workload runs
once untraced and twice more for set-up only; ``setup_s`` is the median
of the three set-ups, in process CPU seconds scaled to a host at nominal
speed, and ``cpu_ref_per_op`` the process CPU time of the timed phase per
operation, in blocks of reference work timed in the same process over the
same seconds (``Yardstick`` in ``perfbench/workloads.py``): the shared
host's speed drifts by half within a minute, and both figures cancel it.
With ``--trace 1`` it runs once untraced and once
with the per-layer tracer of ``perfbench/layers.py`` installed; the
per-layer metrics come from the traced run and the tracing overhead is
the traced figure minus the untraced one.

The report lists every end-to-end metric of the workload with its unit
and sample count, then a result row with the code and host identity, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when any answer was wrong, and 2 (with no result line)
when a run could not complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("serve_read", "ingest_edit", "stream_tail", "adhoc_query")
SETUP_RUNS = 3
#: seconds all child processes of one run may take before it is abandoned
RUN_TIMEOUT = 170


class RunFailed(Exception):
    pass


def child(workload, seed, seconds, *, deadline, trace=0, mode="full", extra=()):
    """Run one workload in a fresh process and return its JSON result."""
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode, "--out-dir", OUT, *extra,
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} ({mode}) did not finish within {RUN_TIMEOUT}s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise RunFailed(f"{workload} ({mode}) exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 over the program's sources, naming the code measured even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def host_row(seed: int, result: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "seed": seed,
    }


def measure(args, extra) -> tuple[dict, dict]:
    """(result of the measured run, per-layer metrics when traced)."""
    deadline = time.monotonic() + RUN_TIMEOUT
    if args.trace:
        plain = child(args.workload, args.seed, args.seconds, deadline=deadline, extra=extra)
        traced = child(args.workload, args.seed, args.seconds, deadline=deadline, trace=1, extra=extra)
        layers = dict(traced["layers"])
        untraced, with_trace = plain["metrics"], traced["metrics"]
        layers["trace.overhead_p50_ms"] = with_trace["latency_p50_ms"][0] - untraced["latency_p50_ms"][0]
        layers["trace.overhead_ops_pct"] = 100 * (
            1 - with_trace["ops_per_s"][0] / untraced["ops_per_s"][0]
        )
        for result in (plain, traced):
            if result["wrong"]:
                return result, layers
        return traced, layers
    full = child(args.workload, args.seed, args.seconds, deadline=deadline, extra=extra)
    setups = [full["metrics"]["setup_s"][0]] + [
        child(args.workload, args.seed, args.seconds, deadline=deadline, mode="setup",
              extra=extra)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    full["metrics"]["setup_s"] = [statistics.median(setups), "s", len(setups)]
    return full, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="make the program drop one tuple per answer, for tests")
    args = parser.parse_args(argv)
    extra = [flag for flag, on in (("--tiny", args.tiny),
                                   ("--inject-wrong-answer", args.inject_wrong_answer)) if on]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    try:
        result, layers = measure(args, extra)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"  {name:<26} {value:>14.4f} {unit:<6} n={samples}")
    for entry in declared if args.trace else ():
        print(f"  {entry['name']:<26} {layers[entry['name']]:>14.6g} {entry['unit']}")
    row = {
        "workload": args.workload,
        "trace": args.trace,
        **host_row(args.seed, result),
        "metrics": result["metrics"],
        **({"layers": layers} if args.trace else {}),
    }
    print(json.dumps({"row": row}))
    with open(os.path.join(OUT, "history.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")

    values = layers if args.trace else {k: v[0] for k, v in result["metrics"].items()}
    correct = result["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
