"""Benchmark entry point; run from the root of a checkout of the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics of one workload:
set-up time (the median over seven set-up-only interpreters and the
measuring one), round wall time, request latency p50/p90 and peak resident memory.
With ``--trace 1`` it prints the per-layer metrics of the traced run, whose
content is fixed (see perfbench/README.md).  Each workload runs in its own
fresh interpreter, one at a time, with one BLAS thread and a fixed hash seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the library's
sources under ``src/`` it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_RUNS = 7
BUDGET_S = 170  # every run must end within 180 s
END_TO_END = ("setup_s", "wall_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb")
UNITS = (("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("_mb", "MB"))


def unit_of(name):
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


class ChildFailed(RuntimeError):
    pass


def child(args, mode, env, deadline):
    """Run one worker interpreter to completion; returns its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - monotonic())
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, env, deadline):
    """Returns (metrics, attempted, failed, problems)."""
    if args.trace:
        out = child(args, "trace", env, deadline)
        print(f"spans: {out['spans']}, written to {out['trace_file']}")
        return out["metrics"], out["attempted"], out["failed"], out["problems"]
    setups = [child(args, "setup", env, deadline) for _ in range(SETUP_ONLY_RUNS)]
    out = child(args, "run", env, deadline)
    setups.append(out)
    print(
        f"{args.workload}: {out['rounds']} rounds, {out['samples']} successful requests; "
        f"set-up samples (s, host-normalized/raw): "
        + ", ".join(f"{s['setup_s']:.4f}/{s['raw_setup_s']:.4f}" for s in setups)
        + f"; raw median round wall {out['raw_wall_s']:.4f} s"
    )
    metrics = {name: out[name] for name in END_TO_END}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    return metrics, out["attempted"], out["failed"], out["problems"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = monotonic() + BUDGET_S

    src = Path.cwd() / "src"
    if not (src / "stablegons" / "__init__.py").is_file():
        print("error: run from the root of a checkout: src/stablegons is missing", file=sys.stderr)
        return 2
    bad = oracle.self_check()
    if bad:
        print("error: oracle self-check failed: " + "; ".join(bad), file=sys.stderr)
        return 1
    try:
        metrics, attempted, failed, problems = measure(args, child_env(src), deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for line in problems[:20]:
        print("CHECK FAILED", line, file=sys.stderr)
    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"{name:44s} {shown} {unit_of(name)}")
    print(f"attempted {attempted}, failed {failed}, checks {'passed' if not problems else 'FAILED'}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
