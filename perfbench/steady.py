"""Steadiness of the end-to-end metrics, the evidence for the bounds.

    python3 perfbench/steady.py [--first-seed 1]

Runs the command of BENCHMARK.json ten times on every workload, for
``run_seconds`` each, with seed first_seed + i on the i-th pass, alternating
the order of the workloads between passes.  For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``), min and max,
and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json and the spread as a share of that bound.  The exit status is 1
if a run fails, a spread exceeds its bound, a run is incorrect or the share of
failed requests differs between runs.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    values = {w: {} for w in names}
    units = {}
    shares = {w: set() for w in names}
    for i in range(RUNS):
        seed = args.first_seed + i
        for w in names if i % 2 == 0 else names[::-1]:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            shares[w].add((res["failed"] / res["attempted"], res["correct"]))
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"# {w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)

    flagged = 0
    print(f"\n{'workload':9s} {'metric':12s} {'unit':4s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'min':>10s} {'max':>10s} {'spread':>7s} {'bound':>6s} {'share':>6s}")
    for w in names:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag = "  <- above the bound"
                flagged += 1
            print(f"{w:9s} {name:12s} {units[name]:4s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{min(vals):10.4f} {max(vals):10.4f} {spread:7.3f} {bound:6.2f} "
                  f"{spread / bound:6.2f}{flag}")
        print(f"{w:9s} failed share and correctness over the runs: {sorted(shares[w])}")
        if len(shares[w]) != 1 or not all(ok for _, ok in shares[w]):
            flagged += 1
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
