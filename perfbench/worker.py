"""One workload in one fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode M

Modes:
  setup  import the library, build the first round's inputs and run one
         warm-up request; report the time that took (setup_s);
  run    the same set-up, then whole rounds of requests, closed loop with one
         client, until S seconds have passed and at least 100 requests have
         returned; outputs are checked after the timed phase;
  trace  the traced run described in perfbench/README.md.

Every reported time is host-normalized (see :mod:`hostclock`); the raw times
are reported beside them.

``perfbench/run.py`` starts this with PYTHONPATH pointing at the library's
sources and the BLAS thread count set to 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pickle
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from hostclock import HostClock
from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
MIN_RETURNED = 100  # so that at least ten successful requests lie beyond the p90


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_round(sg, wl, inputs, clock, tracer=None):
    """Issue every input once, back to back.  Returns (wall_s, raw_wall_s, outcomes).

    wall_s sums the host-normalized latencies and raw_wall_s the raw ones;
    neither counts the probes of ``clock``.  Each outcome is (host-normalized latency_s,
    output or None, exception type name or None).
    """
    outcomes, wall, raw_wall = [], 0.0, 0.0
    for k, inp in enumerate(inputs):
        if tracer is None:
            lat, raw, out, err = clock.measure(lambda: wl.request(sg, inp))
        else:
            lat, raw, out, err = clock.measure(
                lambda: tracer.run_request(wl.name, k, lambda: wl.request(sg, inp))
            )
        outcomes.append((lat, out, err))
        wall += lat
        raw_wall += raw
    return wall, raw_wall, outcomes


class Ledger:
    """Records of every request, spooled to disk and checked once timing is over.

    Records go to a file rather than stay in memory, so that peak resident
    memory does not grow with the number of requests a run manages to issue.
    """

    def __init__(self, wl):
        self.wl = wl
        self.count = 0
        OUT.mkdir(exist_ok=True)
        self.spool = tempfile.TemporaryFile(dir=OUT)

    def add(self, inputs, outcomes):
        for inp, (lat, out, err) in zip(inputs, outcomes):
            rec = None if out is None else self.wl.record(inp, out)
            pickle.dump((inp, rec, err, lat), self.spool)
            self.count += 1

    def items(self):
        """(input, record or None, error name or None, latency_s) per request."""
        self.spool.seek(0)
        for _ in range(self.count):
            yield pickle.load(self.spool)

    def close(self):
        self.spool.close()

    def check(self):
        """Returns (ok latencies, failed count, problems that make the run incorrect)."""
        ok, failed, problems = [], 0, []
        for inp, rec, err, lat in self.items():
            if err is not None:
                failed += 1
                if not (self.wl.expects_failure(inp) and err == "NonConvergence"):
                    problems.append(f"{self.wl.name}: unexpected {err} on {inp}")
                continue
            bad = self.wl.check(inp, rec)
            if bad:
                failed += 1
                problems += [f"{self.wl.name}: {b} on {inp}" for b in bad]
            else:
                ok.append(lat)
        return ok, failed, problems


def setup(name, seed, clock):
    """Import, first round's inputs, one warm-up request.

    Each of the three steps is timed on its own, so that the probes around
    them follow the host's state more closely.  Returns (sg, wl, inputs,
    host-normalized s, raw s).
    """
    wl = WORKLOADS[name]
    sg = inputs = None

    def load():
        nonlocal sg
        sg = importlib.import_module("stablegons")

    def make():
        nonlocal inputs
        inputs = wl.round_inputs(seed, 0)

    setup_s = raw_s = 0.0
    for step in (load, make, lambda: wl.request(sg, wl.warmup_input())):
        norm, raw, _, err = clock.measure(step)
        if err is not None:
            raise RuntimeError(f"set-up step {step.__name__} failed with {err}")
        setup_s += norm
        raw_s += raw
    return sg, wl, inputs, setup_s, raw_s


def timed(name, seed, seconds):
    clock = HostClock()
    clock.start()
    sg, wl, inputs, setup_s, raw_setup_s = setup(name, seed, clock)
    ledger = Ledger(wl)
    walls, raw_walls = [], []
    returned = 0
    start = perf_counter()
    rnd = 0
    while True:
        wall, raw_wall, outcomes = run_round(sg, wl, inputs, clock)
        walls.append(wall)
        raw_walls.append(raw_wall)
        returned += sum(err is None for _, _, err in outcomes)
        ledger.add(inputs, outcomes)
        rnd += 1
        if perf_counter() - start >= seconds and returned >= MIN_RETURNED:
            break
        inputs = wl.round_inputs(seed, rnd)
    clock.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok, failed, problems = ledger.check()
    ledger.close()
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "rounds": rnd,
        "req_p50_ms": statistics.median(ok) * 1e3 if ok else None,
        "req_p90_ms": percentile(ok, 90) * 1e3 if len(ok) >= 2 else None,
        "samples": len(ok),
        "peak_rss_mb": peak_mb,
        "attempted": ledger.count,
        "failed": failed,
        "problems": problems,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    args = p.parse_args(argv)
    if args.mode == "setup":
        clock = HostClock()
        clock.start()
        _, _, _, setup_s, raw_setup_s = setup(args.workload, args.seed, clock)
        clock.stop()
        out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    elif args.mode == "run":
        out = timed(args.workload, args.seed, args.seconds)
    else:
        import traced_run

        out = traced_run.run(args.workload, args.seed)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
