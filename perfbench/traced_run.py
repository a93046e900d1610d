"""The traced run: per-layer metrics, tracing overhead, n-sweeps and the CLI pass.

Its content does not depend on the workload named on the command line, so
every traced run reports every per-layer metric:

1. For each workload, round 0 of the seed is issued untraced and then
   traced.  Per-call metrics are medians over the spans of calls made
   directly by the traced requests; ``<layer>.busy_s`` and ``<layer>.calls``
   add up self time and spans of the layer over the traced requests of
   ``exact``, ``geometry`` and ``betti``; ``trace.overhead.<workload>_pct``
   compares the traced with the untraced round.
2. The n-sweeps, untraced, each point timed on its own.
3. The README's command-line examples (:mod:`cli_pass`).

Every output is checked after the timing it belongs to.  The spans, the
sweep table and the metrics are written to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import statistics
from fractions import Fraction
from time import perf_counter

import cli_pass
import oracle
from spans import Tracer
from hostclock import HostClock
from worker import OUT, Ledger, run_round
from workloads import CLOSURE_TOL, WORKLOADS, lengths, off_wall, residual, rng_for

# metric -> (span name, workload whose requests call it directly)
CALLS = {
    "chambers.classify_ms": ("chambers.classify", "exact"),
    "chambers.relevant_subsets_ms": ("chambers.relevant_subsets", "exact"),
    "cone.param_sample_ms": ("cone.param_sample", "exact"),
    "cone.param_contains_ms": ("cone.param_contains", "exact"),
    "realize.close_ms": ("realize.close", "geometry"),
    "realize.moduli_point_ms": ("realize.moduli_point", "geometry"),
    "realize.close_degenerate_ms": ("realize.close_degenerate", "geometry"),
    "realize.transport_ms": ("realize.transport", "geometry"),
    "stable.stabilize_ms": ("stable.stabilize", "geometry"),
    "stable.validate_ms": ("stable.validate", "geometry"),
    "stable.to_stable_curve_ms": ("stable.to_stable_curve", "geometry"),
    "cohomology.stable_betti_ms": ("cohomology.stable_betti", "betti"),
    "cohomology.poincare_wall_crossing_ms": ("cohomology.poincare_wall_crossing", "betti"),
    "cohomology.schedule_ms": ("cohomology.schedule", "betti"),
    "realize.close_boundary_ms": ("realize.close", "boundary"),
}

# sweep points reported as metrics: (sweep, n) -> metric
SWEEP_METRICS = {
    ("signature", 8): "chambers.signature.n8_ms",
    ("signature", 10): "chambers.signature.n10_ms",
    ("signature", 12): "chambers.signature.n12_ms",
    ("stable_betti_central", 8): "cohomology.stable_betti.central_n8_ms",
    ("poincare_wall_crossing", 11): "cohomology.poincare_wall_crossing.n11_ms",
}


def _time(call, reps):
    times, out = [], None
    for _ in range(reps):
        t0 = perf_counter()
        out = call()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3, out


def sweep(sg, seed):
    """Each layer swept over n; returns (rows, problems).  A row is (sweep, n, ms)."""
    rows, bad = [], []
    for n in range(8, 13):
        r, table = off_wall(rng_for("sweep-signature", seed, n), n, 1, 3)
        ms, sig = _time(lambda: sg.signature(r), 5 if n <= 10 else 3)
        rows.append(("signature", n, ms))
        if {w.J: s for w, s in sig.signs.items()} != table.signs():
            bad.append(f"signature at n={n}")
    for n in range(5, 9):
        ms, poly = _time(lambda: sg.stable_betti(oracle.central_vector(n)), 1)
        rows.append(("stable_betti_central", n, ms))
        if poly.coeffs != oracle.keel(n):
            bad.append(f"stable_betti(central n={n}) != Keel")
    for n in range(5, 12):
        r, _ = off_wall(rng_for("sweep-wall-crossing", seed, n), n, 1, 4)
        ms, poly = _time(lambda: sg.poincare_wall_crossing(r), 3)
        rows.append(("poincare_wall_crossing", n, ms))
        if poly.coeffs != oracle.short_subset_poincare(r):
            bad.append(f"poincare_wall_crossing at n={n}")
    for n in (4, 8, 16, 32, 64):
        r = lengths(rng_for("sweep-close", seed, n), n, 1, 2)
        ms, frame = _time(lambda: sg.close(r, seed=seed), 5)
        rows.append(("close", n, ms))
        if residual(r, frame.u) > CLOSURE_TOL:
            bad.append(f"close at n={n}")
    for exponent in (1, 2, 3):
        r = (1, 1, 1, 3 - Fraction(1, 10**exponent))
        ms, frame = _time(lambda: sg.close(r, seed=0), 1)
        rows.append(("close_delta", f"1e-{exponent}", ms))
        if residual(r, frame.u) > CLOSURE_TOL:
            bad.append(f"close at delta=1e-{exponent}")
    return rows, bad


def run(selected, seed):
    import stablegons as sg
    import stablegons.cli

    tracer = Tracer()
    clock = HostClock()
    clock.start()
    metrics, attempted, failed, problems = {}, 0, 0, []
    for wl in WORKLOADS.values():
        inputs = wl.round_inputs(seed, 0)
        wl.request(sg, wl.warmup_input())
        ledger = Ledger(wl)
        plain, _, outcomes = run_round(sg, wl, inputs, clock)
        ledger.add(inputs, outcomes)
        tracer.install()
        try:
            traced, _, outcomes = run_round(sg, wl, inputs, clock, tracer)
        finally:
            tracer.uninstall()
        ledger.add(inputs, outcomes)
        metrics[f"trace.overhead.{wl.name}_pct"] = 100.0 * (traced / plain - 1.0)
        _, bad_count, bad = ledger.check()
        attempted += ledger.count
        failed += bad_count
        problems += bad
        ledger.close()
    clock.stop()

    for metric, (span, workload) in CALLS.items():
        values = tracer.durations(span, workload)
        metrics[metric] = statistics.median(values) * 1e3 if values else None
    metrics["realize.close_boundary_failed"] = len(tracer.durations("realize.close", "boundary", ok=False))
    # the boundary workload is one close call per request, reported above;
    # its stalls would swamp the realize time of the geometry workload
    busy, calls = tracer.layer_totals(("exact", "geometry", "betti"))
    for layer in ("chambers", "cone", "realize", "stable", "cohomology"):
        metrics[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)

    rows, bad = sweep(sg, seed)
    attempted += len(rows)
    failed += len(bad)
    problems += bad
    for name, n, ms in rows:
        if (name, n) in SWEEP_METRICS:
            metrics[SWEEP_METRICS[(name, n)]] = ms

    cli_metrics, cli_attempted, cli_failed, cli_bad = cli_pass.run(stablegons.cli)
    metrics.update(cli_metrics)
    attempted += cli_attempted
    failed += cli_failed
    problems += cli_bad

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{selected}-{seed}.json.gz"
    tracer.write(path, {"sweep": rows, "metrics": metrics, "problems": problems})
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "spans": len(tracer.fn),
        "trace_file": os.path.relpath(path),
    }
