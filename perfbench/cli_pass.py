"""Every command-line example of the library's README, run in-process.

Each example goes through ``stablegons.cli.main(argv)`` with stdout captured;
it must exit 0 and print output that agrees with :mod:`oracle` (or, for a
frame, with its own recomputed residual).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import statistics
from fractions import Fraction
from time import perf_counter

import oracle
from workloads import CLOSURE_TOL, central_signs, classify_problems, curve_problems, residual

REPS = 3  # timed calls per example; the metric is their median

EXAMPLES = [
    ("classify", "classify --r 1,1,1,1,3.5"),
    ("realize", "realize --r 1,1,1,1,1 --seed 7"),
    ("stabilize", "stabilize --r 1,1,1,2,2,2 --parallel 1,2,3 --seed 2"),
    ("curve", "curve --r 1,1,1,2,2,2 --parallel 1,2,3 --out dot"),
    ("limit", "limit --r 1,1,1,2,2,2 --J 1,2,3 --seed 11"),
    ("strata", "strata --r 1,1,1,1,3.5"),
    ("schedule", "schedule --r 1,1,1,1,2 --out dot"),
    ("poincare_wallcross", "poincare --r 1,1,1,1,1,1,1 --method wallcross"),
    ("poincare_closed", "poincare --n 6 --method closed"),
    ("poincare_stable", "poincare --r 1,1,1,1,1 --method stable --eps canonical"),
    ("cone", "cone --n 7 --sample 100 --seed 1"),
]


def _frame_problems(r, frame):
    bad = []
    if residual(r, frame["u"]) > CLOSURE_TOL:
        bad.append("frame residual above 1e-10")
    if [Fraction(x) for x in frame["r"]] != [Fraction(x) for x in r]:
        bad.append(f"frame lengths {frame['r']} != {list(r)}")
    return bad


def check_classify(doc):
    res = doc["result"]
    return classify_problems([1, 1, 1, 1, Fraction(7, 2)], {
        "signs": {tuple(e["J"]): e["sign"] for e in res["signature"]},
        "walls_on": [tuple(J) for J in res["walls_on"]],
        "line_gons": [tuple(J) for J in res["line_gons"]],
        "smooth": res["smooth"],
        "interior": res["in_cone_interior"],
        "favorable": res["favorable_index"],
        "nabla": res["nabla_index"],
        "central": res["central"],
    })


def check_realize(doc):
    frame = doc["result"]
    bad = _frame_problems([1] * 5, frame)
    if max(abs(a - b) for a, b in zip(frame["u"][0], (1, 0, 0))) > 1e-12:
        bad.append("u_1 != (1,0,0) after canonicalize")
    return bad


def check_stabilize(doc):
    root = doc["result"]
    r = [1, 1, 1, 2, 2, 2]
    bad = _frame_problems(r, root["frame"])
    kids = root["children"]
    if root["subset"] != [1, 2, 3, 4, 5, 6] or [c["subset"] for c in kids] != [[1, 2, 3]]:
        return bad + ["bubble tree is not the single bubble at {1,2,3}"]
    # canonical slack min r = 1, so the bubble is (1, 1, 1, 3 - 1)
    if kids[0]["eps"] != "1" or kids[0]["children"]:
        bad.append("bubble slack or nesting")
    return bad + _frame_problems([1, 1, 1, 2], kids[0]["frame"])


def check_curve(text):
    vertices, edges = {}, []
    for a, b in re.findall(r'"(\[[\d,]+\]|leg\d+)" -- "(\[[\d,]+\]|leg\d+)"', text):
        A = tuple(json.loads(a))
        vertices.setdefault(A, [])
        if b.startswith("leg"):
            vertices[A].append(int(b[3:]))
        else:
            B = tuple(json.loads(b))
            vertices.setdefault(B, [])
            edges.append((A, B))
    bad = curve_problems(6, list(vertices.items()), edges)
    if vertices != {(1, 2, 3, 4, 5, 6): [4, 5, 6], (1, 2, 3): [1, 2, 3]}:
        bad.append(f"curve {vertices} is not the two-vertex tree")
    return bad


def check_limit(doc):
    return _frame_problems([1, 1, 1, 2], doc["result"])


def check_strata(doc):
    r = [1, 1, 1, 1, Fraction(7, 2)]
    want = set()
    for blocks in oracle.set_partitions(range(1, 6)):
        sums = [sum(r[j - 1] for j in b) for b in blocks]
        total, k = sum(sums), len(blocks)
        closed = k >= 2 and all(2 * s <= total for s in sums)
        if closed:
            open_ = k >= 3 and all(2 * s < total for s in sums)
            want.add((tuple(blocks), open_))
    got = {
        (tuple(tuple(b) for b in e["blocks"]), e["nonempty_open"])
        for e in doc["result"]["strata"]
    }
    return [] if got == want else ["strata differ from the set partitions"]


def check_schedule(text):
    got = [
        (kind, tuple(json.loads(center)), int(codim), shape == "box")
        for kind, center, codim, shape in re.findall(
            r'label="(\w+) (\[[\d, ]*\]) codim (\d+)", shape=(\w+)', text
        )
    ]
    want = oracle.SubsetTable([1, 1, 1, 1, 2]).schedule()
    return [] if got == want else [f"schedule {got} != {want}"]


def _poly(want):
    return lambda doc: [] if tuple(doc["result"]["coefficients"]) == want else [
        f"coefficients {doc['result']['coefficients']} != {list(want)}"
    ]


def check_cone(doc):
    res = doc["result"]
    bad = []
    if res["param_dim"] != oracle.param_dim(7) or res["dimension_check"] is not True:
        bad.append("param_dim or dimension_check")
    if len(res["points"]) != 100:
        bad.append("wrong number of samples")
    for p in res["points"]:
        r = [Fraction(x) for x in p["r"]]
        table = oracle.SubsetTable(r)
        eps = {tuple(int(j) for j in k.split(",")): Fraction(v) for k, v in p["eps"]["eps"].items()}
        if table.signs() != central_signs(7) or table.zeros():
            bad.append(f"sample {p['r']} is not central")
        if sorted(eps) != [J for J, _ in table.light_subsets(3)] or 7 + len(eps) != oracle.param_dim(7):
            bad.append("slacks are not indexed by R_{>2}(r)")
        if any(not 0 < v < 2 * min(r[j - 1] for j in J) for J, v in eps.items()):
            bad.append("slack outside its range")
    return bad


CHECKS = {
    "classify": check_classify,
    "realize": check_realize,
    "stabilize": check_stabilize,
    "curve": check_curve,
    "limit": check_limit,
    "strata": check_strata,
    "schedule": check_schedule,
    "poincare_wallcross": _poly(oracle.short_subset_poincare([1] * 7)),
    "poincare_closed": _poly(oracle.short_subset_poincare([1] * 6)),
    "poincare_stable": _poly(oracle.keel(5)),
    "cone": check_cone,
}


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run(cli):
    """Time and check every example; returns (metrics, attempted, failed, problems)."""
    metrics, failed, problems = {}, 0, []
    for name, line in EXAMPLES:
        argv = line.split()
        times, outputs = [], []
        for _ in range(REPS):
            t0 = perf_counter()
            outputs.append(call(cli, argv))
            times.append(perf_counter() - t0)
        metrics[f"cli.{name}_ms"] = statistics.median(times) * 1e3
        code, text, err = outputs[0]
        bad = []
        if any(o[0] != 0 for o in outputs):
            bad.append(f"exit codes {[o[0] for o in outputs]}: {err.strip()}")
        else:
            try:
                doc = text if "--out dot" in line else json.loads(text)
                bad = CHECKS[name](doc)
            except (ValueError, KeyError, TypeError) as exc:
                bad = [f"unreadable output: {exc!r}"]
        if bad:
            failed += 1
            problems += [f"cli {line}: {b}" for b in bad]
    return metrics, len(EXAMPLES), failed, problems
