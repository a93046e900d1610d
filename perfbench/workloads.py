"""The benchmark's workloads: seeded inputs, one kind of request each, and checks.

Every workload issues one kind of request, a fixed composite of public calls
of one size class, so that its latencies form one continuous mode.  Inputs are
built and classified here with the exact integer code of :mod:`oracle`, never
through the library under test, so set-up time does not move with the
library's chamber arithmetic.  A run issues whole rounds of ``size`` requests;
round ``k`` of seed ``s`` always has the same inputs.  Quantities that set a
request's cost (n, the size of the degenerate class, the boundary gap) are
stratified across the positions of a round rather than drawn freely, so the
cost of a round barely depends on the seed.

A request returns the library's raw output.  :meth:`record` turns it into plain
data between rounds (outside every timer), and :meth:`check` compares that
data with the oracle once the timed phase has ended.

numpy is imported inside the check helpers only: the worker imports this
module before set-up is timed, and set-up must include the library's own
import of numpy.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import oracle

CLOSURE_TOL = 1e-10  # the library's default closure tolerance
MOBIUS_TOL = 1e-8  # chordal tolerance on cross-ratios


def rng_for(*parts) -> random.Random:
    """A generator seeded by the joined parts (string seeds hash stably)."""
    return random.Random(":".join(str(p) for p in parts))


def lengths(rng, n, lo, hi, den=1000):
    """n exact lengths drawn uniformly from [lo, hi] on a grid of 1/den."""
    return tuple(Fraction(rng.randint(lo * den, hi * den), den) for _ in range(n))


# ---------------------------------------------------------------------------
# geometric checks, computed from the raw directions
# ---------------------------------------------------------------------------


def residual(r, u) -> float:
    """|sum_i r_i u_i| recomputed from exact lengths and the direction rows."""
    import numpy as np

    return float(np.linalg.norm(np.array([float(x) for x in r]) @ np.asarray(u)))


def unit_rows(u) -> bool:
    import numpy as np

    return bool(np.all(np.abs(np.linalg.norm(np.asarray(u), axis=1) - 1.0) <= 1e-12))


def stereo(u):
    """Homogeneous stereographic coordinates, one pair per direction row."""
    import numpy as np

    out = np.empty((len(u), 2), dtype=complex)
    for i, (x, y, z) in enumerate(np.asarray(u)):
        out[i] = (complex(x, y), 1.0 - z) if z <= 0 else (1.0 + z, complex(x, -y))
    return out


def cross_ratios(pairs) -> list:
    """[(a,b;c,k)] for anchors a, b, c = points 0, 1, 2 and every later k."""
    det = lambda p, q: p[0] * q[1] - p[1] * q[0]
    a, b, c = pairs[0], pairs[1], pairs[2]
    return [
        (det(a, c) * det(b, d), det(a, d) * det(b, c)) for d in pairs[3:]
    ]


def chordal_gap(xs, ys) -> float:
    """Largest chordal distance between matching cross-ratios."""
    worst = 0.0
    for (n1, d1), (n2, d2) in zip(xs, ys):
        num = abs(n1 * d2 - d1 * n2)
        den = math.hypot(abs(n1), abs(d1)) * math.hypot(abs(n2), abs(d2))
        worst = max(worst, num / den if den > 0 else float("inf"))
    return worst


def curve_problems(n, vertices, edges) -> list:
    """A stable curve must be a tree, legs must partition {1..n}, >= 3 special points."""
    bad = []
    index = {v[0]: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    degree = [0] * len(vertices)
    for a, b in edges:
        ia, ib = index[a], index[b]
        degree[ia] += 1
        degree[ib] += 1
        ra, rb = find(ia), find(ib)
        if ra == rb:
            bad.append("curve has a cycle")
        parent[ra] = rb
    if len(edges) != len(vertices) - 1:
        bad.append("curve is not connected")
    legs = sorted(j for _, vlegs in vertices for j in vlegs)
    if legs != list(range(1, n + 1)):
        bad.append(f"legs {legs} do not partition 1..{n}")
    for (subset, vlegs), deg in zip(vertices, degree):
        if len(vlegs) + deg < 3:
            bad.append(f"component {list(subset)} has {len(vlegs) + deg} special points")
    return bad


@functools.cache
def central_signs(n):
    return oracle.SubsetTable(oracle.central_vector(n)).signs()


def off_wall(rng, n, lo, hi):
    """An interior length vector off every wall, and its subset-sum table."""
    while True:
        r = lengths(rng, n, lo, hi)
        table = oracle.SubsetTable(r)
        if table.in_cone_interior() and not table.zeros():
            return r, table


def classify_problems(r, got) -> list:
    """Compare a classify report, reduced to plain data, with the subset-sum table.

    ``got`` has the keys signs, walls_on, line_gons, smooth, interior,
    favorable, nabla and central.
    """
    bad = []
    table = oracle.SubsetTable(r)
    signs = table.signs()
    zeros = table.zeros()
    if got["signs"] != signs:
        bad.append("signature differs from the subset-sum table")
    if got["walls_on"] != zeros or got["line_gons"] != zeros:
        bad.append(f"walls {got['walls_on']} or line-gons {got['line_gons']} != {zeros}")
    if got["smooth"] != (not zeros) or got["interior"] != table.in_cone_interior():
        bad.append("smooth/interior flags")
    if got["favorable"] != table.favorable_index():
        bad.append(f"favorable index {got['favorable']} != {table.favorable_index()}")
    if got["nabla"] != table.nabla_index():
        bad.append("nabla index")
    if got["central"] != (signs == central_signs(len(r))):
        bad.append("central flag")
    return bad


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    size = 0  # requests per round

    def make(self, seed, rnd, k):
        """Input of request k of round rnd."""
        raise NotImplementedError

    def round_inputs(self, seed, rnd):
        return [self.make(seed, rnd, k) for k in range(self.size)]

    def warmup_input(self):
        """Input of the warm-up request; the same for every seed, so set-up
        time does not depend on which inputs a seed happens to draw."""
        return self.make("warm-up", 0, 1)

    def expects_failure(self, inp) -> bool:
        return False


class Exact(Workload):
    """classify and relevant_subsets at n=10, param_sample and param_contains at n=8.

    One request in four lies exactly on a wall.
    """

    name = "exact"
    size = 16
    n = 10
    sample_n = 8

    def make(self, seed, rnd, k):
        rng = rng_for(self.name, seed, rnd, k)
        on_wall = k % 4 == 0
        while True:
            r = lengths(rng, self.n, 1, 3)
            if on_wall:
                r = list(r)
                J = rng.sample(range(self.n), rng.randint(2, self.n - 2))
                gap = 2 * sum(r[j] for j in J) - sum(r)
                side = [j for j in range(self.n) if (j in J) == (gap < 0)]
                r[rng.choice(side)] += abs(gap)
                r = tuple(r)
            table = oracle.SubsetTable(r)
            if table.in_cone_interior() and bool(table.zeros()) == on_wall:
                return {"r": r, "sample_seed": rng.randrange(2**31)}

    def request(self, sg, inp):
        report = sg.classify(inp["r"])
        light = sg.relevant_subsets(inp["r"], 2, with_margins=True)
        point = sg.param_sample(self.sample_n, seed=inp["sample_seed"])
        return report, light, point, sg.param_contains(point)

    def record(self, inp, out):
        report, light, point, inside = out
        return {
            "signs": {w.J: s for w, s in report.signature.signs.items()},
            "walls_on": [tuple(J) for J in report.walls_on],
            "line_gons": [tuple(J) for J in report.line_gons],
            "smooth": report.smooth,
            "interior": report.in_cone_interior,
            "favorable": report.favorable_index,
            "nabla": report.nabla_index,
            "central": report.central,
            "light": [(tuple(J), m) for J, m in light],
            "sample_r": tuple(point.r.r),
            "sample_eps": {tuple(sorted(J)): v for J, v in point.eps.eps.items()},
            "sample_default": point.eps.default,
            "inside": inside,
        }

    def check(self, inp, rec):
        bad = classify_problems(inp["r"], rec)
        if rec["light"] != oracle.SubsetTable(inp["r"]).light_subsets(2):
            bad.append("relevant subsets or their margins differ")
        n = self.sample_n
        point = oracle.SubsetTable(rec["sample_r"])
        if point.signs() != central_signs(n) or point.zeros():
            bad.append("param_sample left the central chamber")
        want = [J for J, _ in point.light_subsets(3)]
        if sorted(rec["sample_eps"]) != want or rec["sample_default"] is not None:
            bad.append("param_sample slacks are not indexed by R_{>2}(r)")
        for J, v in rec["sample_eps"].items():
            if not 0 < v < 2 * min(rec["sample_r"][j - 1] for j in J):
                bad.append(f"slack {v} for {J} outside its range")
        if n + len(rec["sample_eps"]) != oracle.param_dim(n):
            bad.append("n + #eps != 2^(n-1) - (n^2-n+2)/2")
        if rec["inside"] is not True:
            bad.append("param_contains rejected a sampled point")
        return bad


class Geometry(Workload):
    """close, canonicalize, moduli_point, then a degenerate frame and its curve.

    n runs over 5..12 and the degenerate class J over sizes 2 and 3 (3 only
    for n >= 7), evenly in every round.  Requests with n <= 7 add a transport
    round trip; larger n are left out because the exact chamber check inside
    transport costs 2^n wall evaluations and would make this a chamber
    workload.
    """

    name = "geometry"
    size = 32
    transport_max_n = 7

    def make(self, seed, rnd, k):
        rng = rng_for(self.name, seed, rnd, k)
        n = 5 + k % 8
        size = 2 + (k // 8) % 2 if n >= 7 else 2
        while True:
            # entries in [1, 2] keep the longest edge at most 2/3 of half the
            # perimeter, far from the slow boundary of the cone
            r = lengths(rng, n, 1, 2)
            table = oracle.SubsetTable(r)
            if table.zeros():
                continue
            # a class that is light by a tenth of the perimeter, so its
            # collapsed polygon is not near the cone boundary either
            classes = [
                J
                for J, m in table.light_subsets(2)
                if len(J) == size and 10 * m <= -sum(r)
            ]
            if classes:
                break
        inp = {"r": r, "J": rng.choice(classes), "seed": rng.randrange(2**31)}
        if n <= self.transport_max_n:
            lo, hi = table.last_edge_interval()
            end = hi if k % 2 else lo
            inp["target"] = r[-1] + end * Fraction(rng.randint(20, 60), 100)
        return inp

    def request(self, sg, inp):
        r, seed = inp["r"], inp["seed"]
        frame = sg.close(r, seed=seed)
        canon = sg.canonicalize(frame)
        point = sg.moduli_point(frame)
        degenerate = sg.close_degenerate(r, [inp["J"]], seed=seed)
        sp = sg.stabilize(degenerate, sg.EpsilonAssignment.canonical(r), filler=seed)
        report = sg.validate(sp)
        curve = sg.to_stable_curve(sp)
        there = back = None
        if "target" in inp:
            there = sg.transport(frame, inp["target"])
            back = sg.transport(there, r[-1])
        return frame, canon, point, degenerate, sp, report, curve, there, back

    def record(self, inp, out):
        frame, canon, point, degenerate, sp, report, curve, there, back = out
        rec = {
            "u": frame.u,
            "canon": canon.u,
            "pairs": point.pairs,
            "degenerate": degenerate.u,
            "valid": report.ok,
            "bubbles": [(nd.subset, tuple(nd.frame.lengths.r), nd.frame.u)
                        for nd in sp.bubbles()],
            "vertices": [(v.subset, tuple(v.legs)) for v in curve.vertices],
            "edges": [(tuple(a), tuple(b)) for a, b in curve.edges],
        }
        if there is not None:
            rec["there"] = (tuple(there.lengths.r), there.u)
            rec["back"] = (tuple(back.lengths.r), back.u)
        return rec

    def check(self, inp, rec):
        bad = []
        r, J = inp["r"], inp["J"]
        n = len(r)
        if residual(r, rec["u"]) > CLOSURE_TOL or not unit_rows(rec["u"]):
            bad.append("closed frame has residual above 1e-10")
        canon = rec["canon"]
        if residual(r, canon) > CLOSURE_TOL or abs(canon[0] - (1, 0, 0)).max() > 1e-12:
            bad.append("canonical frame is not closed or u_1 != (1,0,0)")
        own = cross_ratios(stereo(rec["u"]))
        if chordal_gap(own, cross_ratios(stereo(canon))) > MOBIUS_TOL:
            bad.append("canonicalize moved the cross-ratios")
        if chordal_gap(own, cross_ratios(rec["pairs"])) > MOBIUS_TOL:
            bad.append("moduli_point cross-ratios differ from the frame's own")
        deg = rec["degenerate"]
        if residual(r, deg) > CLOSURE_TOL or not unit_rows(deg):
            bad.append("degenerate frame has residual above 1e-10")
        if abs(deg[[j - 1 for j in J]] - deg[J[0] - 1]).max() > 1e-12:
            bad.append(f"edges {J} are not parallel in the degenerate frame")
        if not rec["valid"]:
            bad.append("validate rejected the stabilized polygon")
        eps = min(r)
        want = tuple(r[j - 1] for j in J) + (sum(r[j - 1] for j in J) - eps,)
        if [(s, ls) for s, ls, _ in rec["bubbles"]] != [(tuple(J), want)]:
            bad.append(f"bubbles {[b[0] for b in rec['bubbles']]} != [{J}] with augmented lengths")
        for _, ls, u in rec["bubbles"]:
            if residual(ls, u) > CLOSURE_TOL:
                bad.append("bubble frame is not closed")
        bad += curve_problems(n, rec["vertices"], rec["edges"])
        if "target" in inp:
            for tag, (ls, u) in (("there", rec["there"]), ("back", rec["back"])):
                want_r = r[:-1] + ((inp["target"],) if tag == "there" else (r[-1],))
                if ls != want_r or residual(ls, u) > CLOSURE_TOL:
                    bad.append(f"transport {tag}: wrong lengths or residual above 1e-10")
                if chordal_gap(own, cross_ratios(stereo(u))) > MOBIUS_TOL:
                    bad.append(f"transport {tag}: cross-ratios moved by more than 1e-8")
        return bad


class Betti(Workload):
    """stable_betti at n=6 and poincare_wall_crossing plus schedule at n=9.

    Lengths are drawn from [1, 4], which spans many chambers; every vector is
    off every wall.
    """

    name = "betti"
    size = 12

    def make(self, seed, rnd, k):
        rng = rng_for(self.name, seed, rnd, k)
        return {key: off_wall(rng, n, 1, 4)[0] for key, n in (("r6", 6), ("r9", 9))}

    def request(self, sg, inp):
        return (
            sg.stable_betti(inp["r6"]),
            sg.poincare_wall_crossing(inp["r9"]),
            sg.schedule(inp["r9"]),
        )

    def record(self, inp, out):
        stable, wall, steps = out
        return {
            "stable": stable.coeffs,
            "wall": wall.coeffs,
            "steps": [(s.kind, tuple(s.center), s.codim, s.nontrivial) for s in steps],
        }

    def check(self, inp, rec):
        bad = []
        if rec["stable"] != oracle.keel(6):
            bad.append(f"stable_betti {rec['stable']} != Keel {oracle.keel(6)}")
        want = oracle.short_subset_poincare(inp["r9"])
        if rec["wall"] != want:
            bad.append(f"poincare_wall_crossing {rec['wall']} != short subsets {want}")
        if rec["steps"] != oracle.SubsetTable(inp["r9"]).schedule():
            bad.append("schedule differs from the light subsets of the table")
        return bad


class Boundary(Workload):
    """close on small-n vectors whose longest edge nearly reaches half the perimeter.

    r = (b_1, .., b_{n-1}, S - delta S / 3) with S = sum b and b_i in
    [1, 1.2], so that (1, 1, 1, 3 - delta) is the equal-body case.  Positions
    1..size-1 of a round take delta log-uniform over [1e-2, 1e-1], one per
    stratum, and n alternating 4, 5.  Position 0 is always (1, 1, 1, 3 - 1e-4) with close
    seed 0: the descent stalls at its iteration cap although r is interior,
    so this request fails with NonConvergence in every round.
    """

    name = "boundary"
    size = 121
    low, high = -2.0, -1.0  # log10 range of delta
    stall = Fraction(1, 10**4)

    def make(self, seed, rnd, k):
        if k == 0:
            return {"r": (1, 1, 1, 3 - self.stall), "seed": 0, "delta": self.stall}
        rng = rng_for(self.name, seed, rnd, k)
        strata = self.size - 1
        t = (k - 1 + rng.random()) / strata
        delta = Fraction(round(10 ** (6 + self.low + t * (self.high - self.low))), 10**6)
        # near-equal bodies: the cost of a close then depends on delta and
        # n, not on the shape of the body, so rounds cost the same per seed
        body = tuple(Fraction(rng.randint(1000, 1200), 1000) for _ in range(3 + k % 2))
        total = sum(body)
        return {
            "r": body + (total - delta * total / 3,),
            "seed": rng.randrange(2**31),
            "delta": delta,
        }

    def warmup_input(self):
        return self.make("warm-up", 0, self.size - 1)  # the widest gap

    def expects_failure(self, inp):
        return inp["delta"] <= self.stall

    def request(self, sg, inp):
        return sg.close(inp["r"], seed=inp["seed"])

    def record(self, inp, out):
        return {"u": out.u}

    def check(self, inp, rec):
        if residual(inp["r"], rec["u"]) > CLOSURE_TOL or not unit_rows(rec["u"]):
            return ["closed frame has residual above 1e-10"]
        return []


WORKLOADS = {w.name: w for w in (Exact(), Geometry(), Betti(), Boundary())}
