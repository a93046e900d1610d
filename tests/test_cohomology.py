import copy
import functools
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from stablegons import cohomology
from stablegons.chambers import (
    EpsilonAssignment,
    LengthVector,
    central_base,
    classify,
    line_gons,
    relevant_subsets,
)
from stablegons.cohomology import (
    BlowupStep,
    PoincarePoly,
    Stratum,
    ih_poincare_center,
    poincare_center,
    poincare_wall_crossing,
    schedule,
    stable_betti,
    strata,
)
from stablegons.errors import InvalidArgument, RangeError

F = Fraction


def set_partitions(items):
    """All set partitions of `items`, blocks and partitions in sorted form."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield tuple(
                sorted(
                    part[:i] + ((first,) + part[i],) + part[i + 1 :],
                    key=lambda b: b[0],
                )
            )
        yield tuple(sorted(part + ((first,),), key=lambda b: b[0]))


def reference_strata(r, include_empty=False):
    """The sorted-tuple enumeration of strata that the bitmask one replaced,
    kept as its reference; the trivial partition is always returned."""
    r = LengthVector(r)
    total = sum(r.ints)
    entries = []
    for blocks in set_partitions(range(1, r.n + 1)):
        merged = tuple(b for b in blocks if len(b) >= 2)
        sums = [sum(r.ints[j - 1] for j in b) for b in blocks]
        k = len(blocks)
        closed = k >= 2 and 2 * max(sums) <= total
        open_ = k >= 3 and 2 * max(sums) < total
        if not closed and not include_empty:
            continue
        entries.append(
            Stratum(
                blocks=blocks,
                k=k,
                dim=k - 3,
                merged=merged,
                nonempty_closed=closed,
                nonempty_open=open_,
                r_alpha=tuple(Fraction(x, r.den) for x in sums),
            )
        )
    index = {e.blocks: e for e in entries}
    edges = []
    for e in entries:
        if e.k < 2:
            continue
        for i, j in itertools.combinations(range(e.k), 2):
            fused = tuple(
                sorted(
                    tuple(sorted(e.blocks[i] + e.blocks[j])) if t == i else b
                    for t, b in enumerate(e.blocks)
                    if t != j
                )
            )
            if fused in index:
                edges.append((fused, e.blocks))
    return entries, edges


def brute_strata_counts(r):
    """Enumeration oracle: count nonempty strata by (dim, #merged blocks)."""
    n = len(r)
    total = sum(r)
    counts = {}
    for blocks in set_partitions(range(1, n + 1)):
        merged = [b for b in blocks if len(b) >= 2]
        if not merged:
            continue
        sums = [sum(r[j - 1] for j in b) for b in blocks]
        if all(2 * s <= total for s in sums):
            key = (len(blocks) - 3, len(merged))
            counts[key] = counts.get(key, 0) + 1
    return counts


def off_wall_random(rng, n):
    while True:
        r = LengthVector([F(rng.randint(8, 24), 8) for _ in range(n)])
        rep = classify(r)
        if rep.in_cone_interior and rep.smooth:
            return r


def off_wall_spread(rng, n):
    """Interior off-wall integer vector; the spread of its entries is drawn too,
    so that chambers near the favorable and the central one both occur."""
    hi = rng.choice((3, 30, 3000))
    while True:
        r = LengthVector([rng.randint(1, hi) for _ in range(n)])
        if r.in_cone_interior() and not line_gons(r):
            return r


def short_subset_poincare(r):
    """Hausmann-Knutson: with m a longest edge, the sum over short S containing
    m of (t^(2(|S|-1)) - t^(2(n-1-|S|))) / (1 - t^2)."""
    r = list(r)
    n, total = len(r), sum(r)
    m = r.index(max(r))
    coeffs = [0] * (n - 2)
    for size in range(1, n):
        for S in itertools.combinations(range(n), size):
            if m in S and 2 * sum(r[i] for i in S) < total:
                a, b = size - 1, n - 1 - size
                for i in range(min(a, b), max(a, b)):
                    coeffs[i] += 1 if a < b else -1
    return PoincarePoly(coeffs)


def keel(n):
    """Keel's recursion for the Poincare polynomial of M_{0,n}-bar: P_3 = 1 and
    P_{m+1} = (1 + q) P_m + (q/2) sum_{j=2}^{m-2} C(m, j) P_{j+1} P_{m-j+1}."""
    if n == 3:
        return PoincarePoly.one()
    m = n - 1
    acc = PoincarePoly()
    for j in range(2, m - 1):
        acc = acc + comb(m, j) * (keel(j + 1) * keel(m - j + 1))
    assert all(c % 2 == 0 for c in acc.coeffs)
    half = PoincarePoly([0] + [c // 2 for c in acc.coeffs])
    return PoincarePoly([1, 1]) * keel(m) + half


@functools.cache
def blowup_route(lengths, centers):
    """E-polynomial of M_r blown up along `centers` in order.

    Y_J is M_{r_J}, with J merged into one new last edge; its proper
    transform is M_{r_J} blown up along the earlier centers: a superset L of
    J becomes (L - J) plus the new edge, a disjoint L stays, and an
    overlapping L drops, since blowing up L | J first separated it from J."""
    n = len(lengths)
    acc = PoincarePoly.one() if n == 3 else poincare_wall_crossing(lengths)
    for i, J in enumerate(centers):
        rest = [j for j in range(1, n + 1) if j not in J]
        relabel = {j: t for t, j in enumerate(rest, 1)}
        star = len(rest) + 1
        induced = tuple(
            frozenset(relabel[j] for j in L - J) | ({star} if J < L else set())
            for L in centers[:i]
            if J < L or not L & J
        )
        merged = tuple(lengths[j - 1] for j in rest) + (
            sum(lengths[j - 1] for j in J),
        )
        gain = PoincarePoly.projective(len(J) - 2) - PoincarePoly.one()
        acc = acc + blowup_route(merged, induced) * gain
    return acc


def random_legal_eps(rng, r):
    """A default slack and explicit slacks for about half the relevant J,
    each a random point strictly inside its legal range (0, 2 min_J r_j)."""
    lo = 2 * min(r.r)
    eps = {
        J: F(rng.randint(1, 999), 1000) * 2 * min(r.r[j - 1] for j in J)
        for J in relevant_subsets(r, 2)
        if rng.random() < 0.5
    }
    assignment = EpsilonAssignment(eps, default=F(rng.randint(1, 999), 1000) * lo)
    assert assignment.legal_for(r)
    return assignment


class ReferenceBettiEngine:
    """The per-subset engine that the size-keyed bubble sums B(m) replaced,
    kept as their reference.  Each bubble over a mask J reads its children
    from its own lengths, scaled by the slack eps_J, and its sum is kept per
    J; the root and every bubble share one mask DP over the labels left."""

    def __init__(self, r, eps):
        self.r = r
        self.eps = eps
        self.n = r.n
        self.sums = r.subset_sums()
        self._bubble = {}

    def bubble_sum(self, J):
        if J not in self._bubble:
            labels = [j + 1 for j in range(self.n) if J >> j & 1]
            if len(labels) == 2:
                self._bubble[J] = (1,)
            else:
                # integer lengths: this bubble's are taken times q * r.den,
                # with q the denominator of eps_J * r.den
                slack = self.eps.get(labels) * self.r.den
                q = slack.denominator
                last = q * self.sums[J] - slack.numerator  # the closing edge
                self._bubble[J] = self._families(J, q, last)
        return self._bubble[J]

    def _families(self, ground, q, last=0):
        sums = self.sums
        total = q * sums[ground] + last
        children = {}
        sub = (ground - 1) & ground
        while sub:
            if sub & (sub - 1) and 2 * q * sums[sub] < total:
                children.setdefault(sub & -sub, []).append(
                    (sub, self.bubble_sum(sub))
                )
            sub = (sub - 1) & ground
        closing = 1 if last > 0 else 0
        out = []
        for k, acc in enumerate(self._forest(ground, children, {0: [[1]]})):
            if acc:
                cohomology._poly_add_into(
                    out, cohomology._poly_mul(cohomology._e_open(k + closing), acc)
                )
        return tuple(out)

    def _forest(self, R, children, memo):
        got = memo.get(R)
        if got is not None:
            return got
        low = R & -R
        out = [[]] + [list(p) for p in self._forest(R ^ low, children, memo)]
        for C, poly in children.get(low, ()):
            if C & R == C:
                for k, p in enumerate(self._forest(R ^ C, children, memo)):
                    if p:
                        cohomology._poly_add_into(
                            out[k + 1], cohomology._poly_mul(p, poly)
                        )
        memo[R] = out
        return out


def reference_stable_betti(r, eps=None):
    r = LengthVector(r)
    if eps is None:
        eps = EpsilonAssignment.canonical(r)
    return PoincarePoly(ReferenceBettiEngine(r, eps)._families((1 << r.n) - 1, 1))


class TestPoincarePoly:
    def test_arithmetic(self):
        p2 = PoincarePoly.projective(2)
        assert p2.coeffs == (1, 1, 1)
        assert (p2 - PoincarePoly.projective(1)).coeffs == (0, 0, 1)
        assert (3 * PoincarePoly([0, 1])).coeffs == (0, 3)
        assert (PoincarePoly([1, 1]) * PoincarePoly([1, 1])).coeffs == (1, 2, 1)

    def test_palindromic_and_euler(self):
        assert PoincarePoly([1, 5, 1]).palindromic()
        assert not PoincarePoly([1, 2]).palindromic()
        assert PoincarePoly([1, 5, 1]).at_one() == 7


class TestStrata:
    def test_kapranov_point_and_line_centers(self):
        entries, _ = strata(("1", "1", "1", "1", "3.5"))
        single = [e for e in entries if e.single_block and e.nonempty_closed]
        assert sum(1 for e in single if e.dim == 0) == 4
        assert sum(1 for e in single if e.dim == 1) == 6
        # the four point centers merge a triple inside {1..4}
        triples = {e.merged[0] for e in single if e.dim == 0}
        assert triples == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}

    def test_block_with_heavy_edge_is_empty(self):
        entries, _ = strata(("1", "1", "1", "1", "3.5"), include_empty=True)
        bad = next(
            e
            for e in entries
            if e.merged == ((4, 5),) and len(e.blocks) == 4
        )
        assert not bad.nonempty_closed

    def test_equilateral_pentagon_counts_match_oracle(self):
        r = [F(1)] * 5
        oracle = brute_strata_counts(r)
        # 10 single pairs, 15 double pairs, no triples
        assert oracle.get((1, 1)) == 10
        assert oracle.get((0, 2)) == 15
        assert oracle.get((0, 1)) is None
        entries, _ = strata(r)
        got = {}
        for e in entries:
            if e.merged and e.nonempty_closed:
                key = (e.dim, len(e.merged))
                got[key] = got.get(key, 0) + 1
        assert got == oracle

    def test_poset_edges_respect_refinement(self):
        entries, edges = strata([1] * 5)
        blocks = {e.blocks for e in entries}
        for alpha, beta in edges:
            assert alpha in blocks and beta in blocks
            # beta refines alpha: each beta-block sits inside an alpha-block
            lookup = {j: i for i, b in enumerate(alpha) for j in b}
            for b in beta:
                assert len({lookup[j] for j in b}) == 1

    def test_matches_sorted_tuple_reference(self):
        # every field of every entry and every edge, in order; n = 8 is drawn
        # only twice to keep the sorted-tuple reference cheap
        rng = random.Random(20270)
        for i, n in enumerate((3, 4, 5, 6) * 6 + (7,) * 4 + (8,) * 2):
            include_empty = i % 2 == 1
            while True:
                r = LengthVector(
                    [F(rng.randint(1, rng.choice((3, 12, 97))), rng.choice((1, 2, 7)))
                     for _ in range(n)]
                )
                if r.in_cone_interior():
                    break
            want = reference_strata(r, include_empty)
            assert strata(r, include_empty) == want, (r, include_empty)

    def test_stratum_is_a_record(self):
        fields = dict(
            blocks=((1, 2), (3,), (4,), (5,)), k=4, dim=1, merged=((1, 2),),
            nonempty_closed=True, nonempty_open=True, r_alpha=(F(2), F(1), F(1), F(7, 2)),
        )
        entries, _ = strata(("1", "1", "1", "1", "3.5"))
        e = next(e for e in entries if e.blocks == fields["blocks"])
        assert e == Stratum(**fields) == Stratum(*fields.values())
        assert e != Stratum(**dict(fields, nonempty_open=False))
        assert e != tuple(fields.values())
        with pytest.raises(TypeError):
            hash(e)
        assert e.to_json() == {
            "blocks": [[1, 2], [3], [4], [5]], "k": 4, "dim": 1, "merged": [[1, 2]],
            "nonempty_closed": True, "nonempty_open": True, "r_alpha": ["2", "1", "1", "7/2"],
        }
        assert repr(e).startswith("Stratum(blocks=((1, 2), (3,), (4,), (5,)), k=4, dim=1,")

    def test_set_partitions_is_gone(self):
        assert not hasattr(cohomology, "set_partitions")


class TestSchedule:
    def test_kapranov_schedule(self):
        steps = schedule(("1", "1", "1", "1", "3.5"))
        kinds = [(s.kind, s.nontrivial, len(s.center)) for s in steps]
        assert kinds[:4] == [("blowup", True, 3)] * 4
        assert kinds[4:] == [("blowup", False, 2)] * 6
        assert [s.codim for s in steps] == [2] * 4 + [1] * 6

    def test_equilateral_pentagon_all_trivial(self):
        steps = schedule([1] * 5)
        assert all(s.kind == "blowup" and not s.nontrivial for s in steps)
        assert len(steps) == 10

    def test_on_wall_resolution_first(self):
        steps = schedule((1, 1, 1, 1, 2))
        res = [s for s in steps if s.kind == "resolution"]
        assert [s.center for s in res] == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        assert steps[: len(res)] == res
        blow = [s for s in steps if s.kind == "blowup"]
        assert len(blow) == 6 and all(len(s.center) == 2 for s in blow)

    def test_eps_annotation(self):
        eps = EpsilonAssignment.canonical(LengthVector([1] * 5))
        steps = schedule([1] * 5, eps)
        assert all(s.eps == 1 for s in steps if s.kind == "blowup")

    @pytest.mark.parametrize("default", [5, -3, 2])
    def test_illegal_slack_is_a_range_error(self, default):
        with pytest.raises(RangeError, match="slacks"):
            schedule([1] * 5, EpsilonAssignment(default=default))

    def test_steps_are_frozen(self):
        steps = schedule((1, 1, 1, 1, 2), EpsilonAssignment(default=1))
        for step in (steps[0], steps[-1], schedule([1] * 6)[0]):
            eps = step.eps
            with pytest.raises(AttributeError):
                step.eps = F(1, 2)
            assert step.eps is eps

    def test_step_is_a_read_only_value(self):
        step = BlowupStep("blowup", (1, 2, 3), 2, True)
        assert repr(step) == (
            "BlowupStep(kind='blowup', center=(1, 2, 3), codim=2, nontrivial=True, eps=None)"
        )
        assert step == BlowupStep(kind="blowup", center=(1, 2, 3), codim=2, nontrivial=True)
        assert step != BlowupStep("blowup", (1, 2, 3), 2, True, F(1, 2))
        assert step != ("blowup", (1, 2, 3), 2, True, None)
        assert hash(step) == hash(("blowup", (1, 2, 3), 2, True, None))
        assert {step: 1}[BlowupStep("blowup", (1, 2, 3), 2, True, None)] == 1
        annotated = BlowupStep("blowup", (1, 2), 1, False, F(1, 3))
        for s in (step, annotated):
            for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
                assert twin == s and hash(twin) == hash(s) and type(twin) is BlowupStep
        for attempt in (
            lambda: setattr(step, "codim", 3),
            lambda: setattr(step, "extra", 1),
            lambda: delattr(step, "center"),
        ):
            with pytest.raises(AttributeError):
                attempt()
        assert step == BlowupStep("blowup", (1, 2, 3), 2, True)
        with pytest.raises(TypeError):
            BlowupStep("blowup", (1, 2, 3), 2)

    def test_annotation_leaves_the_shared_steps_alone(self):
        r = central_base(7)
        eps = EpsilonAssignment(default=min(r.r) / 2)
        assert all(s.eps == eps.default for s in schedule(r, eps))
        assert all(s.eps is None for s in schedule(r))
        assert all(s.eps is None for s in schedule([1] * 7))

    def test_matches_strictly_light_subsets(self):
        # reference built from the public chamber calls: resolution steps,
        # then the strictly light J deepest first; small integer entries put
        # many of these r on walls
        rng = random.Random(20267)
        on_wall = 0
        for i in range(70):
            n = 4 + i % 7
            hi = rng.choice((2, 3, 30))
            r = [rng.randint(1, hi) for _ in range(n)]
            if not LengthVector(r).in_cone_interior():
                continue
            walls = line_gons(r)
            on_wall += bool(walls)
            light = [
                J for J, d in relevant_subsets(r, 2, with_margins=True) if d < 0
            ]
            light.sort(key=lambda J: (-len(J), J))
            want = [BlowupStep("resolution", J, n - 3, True) for J in walls]
            want += [BlowupStep("blowup", J, len(J) - 1, len(J) >= 3) for J in light]
            assert schedule(r) == want, r
        assert on_wall >= 5


class TestWallCrossing:
    def test_equilateral_pentagon(self):
        assert poincare_wall_crossing([1] * 5).coeffs == (1, 5, 1)

    def test_equilateral_heptagon(self):
        assert poincare_wall_crossing([1] * 7).coeffs == (1, 7, 22, 7, 1)

    def test_favorable_chamber_is_projective_space(self):
        for n in (4, 5, 6, 7):
            r = [1] * (n - 1) + [n - 2]
            assert poincare_wall_crossing(r) == PoincarePoly.projective(n - 3)

    def test_matches_center_closed_form(self):
        for n in (5, 7):
            assert poincare_wall_crossing([1] * n) == poincare_center(n)

    def test_rejects_on_wall(self):
        with pytest.raises(InvalidArgument):
            poincare_wall_crossing((1, 1, 1, 1, 2))

    @pytest.mark.parametrize("n", range(5, 10))
    def test_rejects_a_vector_on_exactly_one_wall(self, n):
        # 2^n + 2^(i-1) for i < n have distinct subset sums, so setting r_n to
        # balance J against the rest puts r on the wall of J and on no other
        w = [2**n + 2 ** (i - 1) for i in range(1, n)]
        J = tuple(range(1, n - 1))
        r = w + [sum(w[: n - 2]) - w[n - 2]]
        assert classify(r).walls_on == [J]
        with pytest.raises(InvalidArgument, match="on a wall"):
            poincare_wall_crossing(r)
        with pytest.raises(InvalidArgument, match="on a wall"):
            stable_betti(r)

    def test_crossing_reversibility_and_duality(self):
        rng = random.Random(5)
        for n in (5, 6, 7):
            for _ in range(5):
                r = off_wall_random(rng, n)
                p = poincare_wall_crossing(r)
                assert p.palindromic()
                assert p == poincare_wall_crossing(r)

    def test_single_wall_step_is_the_crossing_gain(self):
        # (2,2,1,1,1) differs from the equilateral pentagon by the sign of
        # exactly one wall, {1,2}; the two independently computed polynomials
        # must differ by the surgery term of that one crossing, and crossing
        # back must cancel it exactly
        a = poincare_wall_crossing([1] * 5)
        b = poincare_wall_crossing((2, 2, 1, 1, 1))
        gain = PoincarePoly.projective(0) - PoincarePoly.projective(1)
        assert b == a + gain
        assert b - gain == a

    def test_simultaneous_crossings_are_counted(self):
        # walls {3,4,5,6,8} and {1,2,3,5,7,8} keep a 5:3 margin ratio at this
        # r, at the favorable reference and along every powers-of-two nudge
        # of it, so no straight segment from there meets them one at a time
        r = (
            F(997, 500), F(261, 200), F(759, 500), F(279, 125), F(2141, 1000),
            F(1473, 500), F(1319, 1000), F(254, 125), F(3451, 1000),
        )
        assert not line_gons(r)
        assert poincare_wall_crossing(r) == short_subset_poincare(r)

    def test_matches_short_subset_formula(self):
        rng = random.Random(20261)
        for i in range(320):
            r = off_wall_spread(rng, 4 + i % 8)
            assert poincare_wall_crossing(r) == short_subset_poincare(r), r

    def test_matches_stratification_sum(self):
        # the closed space of r is the disjoint union of its nonempty open
        # strata, and the open stratum of a k-block partition is M_{0,k}
        rng = random.Random(20265)
        for i in range(40):
            r = off_wall_spread(rng, 4 + i % 5)
            acc = PoincarePoly()
            for e in strata(r)[0]:
                if e.nonempty_open:
                    acc = acc + PoincarePoly(cohomology._e_open(e.k))
            assert acc == poincare_wall_crossing(r), r

    def test_iterated_blowup_of_the_schedule_is_keel(self):
        # E(M_{r,eps}) = E(M_r) + sum_J E(proper transform of Y_J)(P^{|J|-2} - 1)
        # over the blowup steps, and M_{r,eps} is M_{0,n}-bar
        rng = random.Random(20268)
        for i in range(20):
            r = off_wall_spread(rng, 4 + i % 5)
            centers = tuple(
                frozenset(s.center) for s in schedule(r) if s.kind == "blowup"
            )
            assert blowup_route(tuple(r.ints), centers) == keel(r.n), r

    def test_quadrilateral_always_a_line(self):
        rng = random.Random(9)
        for _ in range(10):
            r = off_wall_random(rng, 4)
            assert poincare_wall_crossing(r).coeffs == (1, 1)


class TestClosedForms:
    def test_center_pentagon(self):
        assert poincare_center(5).coeffs == (1, 5, 1)

    def test_intersection_form_hexagon(self):
        assert ih_poincare_center(6).coeffs == (1, 6, 6, 1)

    def test_parity_errors(self):
        with pytest.raises(InvalidArgument):
            poincare_center(6)
        with pytest.raises(InvalidArgument):
            ih_poincare_center(7)


class TestStableBetti:
    def test_quadrilateral(self):
        assert stable_betti((1, 1, 1, F(3, 2))).coeffs == (1, 1)

    def test_pentagon(self):
        assert stable_betti([1] * 5).coeffs == (1, 5, 1)

    def test_hexagon_matches_iterated_blowup_of_p3(self):
        # blow up P^3 in 5 points then 10 lines:
        # [1,1,1,1] + 5 (t^2 + t^4) + 10 (t^2 + t^4) = [1,16,16,1]
        assert stable_betti(central_base(6)).coeffs == (1, 16, 16, 1)

    def test_second_betti_number_identity(self):
        for n in (5, 6, 7):
            want = 2 ** (n - 1) - (n * n - n + 2) // 2
            assert stable_betti(central_base(n)).coefficient(1) == want

    def test_chamber_independence_small(self):
        for n in (5, 6):
            favorable = [1] * (n - 1) + [n - 2]
            assert stable_betti(favorable) == stable_betti(central_base(n))

    def test_euler_characteristics(self):
        assert stable_betti((1, 1, 1, F(3, 2))).at_one() == 2
        assert stable_betti([1] * 5).at_one() == 7

    def test_keel_at_random_chambers_and_slacks(self):
        rng = random.Random(20262)
        for n, draws in ((5, 8), (6, 6), (7, 4), (8, 2)):
            for _ in range(draws):
                r = off_wall_spread(rng, n)
                assert stable_betti(r, random_legal_eps(rng, r)) == keel(n), r

    def test_open_part_of_pentagon(self):
        # E of the locus with no parallel edges: t^4 - 5 t^2 + 6
        assert cohomology._e_open(5) == (6, -5, 1)

    def test_cached_per_n_values_are_immutable(self):
        # the caches hand the same object to every call
        for k in range(1, 13):
            assert type(cohomology._e_open(k)) is tuple
        for n in range(4, 13):
            width, weights = cohomology._packed_weights(n)
            assert type(weights) is tuple and len(weights) == n

    def test_cold_and_warm_caches_agree(self):
        for cached in (
            cohomology._e_open,
            cohomology._bubble_sum,
            cohomology._block_sums,
            cohomology._packed_weights,
        ):
            cached.cache_clear()
        sizes = (*range(12, 3, -1), *range(4, 13))
        for n in sizes:
            assert stable_betti(central_base(n)) == keel(n), n
        for n in sizes:
            if n % 2:
                assert poincare_wall_crossing([1] * n) == poincare_center(n), n

    def test_rejects_on_wall(self):
        with pytest.raises(InvalidArgument):
            stable_betti((1, 1, 1, 1, 2))


def clique_counts(items, compatible):
    """Number of sets of pairwise `compatible` items, by size (0 included)."""
    m = len(items)
    later = [
        sum(1 << j for j in range(i + 1, m) if compatible(items[i], items[j]))
        for i in range(m)
    ]
    counts = Counter()

    def grow(size, cand):
        counts[size] += 1
        while cand:
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & later[low.bit_length() - 1])

    grow(0, (1 << m) - 1)
    return counts


def boundary_strata_counts(n):
    """Boundary strata of M_{0,n}-bar by codimension: sets of pairwise
    compatible splits {S, S^c} with 2 <= |S| <= n-2, where two splits are
    compatible when some side of one misses some side of the other."""
    labels = frozenset(range(1, n + 1))
    splits = sorted(
        {
            frozenset({frozenset(S), labels - frozenset(S)})
            for k in range(2, n - 1)
            for S in itertools.combinations(labels, k)
        },
        key=lambda split: sorted(map(sorted, split)),
    )
    return clique_counts(
        splits, lambda a, b: any(not x & y for x in a for y in b)
    )


class TestBubbleTreeWalk:
    @pytest.mark.parametrize(
        "n, default",
        [
            (6, 10),
            (6, 0),
            (6, -1),
            (6, 100),
            (7, 3 * min(central_base(7).r)),
            (6, 2 * min(central_base(6).r)),
        ],
    )
    def test_illegal_slack_is_a_range_error(self, n, default):
        eps = EpsilonAssignment(default=default)
        assert not eps.legal_for(central_base(n))
        with pytest.raises(RangeError, match=f"'default': '{F(default)}'"):
            stable_betti(central_base(n), eps)

    def test_illegal_explicit_slack_is_a_range_error(self):
        r = central_base(6)
        eps = EpsilonAssignment({(1, 2): 2 * max(r.r)}, default=min(r.r))
        with pytest.raises(RangeError, match="1,2"):
            stable_betti(r, eps)

    @pytest.mark.parametrize("key", [(0, 1), (1, 9), ()])
    def test_slack_keyed_outside_the_labels_is_a_range_error(self, key):
        r = central_base(6)
        eps = EpsilonAssignment({key: min(r.r)}, default=min(r.r))
        assert not eps.legal_for(r)
        with pytest.raises(RangeError, match="slacks"):
            stable_betti(r, eps)

    def test_laminar_light_families_count_boundary_strata(self):
        rng = random.Random(20263)
        for n in (5, 6, 7, 8):
            want = boundary_strata_counts(n)
            for _ in range(6):
                r = off_wall_spread(rng, n)
                light = [frozenset(J) for J in relevant_subsets(r, 2)]
                got = clique_counts(
                    light, lambda a, b: not a & b or a <= b or b <= a
                )
                assert got == want, r

    def test_central_nonagon_matches_keel(self):
        assert stable_betti(central_base(9)) == keel(9)

    def test_central_decagon_matches_keel(self):
        assert stable_betti(central_base(10)) == keel(10)

    def test_equilateral_hendecagon_matches_keel(self):
        assert stable_betti([1] * 11) == keel(11)

    def test_central_dodecagon_matches_keel(self):
        assert stable_betti(central_base(12)) == keel(12)

    @pytest.mark.parametrize("n", [13, 14])
    def test_central_base_matches_keel_past_twelve(self, n):
        assert stable_betti(central_base(n)) == keel(n)

    def test_decagon_with_random_slacks_matches_keel(self):
        rng = random.Random(20266)
        r = off_wall_spread(rng, 10)
        assert stable_betti(r, random_legal_eps(rng, r)) == keel(10)

    def test_nonagon_with_slacks_off_the_length_grid(self):
        rng = random.Random(20264)
        r = off_wall_spread(rng, 9)
        eps = random_legal_eps(rng, r)
        # q > 1: the reference rescales the bubble lengths by the slack's
        # denominator
        assert (eps.default * r.den).denominator > 1
        assert any((v * r.den).denominator > 1 for v in eps.eps.values())
        assert stable_betti(r, eps) == reference_stable_betti(r, eps) == keel(9)

    def test_matches_per_subset_reference_with_explicit_slacks(self):
        rng = random.Random(20267)
        for n, draws in ((4, 6), (5, 8), (6, 8), (7, 6), (8, 4), (9, 2)):
            for _ in range(draws):
                r = off_wall_spread(rng, n)
                eps = random_legal_eps(rng, r)
                assert stable_betti(r, eps) == reference_stable_betti(r, eps), r

    @pytest.mark.parametrize("m", range(2, 12))
    def test_bubble_sum_is_keel_one_size_up(self, m):
        # a bubble over m labels and its closing edge is M_{0,m+1}-bar
        assert cohomology._bubble_sum(m) == keel(m + 1).coeffs

    def test_slack_at_its_bound_is_a_range_error(self):
        # at eps_J = 2 min_J r a bubble over J would lose children, so the
        # size-keyed sums hold only for legal slacks, which are checked
        r = central_base(7)
        eps = EpsilonAssignment({(1, 2, 3): 2 * min(r.r[:3])}, default=min(r.r))
        with pytest.raises(RangeError, match="1,2,3"):
            stable_betti(r, eps)

    def test_slacks_are_checked_not_read(self):
        # one explicit slack and no default: no bubble sum reads a slack
        r = central_base(8)
        assert stable_betti(r, EpsilonAssignment({(1, 2): min(r.r)})) == keel(8)

    def test_per_subset_engine_is_gone(self):
        assert not hasattr(cohomology, "_BettiEngine")
        assert not hasattr(PoincarePoly, "__neg__")

    def test_disjoint_families_is_gone(self):
        assert not hasattr(cohomology, "_disjoint_families")
