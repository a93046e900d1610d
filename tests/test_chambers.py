import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import stablegons
from stablegons import chambers
from stablegons.chambers import (
    EpsilonAssignment,
    LengthVector,
    WallIndex,
    augment,
    canonical_epsilon,
    central_base,
    classify,
    epsilon_range,
    favorable_index,
    is_favorable,
    line_gons,
    nabla_index,
    relevant_subsets,
    same_chamber,
    signature,
    wall_margin,
)
from stablegons.errors import InternalError, InvalidArgument, RangeError

F = Fraction


def brute_relevant(r, min_size):
    """Independent enumeration oracle: light sides of walls by raw sums."""
    n = len(r)
    total = sum(r)
    out = []
    for k in range(min_size, n - 1):
        for J in itertools.combinations(range(1, n + 1), k):
            if 2 * sum(r[j - 1] for j in J) <= total:
                out.append(J)
    return sorted(out)


def random_interior(rng, n, denom=16):
    while True:
        r = [F(rng.randint(denom, 3 * denom), denom) for _ in range(n)]
        lv = LengthVector(r)
        if lv.in_cone_interior():
            return lv


def test_wall_margin_examples():
    assert wall_margin((1, 1, 1, 1, 1), (1, 2)) == -1
    assert wall_margin(("1", "1", "1", "1", "2"), (1, 2, 3)) == 0
    assert wall_margin(("1", "1", "1", "1", "3.5"), (4, 5)) == F(3, 2)


def test_wall_margin_rejects_empty_and_full():
    with pytest.raises(InvalidArgument):
        wall_margin((1, 1, 1), ())
    with pytest.raises(InvalidArgument):
        wall_margin((1, 1, 1), (1, 2, 3))


def test_complement_antisymmetry():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(4, 8)
        r = random_interior(rng, n)
        k = rng.randint(1, n - 1)
        J = tuple(rng.sample(range(1, n + 1), k))
        Jc = tuple(i for i in range(1, n + 1) if i not in J)
        assert wall_margin(r, J) == -wall_margin(r, Jc)


def test_wall_index_canonical_form():
    w = WallIndex((4, 5), 5)
    assert w.J == (1, 2, 3)
    assert WallIndex((1, 2, 3), 5) == w
    with pytest.raises(InvalidArgument):
        WallIndex((1,), 5)


def test_classify_dominant_edge():
    rep = classify(("1", "1", "1", "1", "3.5"))
    assert rep.favorable_index == 5
    assert rep.smooth
    assert not rep.central
    assert rep.in_cone_interior


def test_classify_equilateral_pentagon():
    rep = classify((1, 1, 1, 1, 1))
    assert rep.central
    assert rep.smooth
    assert rep.favorable_index is None


def test_classify_on_wall():
    rep = classify((1, 1, 1, 1, 2))
    assert rep.line_gons == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert not rep.smooth


def test_classify_rejects_nonpositive():
    with pytest.raises(InvalidArgument):
        classify((1, 0, 1))


def test_classify_outside_cone_is_flagged_not_error():
    rep = classify((1, 1, 3))
    assert not rep.in_cone_interior


def test_scale_invariance():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(4, 7)
        r = random_interior(rng, n)
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        a, b = classify(r), classify(r.scaled(lam))
        assert a.signature == b.signature
        assert a.favorable_index == b.favorable_index
        assert a.central == b.central
        assert same_chamber(r, r.scaled(lam))


def test_relevant_subsets_against_oracle():
    for r, min_size in [
        (LengthVector([1] * 7), 3),
        (LengthVector([1] * 5), 3),
        (LengthVector([1] * 5), 2),
        (LengthVector(["1", "1", "1", "1", "3.5"]), 2),
    ]:
        assert relevant_subsets(r, min_size) == brute_relevant(r.r, min_size)
    assert len(relevant_subsets(LengthVector([1] * 7), 3)) == 35
    assert relevant_subsets(LengthVector([1] * 5), 3) == []
    assert len(relevant_subsets(LengthVector([1] * 5), 2)) == 10


def test_relevant_subsets_flags_wall_equalities():
    # on a wall both sides are (non-strictly) relevant, so each of the four
    # line-gon walls shows up twice: as a pair with edge 5 and as its
    # complementary triple
    flagged = relevant_subsets((1, 1, 1, 1, 2), 2, with_margins=True)
    zeros = [J for J, m in flagged if m == 0]
    assert zeros == sorted(
        [(1, 5), (2, 5), (3, 5), (4, 5), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    )


def test_favorable_implies_strictly_longest():
    rng = random.Random(11)
    seen = 0
    for _ in range(200):
        n = rng.randint(4, 8)
        r = random_interior(rng, n)
        idx = favorable_index(r)
        if idx is not None:
            seen += 1
            assert all(r.r[idx - 1] > x for j, x in enumerate(r.r, 1) if j != idx)
        # uniqueness: at most one index passes for n >= 4
        hits = [i for i in range(1, n + 1) if is_favorable(r, i)]
        assert len(hits) <= 1
    # the sweep must actually exercise some favorable vectors
    assert favorable_index((1, 1, 1, 1, F(7, 2))) == 5


def test_epsilon_range_examples():
    lo, hi = epsilon_range(LengthVector([1] * 6), (1, 2, 3))
    assert (lo, hi) == (0, 2)
    assert canonical_epsilon(LengthVector([1] * 6)) == 1
    assert epsilon_range((2, 3, 5, 5, 5), (1, 2))[1] == 4
    with pytest.raises(InvalidArgument):
        epsilon_range(("1", "1", "1", "1", "3.5"), (1, 5))


@pytest.mark.parametrize(
    "bad", [float("inf"), float("-inf"), float("nan"), "nan", "inf", "abc", "1/0", True]
)
def test_unreadable_lengths_raise_invalid_argument(bad):
    with pytest.raises(InvalidArgument):
        chambers.rational(bad)
    with pytest.raises(InvalidArgument):
        LengthVector([1, 1, bad])
    with pytest.raises(InvalidArgument):
        augment([1] * 5, (1, 2), bad)
    with pytest.raises(InvalidArgument):
        EpsilonAssignment(default=bad)
    with pytest.raises(InvalidArgument):
        EpsilonAssignment({(1, 2): bad})


def test_float_shadow_is_float_of_each_length():
    # large coprime denominators, so the common denominator is huge and
    # ints[i] / den rounds from far more bits than either part of r_i
    rng = random.Random(15)
    for n in range(2, 13):
        exact = [F(rng.randint(1, 10**30), rng.randint(1, 10**25)) for _ in range(n)]
        exact[0] = F(rng.randint(1, 10**6), 3**40)
        lv = LengthVector(exact)
        assert [x.hex() for x in lv.floats()] == [float(x).hex() for x in exact]
        assert lv.floats() is lv.floats()


def test_slack_bounds_match_fraction_reference():
    rng = random.Random(16)
    for k, exact, raw in _table_cases(count=40, seed=16):
        assert canonical_epsilon(raw) == min(exact)
        ref = _reference(exact)
        for J, _ in rng.sample(ref["light"], min(10, len(ref["light"]))):
            assert epsilon_range(raw, J) == (0, 2 * min(exact[j - 1] for j in J))
        heavy = [J for J, m in ref["margin"].items() if 2 <= len(J) <= len(exact) - 2 and m > 0]
        for J in heavy[:5]:
            with pytest.raises(InvalidArgument, match="not relevant"):
                epsilon_range(raw, J)


def test_augment_examples():
    out = augment(LengthVector([1] * 6), (1, 2, 3), 1)
    assert out.r == (1, 1, 1, 2)
    assert favorable_index(out) == 4
    with pytest.raises(RangeError):
        augment(LengthVector([1] * 6), (1, 2, 3), 2)
    tri = augment(LengthVector([1] * 5), (1, 2), 1)
    assert tri.r == (1, 1, 1)
    assert is_favorable(tri, 3)


def test_augment_closure_property():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(4, 8)
        r = random_interior(rng, n)
        rel = relevant_subsets(r, 2)
        if not rel:
            continue
        J = rel[rng.randrange(len(rel))]
        lo, hi = epsilon_range(r, J)
        eps = hi * F(rng.randint(1, 31), 32)
        out = augment(r, J, eps)
        assert is_favorable(out, out.n)


def test_central_chamber_count_identity():
    # |relevant subsets of size > 2| at the center must be
    # 2^(n-1) - 1 - n - n(n-1)/2.
    for n in range(5, 10):
        base = central_base(n)
        want = 2 ** (n - 1) - 1 - n - n * (n - 1) // 2
        assert len(relevant_subsets(base, 3)) == want


def test_central_base_is_off_all_walls():
    for n in range(4, 11):
        assert classify(central_base(n)).smooth


def test_central_base_is_a_fresh_vector():
    # the lengths are kept per n, each call still returns its own vector
    a, b = central_base(8), central_base(8)
    assert a == b and a is not b
    a.subset_sums()
    assert b._sums is None
    assert central_base(5).r == (F(1),) * 5
    delta = F(1, 8**3 * 2**8)
    assert a.r == tuple(1 + delta * 2**i for i in range(8))
    with pytest.raises(InvalidArgument):
        central_base(2)


def test_line_gons_none_for_generic():
    assert line_gons((1, 1, 1, 1, F(7, 2))) == []


def test_nabla_index_quadrilateral():
    # all pairs avoiding edge 4 are heavy: the product-of-lines chamber
    from stablegons.chambers import nabla_index

    assert nabla_index((3, 3, 3, 1)) == 4
    assert nabla_index((1, 1, 1, F(3, 2))) is None
    # the pair condition is unsatisfiable once n >= 5
    assert nabla_index((3, 3, 3, 3, 1)) is None


def test_epsilon_assignment_lookup_and_canonical():
    r = LengthVector([2, 3, 5, 5, 5])
    ea = EpsilonAssignment({(1, 2): F(1, 2)})
    assert ea.get((2, 1)) == F(1, 2)
    with pytest.raises(InvalidArgument):
        ea.get((3, 4))
    can = EpsilonAssignment.canonical(r)
    assert can.get((3, 4, 5)) == 2
    assert can.legal_for(r)


def test_classify_json_fields():
    rep = classify(("1", "1", "1", "1", "3.5")).to_json()
    assert set(rep) == {
        "in_cone_interior",
        "signature",
        "walls_on",
        "line_gons",
        "smooth",
        "favorable_index",
        "nabla_index",
        "central",
    }
    assert rep["favorable_index"] == 5


def test_epsilon_assignment_default_bounded_by_twice_min():
    # the pair of the two shortest edges is relevant, so a default must lie
    # below 2 min_i r_i
    assert not EpsilonAssignment(default=10).legal_for((1, 1, 1, 1, 1))
    assert not EpsilonAssignment(default=2).legal_for((1, 1, 1, 1, 1))
    assert EpsilonAssignment(default=F(19, 10)).legal_for((1, 1, 1, 1, 1))
    for r in [(1, 1, 1, 1, 1), (2, 3, 5, 5, 5), ("1", "1", "1", "1", "3.5")]:
        assert EpsilonAssignment.canonical(r).legal_for(r)


@pytest.mark.parametrize("label", [1.7, 1.0, True, "a", None])
def test_non_integer_labels_are_refused(label):
    with pytest.raises(InvalidArgument, match="not an integer"):
        wall_margin((1, 1, 1, 1, 1), (label, 2))
    with pytest.raises(InvalidArgument, match="not an integer"):
        epsilon_range((1, 2, 3, 4, 5), (label, 3))
    with pytest.raises(InvalidArgument, match="not an integer"):
        WallIndex((label, 3), 5)
    with pytest.raises(InvalidArgument, match="not an integer"):
        EpsilonAssignment({(label, 3): F(1, 2)})
    with pytest.raises(InvalidArgument, match="not an integer"):
        EpsilonAssignment(default=1).get((label, 3))


@pytest.mark.parametrize("J", [None, 3, 1.5])
def test_non_iterable_subset_is_refused(J):
    with pytest.raises(InvalidArgument, match="is not a collection of labels"):
        wall_margin((1, 1, 1, 1, 1), J)
    with pytest.raises(InvalidArgument, match="is not a collection of labels"):
        epsilon_range((1, 2, 3, 4, 5), J)
    with pytest.raises(InvalidArgument, match="is not a collection of labels"):
        augment((1, 1, 1, 1, 1, 1), J, 1)
    with pytest.raises(InvalidArgument, match="is not a collection of labels"):
        EpsilonAssignment(default=1).get(J)
    with pytest.raises(InvalidArgument, match="is not a collection of labels"):
        EpsilonAssignment({J: 1})


@pytest.mark.parametrize("eps", [5, 1.5, "12", [((1, 2), 1)]])
def test_non_mapping_slacks_are_refused(eps):
    with pytest.raises(InvalidArgument, match="is not a mapping from subsets to slacks"):
        EpsilonAssignment(eps)


def test_augment_checks_its_subset_once(monkeypatch):
    calls = []
    check = chambers._check_subset

    def spy(J, n, name="J"):
        calls.append(J)
        return check(J, n, name)

    monkeypatch.setattr(chambers, "_check_subset", spy)
    r = LengthVector((2, 3, 5, 5, 5))
    assert augment(r, (2, 1), F(1, 2)) == LengthVector((2, 3, F(9, 2)))
    assert calls == [(2, 1)]
    calls.clear()
    with pytest.raises(RangeError, match=r"for J=\[1, 2\]"):
        augment(r, (2, 1), 4)
    with pytest.raises(InvalidArgument, match="not relevant"):
        augment(r, (1, 3, 4), 1)
    assert len(calls) == 2


def test_multiset_is_gone():
    assert not hasattr(LengthVector, "multiset")


@pytest.mark.parametrize(
    "owner, name",
    [
        (LengthVector, "normalized"),
        (LengthVector, "subset_sum"),
        (WallIndex, "complement"),
    ],
)
def test_dead_helpers_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_numpy_integer_labels_are_accepted():
    np = pytest.importorskip("numpy")
    J = (np.int64(1), np.int32(2))
    assert wall_margin((1, 1, 1, 1, 1), J) == wall_margin((1, 1, 1, 1, 1), (1, 2))
    assert WallIndex(np.array([1, 2]), 5).J == (1, 2)
    eps = EpsilonAssignment({J: F(1, 2)})
    assert eps.get((1, 2)) == eps.get(np.array([2, 1])) == F(1, 2)


def test_augment_invariant_raises_internal_error(monkeypatch):
    monkeypatch.setattr(chambers, "is_favorable", lambda r, i: False)
    with pytest.raises(InternalError):
        augment(LengthVector([1] * 6), (1, 2, 3), 1)


def test_augment_invariant_survives_optimize_flag():
    code = (
        "import stablegons.chambers as c\n"
        "from stablegons.errors import InternalError\n"
        "c.is_favorable = lambda r, i: False\n"
        "try:\n"
        "    c.augment([1] * 6, (1, 2, 3), 1)\n"
        "except InternalError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(pathlib.Path(stablegons.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()


# ---------------------------------------------------------------------------
# the integer subset-sum table against direct Fraction sums
# ---------------------------------------------------------------------------


def _reference(r):
    """Every wall query for the exact vector r, by direct Fraction summation."""
    n = len(r)
    total = sum(r, F(0))
    margin = {}
    for k in range(1, n):
        for J in itertools.combinations(range(1, n), k):
            m = 2 * sum((r[j - 1] for j in J), F(0)) - total
            margin[J] = m
            margin[tuple(j for j in range(1, n + 1) if j not in J)] = -m
    sign = {J: (m > 0) - (m < 0) for J, m in margin.items()}
    walls = [J for k in range(2, n - 1) for J in itertools.combinations(range(1, n), k)]
    labels = range(1, n + 1)

    def heavy(j, k):
        return margin[tuple(sorted((j, k)))] > 0

    favorable = [i for i in labels if all(heavy(i, j) for j in labels if j != i)]
    nabla = [
        i
        for i in labels
        if all(
            heavy(j, k)
            for j, k in itertools.combinations([j for j in labels if j != i], 2)
        )
    ]
    return {
        "margin": margin,
        "signs": [(J, sign[J]) for J in walls],
        "line_gons": [J for J in walls if sign[J] == 0],
        "light": sorted(
            (J, m) for J, m in margin.items() if 2 <= len(J) <= n - 2 and m <= 0
        ),
        "favorable": favorable,
        "favorable_index": favorable[0] if len(favorable) == 1 else None,
        "nabla_index": nabla[0] if len(nabla) == 1 else None,
    }


def _draw(rng, n, kind):
    """An exact length vector and the raw input of the given kind for it."""
    if kind == "int":
        return [F(rng.randint(1, 30)) for _ in range(n)]
    if kind == "str":
        return [F(rng.randint(1000, 3000), 1000) for _ in range(n)]
    if kind == "float":
        # multiples of 1/64 are exact binary64 values
        return [F(rng.randint(64, 192), 64) for _ in range(n)]
    return [F(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(n)]


def _raw(exact, kind):
    if kind == "str":
        return ["%d.%03d" % divmod(int(x * 1000), 1000) for x in exact]
    if kind == "float":
        return [float(x) for x in exact]
    if kind == "int":
        return [int(x) for x in exact]
    return list(exact)


def _table_cases(count=200, seed=20240611):
    """Seeded interior vectors at n = 4..12; one in four sits exactly on a wall."""
    rng = random.Random(seed)
    kinds = ("fraction", "str", "float", "int")
    for k in range(count):
        n = 4 + k % 9
        kind = kinds[(k // 4) % 4]
        while True:
            exact = _draw(rng, n, kind)
            if k % 4 == 0:
                J = rng.sample(range(n), rng.randint(2, n - 2))
                gap = 2 * sum(exact[j] for j in J) - sum(exact)
                side = [j for j in range(n) if (j in J) == (gap < 0)]
                exact[rng.choice(side)] += abs(gap)
            elif kind == "float" and k % 8 == 1:
                # 0.1 taken at its exact binary value, not as 1/10
                exact[rng.randrange(n)] = F(0.1)
            if 2 * max(exact) < sum(exact):
                break
        raw = _raw(exact, kind)
        assert [F(x) for x in raw] == exact
        yield k, exact, raw


def test_subset_sum_table_matches_fraction_reference():
    rng = random.Random(5)
    on_wall = 0
    for k, exact, raw in _table_cases():
        ref = _reference(exact)
        n = len(exact)
        sig = signature(raw)
        assert all(isinstance(w, WallIndex) for w in sig.signs)
        assert [(w.J, s) for w, s in sig.signs.items()] == ref["signs"]
        assert [(tuple(e["J"]), e["sign"]) for e in sig.to_json()] == ref["signs"]
        assert sig.zeros() == sorted(ref["line_gons"])
        assert line_gons(raw) == ref["line_gons"]
        on_wall += bool(ref["line_gons"])
        assert relevant_subsets(raw, 2, with_margins=True) == ref["light"]
        assert relevant_subsets(raw, 3) == [J for J, _ in ref["light"] if len(J) >= 3]
        lv = LengthVector(raw)
        for J in rng.sample(sorted(ref["margin"]), min(20, len(ref["margin"]))):
            assert wall_margin(lv, J) == ref["margin"][J]
        assert [i for i in range(1, n + 1) if is_favorable(lv, i)] == ref["favorable"]
        assert favorable_index(raw) == ref["favorable_index"]
        assert nabla_index(raw) == ref["nabla_index"]
        # equal signatures hash equal: a rescaled copy and a fresh vector
        for other in (lv.scaled(F(7, 3)), LengthVector(exact)):
            assert signature(other) == sig
            assert hash(signature(other)) == hash(sig)
    assert on_wall >= 50


def test_wall_index_is_a_read_only_value():
    import copy
    import pickle

    w = WallIndex((4, 5), 5)
    assert repr(w) == "W[1, 2, 3]"
    assert hash(w) == hash(((1, 2, 3), 5))
    assert w == WallIndex([3, 2, 1], 5) and w != WallIndex((1, 2, 3), 6)
    assert w != ((1, 2, 3), 5) and w != (1, 2, 3)
    assert {w: 1}[WallIndex((1, 2, 3), 5)] == 1
    assert pickle.loads(pickle.dumps(w)) == w and copy.deepcopy(w) == w
    with pytest.raises(AttributeError):
        w.J = (1, 2)
    with pytest.raises(AttributeError):
        w.extra = 1
    with pytest.raises(AttributeError):
        del w.n
    assert w.J == (1, 2, 3) and w.n == 5


def test_classify_report_is_a_record():
    r = (1, 1, 1, 1, F(7, 2))
    rep = classify(r)
    fields = dict(
        in_cone_interior=True, signature=signature(r), walls_on=[], line_gons=[],
        smooth=True, favorable_index=5, nabla_index=None, central=False,
    )
    assert rep == chambers.ClassifyReport(**fields)
    assert rep == chambers.ClassifyReport(*fields.values())
    assert rep != chambers.ClassifyReport(**dict(fields, central=True))
    assert rep != tuple(fields.values())
    assert repr(rep).startswith("ClassifyReport(in_cone_interior=True, signature=")
    assert repr(rep).endswith("nabla_index=None, central=False)")
    for args, kwargs in [
        ((), {k: v for k, v in fields.items() if k != "central"}),
        ((True,), fields),
        ((), dict(fields, bogus=1)),
        (tuple(fields.values()) + (1,), {}),
    ]:
        with pytest.raises(TypeError):
            chambers.ClassifyReport(*args, **kwargs)


@pytest.mark.parametrize(
    "call",
    [
        classify,
        signature,
        relevant_subsets,
        lambda r: same_chamber(r, r),
        line_gons,
        lambda r: chambers.all_walls(len(r)),
        lambda r: chambers._canonical_walls(len(r)),
        lambda r: chambers._bubble_candidates(len(r)),
        lambda r: stablegons.stable_betti(r),
        lambda r: stablegons.poincare_wall_crossing(r),
        lambda r: stablegons.schedule(r),
        lambda r: stablegons.strata(r),
        lambda r: stablegons.central_contains(r),
        lambda r: stablegons.param_sample(len(r)),
    ],
)
def test_tables_refuse_n_above_the_ceiling(call):
    with pytest.raises(RangeError, match=f"n={chambers.MAX_N + 1} is above"):
        call(LengthVector(range(1, chambers.MAX_N + 2)))


def test_table_at_the_ceiling():
    assert chambers.MAX_N >= 15
    r = LengthVector([1] * chambers.MAX_N)
    sums = r.subset_sums()
    assert len(sums) == 2**chambers.MAX_N and sums[-1] == chambers.MAX_N
    wide = LengthVector([1] * 30)  # what needs no table still runs
    assert wide.in_cone_interior() and favorable_index(wide) is None
    assert wall_margin(wide, range(1, 16)) == 0


LOW, HIGH = (F(x) for x in chambers.FLOAT_RANGE)
ULP = F(1, 2**52)


@pytest.mark.parametrize(
    "length, inside",
    [
        (HIGH, True),
        (float(HIGH), True),
        (HIGH * (1 + ULP / 4), True),  # its float rounds down to the edge
        (HIGH * (1 + ULP), False),
        (float(HIGH * (1 + ULP)), False),
        (LOW, True),
        (float(LOW), True),
        (LOW * (1 - ULP / 4), True),  # its float rounds up to the edge
        (LOW * (1 - ULP / 2), False),
        (float(LOW * (1 - ULP / 2)), False),
        (1e308, False),
        (1e-320, False),
        (10**400, False),
        (F(1, 10**400), False),
    ],
)
def test_float_shadow_range(length, inside):
    r = LengthVector([length, 1, 1])
    if inside:
        assert r.floats() == (float(F(length)), 1.0, 1.0)
        assert chambers.FLOAT_RANGE[0] <= r.floats()[0] <= chambers.FLOAT_RANGE[1]
    else:
        with pytest.raises(RangeError, match=r"\[2\^-300, 2\^300\]"):
            r.floats()
        assert r._floats is None


def test_exact_layer_takes_lengths_outside_the_float_range():
    big = classify([10**400] * 4)
    assert big.in_cone_interior and not big.smooth
    assert relevant_subsets([F(1, 10**400)] * 5, 2) == relevant_subsets([1] * 5, 2)


# ---------------------------------------------------------------------------
# pair indices, light subsets and canonical walls against direct definitions
# ---------------------------------------------------------------------------


def _index_cases(seed=4242):
    """Vectors at n = 3..9: random, a tie at the smallest length, duplicated
    lengths, one edge dominant, on the cone boundary, outside the cone, and
    at n = 4 three long edges around a short one."""
    rng = random.Random(seed)
    for n in range(3, 10):
        for _ in range(12):
            r = [F(rng.randint(1, 30), rng.randint(1, 3)) for _ in range(n)]
            k = rng.randrange(n)
            rest = sum(r) - r[k]
            tie = list(r)
            tie[(k + 1) % n] = min(r)
            dup = [r[rng.randrange(2)] for _ in range(n)]
            yield r
            yield tie
            yield dup
            yield r[:k] + [rest - F(1, 7)] + r[k + 1 :]  # dominant, still interior
            yield r[:k] + [rest] + r[k + 1 :]  # on the boundary
            yield r[:k] + [rest + 1] + r[k + 1 :]  # outside
            if n == 4:  # three long edges around a short one: a nabla chamber
                long = [F(rng.randint(20, 30)) for _ in range(3)]
                yield long[:k] + [F(rng.randint(1, 20))] + long[k:]
        yield [F(1)] * n


def test_pair_indices_match_the_pair_definitions():
    kinds = {"interior": 0, "boundary": 0, "outside": 0}
    seen = {"favorable": 0, "nabla": 0}
    for r in _index_cases():
        ref = _reference(r)
        n, lv = len(r), LengthVector(r)
        kinds["interior" if lv.in_cone_interior() else
              "boundary" if lv.on_cone_boundary() else "outside"] += 1
        assert favorable_index(r) == ref["favorable_index"], r
        assert nabla_index(r) == ref["nabla_index"], r
        assert [i for i in range(1, n + 1) if is_favorable(lv, i)] == ref["favorable"], r
        seen["favorable"] += ref["favorable_index"] is not None
        seen["nabla"] += ref["nabla_index"] is not None
    assert min(kinds.values()) >= 50 and min(seen.values()) >= 5
    # two lengths: both edges pass the (trivial or empty) pair conditions
    for r in ((1, 1), (1, 2), (1, 3), (5, 1)):
        assert favorable_index(r) is None and nabla_index(r) is None
        assert is_favorable(r, 1) and is_favorable(r, 2)


def test_relevant_subsets_for_every_min_size():
    on_wall = 0
    for k, exact, raw in _table_cases(count=45, seed=77):
        ref, n = _reference(exact)["light"], len(exact)
        on_wall += any(m == 0 for _, m in ref)
        for min_size in range(0, n + 2):
            want = [(J, m) for J, m in ref if len(J) >= min_size]
            assert relevant_subsets(raw, min_size, with_margins=True) == want
            assert relevant_subsets(raw, min_size) == [J for J, _ in want]
            assert relevant_subsets(raw, min_size) == brute_relevant(exact, max(2, min_size))
        assert relevant_subsets(raw, 2.5) == relevant_subsets(raw, 3)
    assert on_wall >= 10


def test_all_walls_match_the_checked_constructor():
    import copy
    import pickle

    for n in range(3, 10):
        walls = chambers.all_walls(n)
        checked = [
            WallIndex(J, n) for k in range(2, n - 1) for J in itertools.combinations(range(1, n), k)
        ]
        assert walls == checked
        assert [hash(w) for w in walls] == [hash(w) for w in checked]
        assert [repr(w) for w in walls] == [repr(w) for w in checked]
        for w in walls:
            assert type(w.J) is tuple and w.n == n
            assert pickle.loads(pickle.dumps(w)) == w == copy.deepcopy(w)
            with pytest.raises(AttributeError):
                w.J = (1, 2)
            with pytest.raises(AttributeError):
                del w.n
            with pytest.raises(AttributeError):
                w.extra = 1
        assert chambers._canonical_walls(n) == (
            tuple(checked), tuple(sum(1 << (j - 1) for j in w.J) for w in checked)
        )


def test_light_subsets_share_one_candidate_table():
    # every least size reads the pairs of the one full table per n, which the
    # Betti layer builds too, so a 2^20-entry table is never held twice
    r = LengthVector(range(1, 10))
    full = {J: J for _, J in chambers._bubble_candidates(9)}
    for min_size in (0, 2, 3, 5):
        assert all(full[J] is J for J in relevant_subsets(r, min_size))


def _same_fraction(x, want):
    return (
        type(x) is Fraction
        and (x.numerator, x.denominator) == (want.numerator, want.denominator)
        and hash(x) == hash(want)
    )


def test_fraction_constructor_matches_the_stdlib():
    import pickle

    # the constructor fills these two slots; another layout must fail here
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    rng = random.Random(26)
    cases = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 4), (-6, 4), (10**45, 3 * 10**44)]
    for _ in range(400):
        digits = rng.choice((1, 3, 12, 45))
        num = rng.randint(-(10**digits), 10**digits)
        den = rng.choice((1, rng.randint(1, 10**digits)))
        cases.append((num, den))
        cases.append((num * den, den))  # a whole number after reduction
    for num, den in cases:
        x, want = chambers._fraction(num, den), Fraction(num, den)
        assert _same_fraction(x, want), (num, den)
        assert pickle.dumps(x) == pickle.dumps(want)
        assert _same_fraction(pickle.loads(pickle.dumps(x)), want)


def _on_wall(rng, r):
    """r moved onto a random wall by growing one label on its light side."""
    n, r = len(r), list(r)
    J = rng.sample(range(n), rng.randint(2, n - 2))
    gap = 2 * sum(r[j] for j in J) - sum(r)
    r[rng.choice([j for j in range(n) if (j in J) == (gap < 0)])] += abs(gap)
    return r


def test_margins_are_the_wall_margins():
    rng = random.Random(260)
    on_wall = 0
    for k in range(54):
        n = 4 + k % 9
        while True:
            r = [rng.randint(1, 40) for _ in range(n)]  # integers: den 1
            if k % 3 == 1:
                r = [F(x, rng.choice((1, 3, 10))) for x in r]
            elif k % 3 == 2:
                r = _on_wall(rng, r)
            if 2 * max(r) < sum(r):
                break
        light = relevant_subsets(r, 2, with_margins=True)
        on_wall += any(m == 0 for _, m in light)
        for J, m in light:
            assert _same_fraction(m, wall_margin(r, J)), (r, J)
            assert _same_fraction(m, F(2 * sum(r[j - 1] for j in J) - sum(r))), (r, J)
    assert on_wall >= 12


def test_signature_signs_are_the_wall_margin_signs():
    rng = random.Random(261)
    # odd and even perimeters, on walls and off them
    cases = [[1] * 9 + [2], [1] * 9 + [3], [1] * 8, [1] * 7, [2, 3, 4, 5, 6]]
    for n in range(4, 11):
        r = [rng.randint(1, 20) for _ in range(n)]
        cases += [r, _on_wall(rng, r)]
    for r in cases:
        if 2 * max(r) >= sum(r):
            continue
        want = [(wall_margin(r, w.J) > 0) - (wall_margin(r, w.J) < 0)
                for w in chambers.all_walls(len(r))]
        assert list(signature(r).vector) == want, r


@pytest.mark.parametrize("n", [5.5, True, "7", None])
@pytest.mark.parametrize(
    "name",
    ["param_dim", "param_sample", "central_base", "poincare_center", "ih_poincare_center",
     "all_walls"],
)
def test_closed_forms_in_n_refuse_a_non_integer(name, n):
    function = getattr(chambers, name, None) or getattr(stablegons, name)
    with pytest.raises(InvalidArgument, match="is not an integer"):
        function(n)


@pytest.mark.parametrize("bad", [None, 3])
@pytest.mark.parametrize("name", ["LengthVector", "classify", "signature", "strata"])
def test_non_iterable_lengths_are_refused(name, bad):
    with pytest.raises(InvalidArgument, match="is not a collection of lengths"):
        getattr(stablegons, name)(bad)


def test_non_iterable_base_is_refused():
    with pytest.raises(InvalidArgument, match="is not a collection of lengths"):
        classify((1, 1, 1, 1, 1), base=5)
