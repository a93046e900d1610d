import math

import numpy as np
import pytest
from fractions import Fraction

import stablegons.realize as realize
from stablegons.chambers import LengthVector
from stablegons.errors import (
    ChamberMismatch,
    InvalidArgument,
    NoModuli,
    NonConvergence,
)
from stablegons.realize import (
    EdgeFrame,
    _balance_jacobian,
    _boost,
    canonicalize,
    close,
    close_degenerate,
    diagonal,
    incidence,
    is_line_gon,
    moduli_point,
    parallel_classes,
    pgl2_equivalent,
    subpolygon,
    transport,
    Tolerances,
)

F = Fraction

SQUARE_HINTS = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestEdgeFrame:
    def test_nan_direction_rejected(self):
        with pytest.raises(InvalidArgument):
            EdgeFrame((1, 1, 1), [[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestClose:
    def test_square_hint_already_closed(self):
        frame = close((1, 1, 1, 1), hints=SQUARE_HINTS)
        assert frame.residual == 0.0

    def test_random_pentagon_closes(self):
        for seed in range(10):
            frame = close([1] * 5, seed=seed)
            assert frame.residual <= 1e-10

    def test_near_boundary_closes(self):
        # (1, 1, 1, 3 - delta) is interior for every delta > 0, however thin
        # the polygons it allows
        for k in range(1, 13):
            frame = close((1, 1, 1, 3 - F(1, 10**k)), seed=0)
            assert frame.residual <= 1e-10

    def test_random_vectors_close(self):
        rng = np.random.default_rng(2024)
        drawn = 0
        while drawn < 2000:
            n = int(rng.integers(3, 41))
            r = LengthVector([F(int(x), 1000) for x in rng.integers(1, 5001, size=n)])
            if not r.in_cone_interior():
                continue
            frame = close(r, seed=drawn)
            assert frame.residual <= 1e-10
            assert np.allclose(np.linalg.norm(frame.u, axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.array_equal(frame.u, close(r, seed=drawn).u)
            drawn += 1

    def test_fan_directions_match_array_loop(self):
        # the float loop of _fan_directions against the same loop on numpy
        # 3-vectors: every operation in the same order, so every bit agrees
        def array_fan(rf, rng):
            n = len(rf)
            r = rf.tolist()
            lo, hi = r[:], r[:]
            for k in range(n - 2, 0, -1):
                lo[k] = max(lo[k + 1] - r[k], r[k] - hi[k + 1], 0.0)
                hi[k] = hi[k + 1] + r[k]
            t = rng.random(n).tolist()
            angles = 2.0 * np.pi * rng.random(n)
            e, w, m = np.eye(3)
            u = np.empty((n, 3))
            u[0] = e
            D = r[0]
            for k, ct, st in zip(range(1, n - 1), np.cos(angles), np.sin(angles)):
                a = max(abs(D - r[k]), lo[k + 1])
                b = min(D + r[k], hi[k + 1])
                d = a + t[k] * (b - a)
                w, m = ct * w + st * m, ct * m - st * w
                c = min(1.0, max(-1.0, ((d - D) * (d + D) - r[k] * r[k]) / (2.0 * D * r[k])))
                s = math.sqrt((1.0 - c) * (1.0 + c))
                u[k] = c * e + s * w
                x, y = D + r[k] * c, r[k] * s
                D = math.hypot(x, y)
                e, w = (x * e + y * w) / D, (x * w - y * e) / D
            u[n - 1] = -e
            return u

        rng = np.random.default_rng(2611)
        for trial in range(300):
            n = 4 + trial % 13
            rf = rng.uniform(0.1, 2.0, size=n)
            if trial % 3 == 0:  # thin: the last edge just short of the rest
                rf[-1] = rf[:-1].sum() * (1.0 - 10.0 ** -float(rng.integers(1, 13)))
            if 2.0 * rf.max() >= rf.sum():
                continue
            got = realize._fan_directions(rf, np.random.default_rng(trial))
            want = array_fan(rf, np.random.default_rng(trial))
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_boundary_vector_rejected(self):
        with pytest.raises(InvalidArgument):
            close((1, 1, 3))

    def test_deterministic_per_seed(self):
        a = close([1] * 6, seed=42)
        b = close([1] * 6, seed=42)
        assert np.array_equal(a.u, b.u)

    def test_hint_keeps_its_moduli_point(self):
        rng = np.random.default_rng(3)
        lengths = [(1, 1, 1, F(3, 2), 2)] * 10
        while len(lengths) < 210:
            n = int(rng.integers(4, 31))
            r = LengthVector([F(int(x), 1000) for x in rng.integers(1, 5001, size=n)])
            if r.in_cone_interior():
                lengths.append(r)
        for r in lengths:
            u = rng.normal(size=(len(r), 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            assert not EdgeFrame(r, u).is_closed()
            frame = close(r, hints=u)
            assert frame.residual <= 1e-10
            assert pgl2_equivalent(moduli_point(EdgeFrame(r, u)), moduli_point(frame))

    def test_bad_hints_rejected(self):
        for row in ([0, 0, 0], [np.nan, 1, 0], [np.inf, 0, 0], [0, -np.inf, 1]):
            with pytest.raises(InvalidArgument):
                close((1, 1, 1, 1), hints=[[1, 0, 0], [0, 1, 0], [-1, 0, 0], row])

    def test_degenerate_hints_fail_typed(self):
        # no boost balances a hint with a coincident cluster of half the
        # weight, nor one on a line
        cases = [
            ((1, 1, 1, 1), [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ((1, 1, 1, 2), [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [1, 0, 0]]),
        ]
        for r, hints in cases:
            with pytest.raises(NonConvergence) as info:
                close(r, hints=hints)
            assert np.isfinite(info.value.residual)

    def test_hint_on_one_axis_fails_before_any_step(self):
        # no class carries half the weight here (the two opposite rows are
        # 1.8e-8 rad apart), but every row lies within 1e-8 rad of one axis
        t = 0.9e-8
        hints = [[1, 0, 0], [1, 0, 0], [-np.cos(t), np.sin(t), 0], [-np.cos(t), -np.sin(t), 0]]
        r = (1, 1, F(3, 2), F(3, 2))
        with pytest.raises(NonConvergence) as info:
            close(r, hints=hints)
        assert info.value.residual == EdgeFrame(r, hints).residual

    def test_barycenter_refusals_survive_the_prefilter(self):
        # a cluster 0.5 tol wide carrying half the weight, and one point
        # carrying half the weight on its own, are refused before any step
        t = 0.5 * Tolerances().angle
        cluster = [[1, 0, 0], [np.cos(t), np.sin(t), 0], [0, 0, 1], [0, -0.6, -0.8]]
        lone = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0, -0.8]]
        cases = [(cluster, [1.0, 1.0, 1.0, 1.0]), (lone, [3.0, 1.0, 1.0, 1.0])]
        for u, w in cases:
            u, w = np.array(u, dtype=float), np.array(w)
            with pytest.raises(NonConvergence, match="no conformal barycenter") as info:
                realize._rebalance(u, w, 1e-10)
            assert info.value.residual == float(np.linalg.norm(w @ u))

    def test_barycenter_prefilter_matches_full_check(self):
        # the refusal decision equals the check on the full angle matrix
        tol = Tolerances().angle
        rng = np.random.default_rng(79)
        refused = 0
        for _ in range(200):
            n = int(rng.integers(3, 13))
            u = planted_frame(rng, n, tol)
            w = rng.uniform(0.5, 2.0, size=n)
            angles = realize._pair_angles(u)
            heaviest = max(w[g].sum() for g in realize._angle_groups(angles, tol))
            want = 2.0 * heaviest >= w.sum() or realize._on_one_axis(angles, tol)
            try:
                realize._rebalance(u, w, 1e-10)
                got = False
            except NonConvergence as exc:
                got = "no conformal barycenter" in str(exc)
            assert got == want
            refused += want
        assert 20 <= refused <= 180

    def test_thin_polygon_closes_from_random_hints(self):
        # (1, 1, 1, 3 - delta) balances with its points about sqrt(delta) rad
        # off one axis; only a coincident half-weight cluster has no balance
        rng = np.random.default_rng(10)
        for k in (10, 11, 12):
            r = (1, 1, 1, 3 - F(1, 10**k))
            for _ in range(5):
                u = rng.normal(size=(4, 3))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                frame = close(r, hints=u)
                assert frame.residual <= 1e-10
                assert pgl2_equivalent(moduli_point(EdgeFrame(r, u)), moduli_point(frame))

    def test_heavy_weights_balance_below_closure_tolerance(self):
        # sum w = 150: a hint off closure by about 1.2e-10 must still be
        # balanced down to the 1e-10 that close checks, not accepted as is
        r = LengthVector([30] * 5)
        u = close(r, seed=1).u.copy()
        tilt = 4e-12
        side = np.cross(u[0], u[1])
        side /= np.linalg.norm(side)
        u[0] = np.cos(tilt) * u[0] + np.sin(tilt) * side
        assert 1e-10 < EdgeFrame(r, u).residual < 1.5e-10
        frame = close(r, hints=u)
        assert frame.residual <= 1e-10
        assert pgl2_equivalent(moduli_point(EdgeFrame(r, u)), moduli_point(frame))


class TestCanonicalize:
    def test_square(self):
        frame = canonicalize(close((1, 1, 1, 1), hints=SQUARE_HINTS))
        assert np.allclose(frame.u[0], [1, 0, 0], atol=1e-12)
        assert np.allclose(frame.u[1], [0, 1, 0], atol=1e-12)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(5)
        frame = close([1, 1, 1, 1, F(3, 2)], seed=7)
        canon = canonicalize(frame)
        for _ in range(25):
            R = random_rotation(rng)
            again = canonicalize(frame.rotated(R))
            assert np.allclose(canon.u, again.u, atol=1e-9)

    def test_matches_np_cross_basis(self):
        # the written-out cross products give np.cross's basis bit for bit,
        # on generic frames and on line polygons (the fallback e_2)
        def np_cross_gauge(u, tol):
            e1 = u[0] / np.linalg.norm(u[0])
            perp = u[1:] - np.outer(u[1:] @ e1, e1)
            norms = np.linalg.norm(perp, axis=1)
            far = np.flatnonzero(norms > tol)
            if far.size:
                e2 = perp[far[0]] / norms[far[0]]
            else:
                e2 = np.cross(e1, np.eye(3)[np.argmin(np.abs(e1))])
                e2 /= np.linalg.norm(e2)
            basis = np.array([e1, e2, np.cross(e1, e2)])
            out = u @ basis.T
            return out / np.linalg.norm(out, axis=1, keepdims=True)

        tol = Tolerances().angle
        rng = np.random.default_rng(80)
        for trial in range(200):
            n = int(rng.integers(3, 13))
            u = rng.normal(size=(n, 3))
            if trial % 4 == 0:  # a line polygon on a random axis
                u = np.outer(rng.choice([-1.0, 1.0], size=n), u[0])
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            got = canonicalize(EdgeFrame([1] * n, u)).u
            assert np.array_equal(got, np_cross_gauge(u, tol))

    def test_line_gon_passthrough(self):
        u = [[0, 1, 0], [0, 1, 0], [0, -1, 0], [0, -1, 0]]
        frame = canonicalize(EdgeFrame((1, 1, 1, 1), u))
        want = [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [-1, 0, 0]]
        assert np.allclose(frame.u, want, atol=1e-12)
        assert is_line_gon(frame)


class TestDiagonal:
    def test_square_diagonal(self):
        frame = close((1, 1, 1, 1), hints=SQUARE_HINTS)
        _, length = diagonal(frame, (1, 2))
        assert abs(length - np.sqrt(2)) <= 1e-12

    def test_parallel_saturation(self):
        u = [[0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, -1]]
        frame = EdgeFrame((1, 2, 3, 6), u)
        _, length = diagonal(frame, (1, 2, 3))
        assert abs(length - 6.0) <= 1e-12

    def test_pentagon_window(self):
        for seed in range(5):
            frame = close([1] * 5, seed=seed)
            _, length = diagonal(frame, (1, 2))
            assert 0 < length <= 2 + 1e-12

    def test_saturation_iff_grouped(self):
        # saturated diagonal <-> the whole subset in one parallel class
        deg = close_degenerate((1, 1, 1, 2, 2, 2), [(1, 2, 3)], seed=0)
        _, d = diagonal(deg, (1, 2, 3))
        assert abs(d - 3.0) <= 1e-12
        assert [1, 2, 3] in parallel_classes(deg)
        gen = close((1, 1, 1, 2, 2, 2), seed=0)
        _, d = diagonal(gen, (1, 2, 3))
        assert d < 3.0 - 1e-6
        assert [1, 2, 3] not in parallel_classes(gen)


class TestParallelClasses:
    def test_line_gon_two_bundles(self):
        u = [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [-1, 0, 0]]
        assert parallel_classes(EdgeFrame((1, 1, 1, 1), u)) == [[1, 2], [3, 4]]

    def test_generic_pentagon_all_singletons(self):
        frame = close([1] * 5, seed=3)
        assert parallel_classes(frame) == [[1], [2], [3], [4], [5]]

    def test_triple_class(self):
        frame = close_degenerate((1, 1, 1, 2, 2, 2), [(1, 2, 3)], seed=1)
        assert parallel_classes(frame) == [[1, 2, 3], [4], [5], [6]]

    def test_forced_line_gon_gains_complementary_class(self):
        frame = close_degenerate((1, 1, 1, 1, 2), [(1, 2, 3)], seed=1)
        assert is_line_gon(frame)
        assert parallel_classes(frame) == [[1, 2, 3], [4, 5]]


def pair_angle(a, b):
    return float(np.arctan2(np.linalg.norm(np.cross(a, b)), np.dot(a, b)))


def reference_classes(frame, tol):
    n = frame.n
    near = [[pair_angle(frame.u[i], frame.u[j]) <= tol for j in range(n)] for i in range(n)]
    classes, seen = [], set()
    for i in range(n):  # flood fill from each row not yet reached
        if i in seen:
            continue
        stack, cls = [i], []
        seen.add(i)
        while stack:
            k = stack.pop()
            cls.append(frame.labels[k])
            for j in range(n):
                if near[k][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        classes.append(sorted(cls))
    return sorted(classes)


def reference_line(frame, tol):
    angles = [pair_angle(frame.u[0], row) for row in frame.u[1:]]
    return all(min(a, np.pi - a) <= tol for a in angles)


def reference_anchors(frame, tol):
    u = canonicalize(frame, tol).u
    anchors = []
    for i in range(len(u)):
        if all(pair_angle(u[i], u[j]) > tol for j in anchors):
            anchors.append(i)
            if len(anchors) == 3:
                break
    return tuple(anchors)


def planted_frame(rng, n, tol):
    """Unit rows tilted off a few base directions by 0, 0.5, 2 or 4.5 tol.

    Tilts of one base run along one great circle, so no two rows of a
    cluster sit near tol apart.  A third of the frames lie near one axis,
    half of those within 0.5 tol of it.
    """
    bases = rng.normal(size=(int(rng.integers(1, 4)), 3))
    tilts = [0.0, 0.5, 2.0, 4.5]
    if rng.random() < 1 / 3:
        bases = bases[:1]
        if rng.random() < 0.5:
            tilts = [0.0, 0.5]
    u = np.empty((n, 3))
    for i in range(n):
        k = int(rng.integers(len(bases) + (len(bases) > 1)))
        if k == len(bases):
            u[i] = rng.normal(size=3)
            continue
        base = bases[k] / np.linalg.norm(bases[k])
        side = np.cross(base, [1.0, 0.0, 0.0] if abs(base[0]) < 0.9 else [0.0, 1.0, 0.0])
        side /= np.linalg.norm(side)
        tilt = tol * rng.choice(tilts)
        sign = rng.choice([1.0, -1.0])  # antiparallel rows
        u[i] = sign * (np.cos(tilt) * base + np.sin(tilt) * side)
    return u / np.linalg.norm(u, axis=1, keepdims=True)


class TestPairAngles:
    def test_angle_between_is_gone(self):
        assert not hasattr(realize, "angle_between")

    def test_angle_groups_match_triangular_mask(self):
        # the union-find sees the pairs of np.triu(angles <= tol, 1), in order
        def triu_groups(angles, tol):
            parent = list(range(len(angles)))
            for i, j in np.argwhere(np.triu(angles <= tol, 1)).tolist():
                parent[realize._find(parent, i)] = realize._find(parent, j)
            groups = {}
            for i in range(len(angles)):
                groups.setdefault(realize._find(parent, i), []).append(i)
            return list(groups.values())

        tol = Tolerances().angle
        rng = np.random.default_rng(78)
        for _ in range(200):
            angles = realize._pair_angles(planted_frame(rng, int(rng.integers(4, 17)), tol))
            assert realize._angle_groups(angles, tol) == triu_groups(angles, tol)

    def test_predicates_match_per_pair_reference(self):
        tol = Tolerances().angle
        rng = np.random.default_rng(77)
        lines = anchored = 0
        for _ in range(200):
            n = int(rng.integers(4, 17))
            frame = EdgeFrame([1] * n, planted_frame(rng, n, tol))
            assert parallel_classes(frame) == reference_classes(frame, tol)
            line = is_line_gon(frame)
            assert line == reference_line(frame, tol)
            lines += line
            want = reference_anchors(frame, tol)
            if len(want) < 3:
                with pytest.raises(NoModuli):
                    moduli_point(frame)
            else:
                assert moduli_point(frame).anchors == want
                anchored += 1
        # both outcomes of each predicate are drawn
        assert 20 <= lines <= 180 and 20 <= anchored <= 180


class TestModuli:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        frame = close([1] * 5, seed=2)
        mp = moduli_point(frame)
        for _ in range(100):
            other = moduli_point(frame.rotated(random_rotation(rng)))
            assert pgl2_equivalent(mp, other)

    def test_relabelling_changes_ordered_moduli(self):
        # ordering matters: cyclically shifting the directions of a generic
        # quadrilateral gives a different ordered configuration
        frame = close((1, 1, 1, 1), seed=8)
        shifted = EdgeFrame((1, 1, 1, 1), np.roll(frame.u, -1, axis=0))
        assert not pgl2_equivalent(moduli_point(frame), moduli_point(shifted))

    def test_exact_square_shift_is_a_mobius_symmetry(self):
        # the one exception worth pinning down: the perfect square is carried
        # to its one-step relabelling by a rigid rotation (both ordered
        # configurations have cross ratio 2)
        frame = close((1, 1, 1, 1), hints=SQUARE_HINTS)
        shifted = EdgeFrame((1, 1, 1, 1), np.roll(frame.u, -1, axis=0))
        assert pgl2_equivalent(moduli_point(frame), moduli_point(shifted))

    def test_independent_closures_differ(self):
        a = moduli_point(close([1] * 5, seed=100))
        b = moduli_point(close([1] * 5, seed=101))
        assert not pgl2_equivalent(a, b)

    def test_matches_canonical_frame_pipeline(self):
        # moduli_point works on the direction array; the reference builds the
        # canonical frame first and reads the marks off it, bit for bit alike
        def via_frame(frame, tol):
            u = canonicalize(frame, tol).u
            anchors = reference_anchors(frame, tol)
            pairs = realize._stereographic_pairs(u)
            out = pairs @ realize._mobius_to_standard(*(pairs[i] for i in anchors)).T
            return out / np.linalg.norm(out, axis=1)[:, None], anchors

        tol = Tolerances().angle
        for seed in range(40):
            frame = close([1] * (4 + seed % 9), seed=seed)
            pairs, anchors = via_frame(frame, tol)
            mp = moduli_point(frame)
            assert np.array_equal(mp.pairs, pairs) and mp.anchors == anchors

    def test_line_gon_has_no_moduli(self):
        u = [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [-1, 0, 0]]
        with pytest.raises(NoModuli):
            moduli_point(EdgeFrame((1, 1, 1, 1), u))


class TestTransport:
    def test_round_trip_quadrilateral(self):
        frame = close([1, 1, 1, F(3, 2)], seed=9)
        there = transport(frame, F(6, 5))
        assert there.residual <= 1e-10
        back = transport(there, F(3, 2))
        assert pgl2_equivalent(moduli_point(frame), moduli_point(back), tol=1e-8)

    def test_moduli_preserved(self):
        frame = close([1, 1, 1, F(3, 2)], seed=21)
        moved = transport(frame, F(6, 5))
        assert pgl2_equivalent(moduli_point(frame), moduli_point(moved), tol=1e-8)
        rng = np.random.default_rng(12)
        moved_any = 0
        for seed in range(200):
            n = 5 + seed % 8
            r = [F(int(x), 100) for x in rng.integers(100, 200, size=n)]
            frame = close(r, seed=seed)
            try:
                moved = transport(frame, r[-1] * F(int(rng.integers(90, 110)), 100))
            except ChamberMismatch:
                continue
            assert moved.residual <= 1e-10
            assert pgl2_equivalent(moduli_point(frame), moduli_point(moved))
            moved_any += 1
        assert moved_any >= 50

    def test_heavy_weights_round_trip(self):
        # sum w near 150, where a target scaled by the total weight alone
        # would exceed the 1e-10 closure tolerance
        r = [30] * 5
        frame = close(r, seed=2)
        there = transport(frame, 29)
        back = transport(there, 30)
        assert there.residual <= 1e-10 and back.residual <= 1e-10
        assert pgl2_equivalent(moduli_point(frame), moduli_point(back))
        # an unclosed frame transported to its own lengths is balanced too
        u = frame.u.copy()
        side = np.cross(u[0], u[1])
        side /= np.linalg.norm(side)
        u[0] = np.cos(4e-12) * u[0] + np.sin(4e-12) * side
        assert transport(EdgeFrame(r, u), 30).residual <= 1e-10

    def test_balance_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(8)
        for n in range(3, 12):
            x = rng.normal(size=(n, 3))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            w = rng.uniform(0.5, 2.0, size=n)
            h = 1e-6
            fd = np.empty((3, 3))
            for k, e in enumerate(np.eye(3)):
                fd[:, k] = (w @ _boost(x, h * e) - w @ _boost(x, -h * e)) / (2 * h)
            assert np.allclose(_balance_jacobian(x, w), fd, rtol=0, atol=1e-8)

    def test_chamber_mismatch_rejected(self):
        frame = close([1, 1, 1, F(3, 2)], seed=4)
        with pytest.raises(ChamberMismatch):
            transport(frame, F(1, 2))  # crosses the pair walls

    def test_total_collapse_returns_line_gon(self):
        frame = close([1, 1, 1, F(3, 2)], seed=4)
        line = transport(frame, 3)
        assert is_line_gon(line)
        assert line.residual <= 1e-12

    def test_subset_form_matches_subpolygon(self):
        frame = close([1, 1, 1, 1, 2], seed=6)
        target = F(5, 2)
        via_J = transport(frame, target, J=(1, 2, 3))
        direct = transport(subpolygon(frame, (1, 2, 3)), target)
        assert via_J.labels == (1, 2, 3, 0)
        assert pgl2_equivalent(moduli_point(via_J), moduli_point(direct))


class TestIncidence:
    def test_constructed_bubble_is_incident(self):
        r = LengthVector([1, 1, 1, 1, 2])
        P = close(r, seed=6)
        QJ = subpolygon(P, (1, 2, 3))
        Q = transport(QJ, 3 - F(1, 2))  # the bubble's closing length, eps=1/2
        assert incidence(P, Q, (1, 2, 3))

    def test_below_window_false(self):
        # hexagon: |d_J| below sum_J - 2 min_J is possible, then nothing
        # can be incident along J
        r = LengthVector([1] * 6)
        J = (1, 2, 3)
        for seed in range(200):
            P = close(r, seed=seed)
            _, d = diagonal(P, J)
            if d < 1.0 - 1e-3:
                Q = close((1, 1, 1, F(5, 2)), seed=0)
                rep = incidence(P, Q, J, report=True)
                assert not rep.incident
                assert rep.lower_margin < 0
                break
        else:
            pytest.skip("no out-of-window sample drawn")

    def test_collapse_case_always_incident(self):
        r = LengthVector([1, 1, 1, 1, 2])
        P = close_degenerate(r, [(1, 2, 3)], seed=2)
        Q = close((1, 1, 1, F(5, 2)), seed=5)
        rep = incidence(P, Q, (1, 2, 3), report=True)
        assert rep.incident and rep.collapse

    def test_wrong_moduli_not_incident(self):
        r = LengthVector([1, 1, 1, 1, 2])
        P = close(r, seed=6)
        Q = close((1, 1, 1, F(5, 2)), seed=77)  # unrelated bubble candidate
        assert not incidence(P, Q, (1, 2, 3))

    def test_malformed_inputs_rejected(self):
        r = LengthVector([1, 1, 1, 1, 2])
        P = close(r, seed=6)
        Q = close((1, 1, 1, F(5, 2)), seed=5)
        with pytest.raises(InvalidArgument):
            incidence(P, Q, (3,))  # singletons cannot index a bubble
        with pytest.raises(InvalidArgument):
            incidence(P, Q, (1, 2))  # Q has the wrong number of edges
        bad = close((1, 1, F(3, 2), F(5, 2)), seed=5)
        with pytest.raises(InvalidArgument):
            incidence(P, bad, (1, 2, 3))  # Q does not inherit the J lengths


class TestWindowIsolation:
    def test_no_other_line_gon_in_window(self):
        # r on a wall: the line polygon for J is the only one with |d_J|
        # strictly inside the window
        r = LengthVector([1, 1, 1, 1, 2])
        J = (1, 2, 3)
        upper, lower = 3.0, 1.0
        hits = 0
        for seed in range(100):
            P = close(r, seed=seed)
            _, d = diagonal(P, J)
            if lower + 1e-7 < d < upper - 1e-7:
                hits += 1
                assert not is_line_gon(P)
        assert hits >= 50


class TestDominantEdge:
    def test_never_degenerates(self):
        r = LengthVector(["1", "1", "1", "1", "3.5"])
        for seed in range(100):
            P = close(r, seed=seed)
            classes = parallel_classes(P)
            cls5 = next(c for c in classes if 5 in c)
            assert cls5 == [5]
