import random

import pytest
from fractions import Fraction

from stablegons.chambers import (
    EpsilonAssignment,
    LengthVector,
    _central_lengths,
    _light,
    relevant_subsets,
)
from stablegons.cone import (
    ParamPoint,
    _twice_minima,
    central_contains,
    central_report,
    param_contains,
    param_dim,
    param_sample,
    theta,
)
from stablegons.errors import InvalidArgument

F = Fraction


class TestCentral:
    def test_ray_generator(self):
        assert central_contains([1] * 5)

    def test_dominant_vector_outside(self):
        assert not central_contains(("1", "1", "1", "1", "3.5"))

    def test_even_equilateral_on_walls(self):
        rep = central_report([1] * 6)
        assert not rep["contains"]
        assert [1, 2, 3] in rep["walls_on"]
        assert len(rep["walls_on"]) == 10  # canonical triple walls of n=6

    def test_small_n_rejected(self):
        with pytest.raises(InvalidArgument):
            central_contains([1] * 4)


class TestTheta:
    def test_linearity(self):
        a = LengthVector([1] * 7)
        b = LengthVector([F(9, 8), 1, 1, 1, 1, 1, F(9, 8)])
        s = LengthVector(x + y for x, y in zip(a.r, b.r))
        assert central_contains(b) and central_contains(s)
        assert theta(s) == tuple(x + y for x, y in zip(theta(a), theta(b)))

    def test_homogeneity(self):
        r = LengthVector([1] * 7)
        lam = F(5, 3)
        assert theta(r.scaled(lam)) == tuple(lam * x for x in theta(r))

    def test_domain(self):
        with pytest.raises(InvalidArgument):
            theta(("1", "1", "1", "1", "3.5"))


class TestParamCone:
    def test_dims(self):
        assert param_dim(5) == 5
        assert param_dim(6) == 16
        assert param_dim(7) == 42

    def test_center_has_no_large_relevant_subsets_at_5(self):
        assert relevant_subsets(LengthVector([1] * 5), 3) == []

    def test_dim_identity_sampled(self):
        for n in range(5, 10):
            for seed in range(5):
                p = param_sample(n, seed=seed)
                assert p.r.n + len(p.eps.eps) == param_dim(n)
                assert param_contains(p)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1"])
    def test_bad_seed_is_refused(self, seed):
        with pytest.raises(InvalidArgument, match="seed .* is (not an integer|negative)"):
            param_sample(5, seed=seed)

    def test_numpy_integer_seed_matches_int(self):
        np = pytest.importorskip("numpy")
        assert param_sample(6, seed=np.int64(3)).to_json() == param_sample(6, seed=3).to_json()

    def test_membership_rejects_bad_eps(self):
        p = param_sample(6, seed=1)
        J = next(iter(p.eps.eps))
        bad = dict(p.eps.eps)
        bad[J] = 2 * min(p.r.r[j - 1] for j in J)  # boundary, not open range
        assert not param_contains(ParamPoint(p.r, EpsilonAssignment(bad)))
        missing = dict(p.eps.eps)
        del missing[J]
        assert not param_contains(ParamPoint(p.r, EpsilonAssignment(missing)))

    def test_convexity_of_midpoints(self):
        for seed in (0, 1, 2):
            a = param_sample(7, seed=seed)
            b = param_sample(7, seed=seed + 10)
            mid_r = LengthVector(
                (x + y) / 2 for x, y in zip(a.r.r, b.r.r)
            )
            mid_eps = {
                tuple(sorted(J)): (a.eps.eps[J] + b.eps.eps[J]) / 2
                for J in a.eps.eps
            }
            assert param_contains(ParamPoint(mid_r, EpsilonAssignment(mid_eps)))

    def test_sampler_deterministic(self):
        assert param_sample(6, seed=3).to_json() == param_sample(6, seed=3).to_json()

    def test_sampler_output_pinned(self):
        # the slacks are formed from the integer lengths over one denominator;
        # the values are the ones the Fraction-valued sampler gave
        eps = {
            "1,2,3": "15893/21952", "1,2,4": "26949/21952", "1,2,5": "6219/10976",
            "1,2,6": "45309/43904", "1,2,7": "21421/10976", "1,3,4": "691/3136",
            "1,3,5": "2073/21952", "1,3,6": "4119/10976", "1,3,7": "7601/10976",
            "1,4,5": "691/1372", "1,4,6": "17849/21952", "1,4,7": "22803/21952",
            "1,5,6": "15103/43904", "1,5,7": "6219/10976", "1,6,7": "37071/21952",
            "2,3,4": "1403/3136", "2,3,5": "865/686", "2,3,6": "31579/43904",
            "2,3,7": "18005/43904", "2,4,5": "865/1372", "2,4,6": "56293/43904",
            "2,4,7": "59555/43904", "2,5,6": "1373/1568", "2,5,7": "865/686",
            "2,6,7": "20595/10976", "3,4,5": "8823/5488", "3,4,6": "31579/21952",
            "3,4,7": "1385/3136", "3,5,6": "1373/2744", "3,5,7": "519/686",
            "3,6,7": "1373/3136", "4,5,6": "39817/43904", "4,5,7": "519/686",
            "4,6,7": "23341/43904", "5,6,7": "34325/21952",
        }
        r = ["691/686", "354/343", "1403/1372", "1413/1372", "346/343", "1373/1372",
             "1385/1372"]
        p = param_sample(7, seed=5)
        assert p.to_json() == {"r": r, "eps": {"eps": eps, "default": None}}
        assert param_contains(p)

    def test_membership_at_the_slack_bounds(self):
        # the integer test agrees with 0 < eps < 2 min_J r_j on both sides of
        # each end, at a scale far below the denominators of r
        p = param_sample(8, seed=2)
        tiny = F(1, 10**30)
        for J in list(p.eps.eps)[:5]:
            hi = 2 * min(p.r.r[j - 1] for j in J)
            for value, inside in ((tiny, True), (hi - tiny, True), (F(0), False),
                                  (-tiny, False), (hi, False), (hi + tiny, False)):
                eps = dict(p.eps.eps)
                eps[J] = value
                assert param_contains(ParamPoint(p.r, EpsilonAssignment(eps))) is inside

    def test_membership_reads_slacks_and_default(self):
        p = param_sample(8, seed=4)
        J = next(iter(p.eps.eps))
        assert all(isinstance(k, frozenset) for k in p.eps.eps)
        assert p.eps.get(sorted(J)) == p.eps.eps[J]
        missing = {K: v for K, v in p.eps.eps.items() if K != J}
        assert not param_contains(ParamPoint(p.r, EpsilonAssignment(missing)))
        # a default answers for the missing subset, legal or not
        hi = 2 * min(p.r.r[j - 1] for j in J)
        for default, inside in ((hi / 2, True), (hi, False), (F(-1), False)):
            eps = EpsilonAssignment(missing, default=default)
            assert param_contains(ParamPoint(p.r, eps)) is inside
        assert param_contains(ParamPoint(p.r, EpsilonAssignment(default=F(1, 10**6))))
        assert not param_contains(ParamPoint(p.r, EpsilonAssignment()))

    def test_membership_refuses_a_non_central_r(self):
        p = param_sample(7, seed=1)
        for r in ([1, 1, 1, 1, 1, 1, 4], [F(4, 3)] * 3 + [1] * 4, [1, 1, 1, 1, 1, 1, 9]):
            assert not param_contains(ParamPoint(LengthVector(r), p.eps))
            assert not param_contains(ParamPoint(LengthVector(r), EpsilonAssignment(default=F(1, 100))))

    def test_wall_margin_vanishes_toward_chamber_boundary(self):
        # walking from the center toward a wall of the central chamber, the
        # margin of that wall shrinks linearly to zero and membership is lost
        # exactly at the wall
        from stablegons.chambers import wall_margin

        n = 7
        inside = LengthVector([1] * n)
        J = (1, 2, 3)  # margin 6 - 8 < 0 at the center
        on_wall = LengthVector((F(4, 3), F(4, 3), F(4, 3), 1, 1, 1, 1))
        assert wall_margin(on_wall, J) == 0
        last = None
        for t in (F(0), F(1, 2), F(3, 4), F(9, 10)):
            r = LengthVector(
                a + t * (b - a) for a, b in zip(inside.r, on_wall.r)
            )
            m = wall_margin(r, J)
            assert m < 0
            if last is not None:
                assert abs(m) < abs(last)
            assert central_contains(r)
            last = m
        assert not central_contains(on_wall)


def test_param_point_is_a_record():
    p = param_sample(6, seed=2)
    assert p == ParamPoint(r=p.r, eps=p.eps) == ParamPoint(p.r, p.eps)
    assert p != ParamPoint(p.r, EpsilonAssignment(p.eps.eps))  # slacks compare by identity
    assert p != (p.r, p.eps)
    assert repr(p) == f"ParamPoint(r={p.r!r}, eps={p.eps!r})"
    with pytest.raises(TypeError):
        ParamPoint(p.r)
    with pytest.raises(TypeError):
        ParamPoint(p.r, r=p.r)
    with pytest.raises(TypeError):
        ParamPoint(p.r, p.eps, None)


def _reference_sample(n, seed):
    """param_sample as it was first written, in Fraction arithmetic."""
    rng = random.Random(1_000_003 * seed + n)
    floor = F(1) if n % 2 == 1 else F(1, n**3 * 2**n)
    scale = floor / (4 * n)
    r = LengthVector(b + scale * F(rng.randint(0, n * n), n * n) for b in _central_lengths(n))
    bounds = _twice_minima(r.ints)
    eps = {frozenset(J): F(bounds[m] * rng.randint(1, 63), 64 * r.den) for m, J in _light(r, 3)}
    return r, eps


def test_param_sample_matches_the_fraction_reference():
    for n in range(5, 13):
        for seed in range(10):
            p = param_sample(n, seed=seed)
            r, eps = _reference_sample(n, seed)
            assert p.r == r and p.eps.eps == eps and p.eps.default is None
            for got, want in zip(p.r.r + tuple(p.eps.eps.values()), r.r + tuple(eps.values())):
                assert type(got) is Fraction
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
