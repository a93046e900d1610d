"""The parameter cone of (length, slack) pairs over the central chamber.

Each choice of a central length vector r together with a legal slack eps_J
for every relevant subset of more than two edges pins down one symplectic
class on the stable compactification; pair bubbles are rigid and contribute
nothing.  The number of free parameters is therefore

    n + #{relevant J with |J| > 2}  =  2^(n-1) - (n^2 - n + 2) / 2,

matching the rank of the second cohomology of the target space, and the set
of all legal pairs is a convex cone.  This module makes that bookkeeping
executable: membership tests, the linear chart theta on the central chamber,
the dimension count, and a deterministic sampler.
"""

from __future__ import annotations

import random
from math import inf
from typing import Optional

from .chambers import (
    EpsilonAssignment,
    LengthVector,
    as_length_vector,
    signature,
    _central_lengths,
    _central_signature,
    _fraction,
    _label,
    _light,
    _Record,
    _seed,
)
from .errors import InternalError, InvalidArgument

__all__ = [
    "central_contains",
    "central_report",
    "theta",
    "ParamPoint",
    "param_contains",
    "param_dim",
    "param_sample",
]


def _require_n(r: LengthVector):
    if r.n < 5:
        raise InvalidArgument("the central-chamber cone needs n >= 5")


def central_contains(r, base: Optional[LengthVector] = None) -> bool:
    """Is r strictly inside the central chamber?

    For odd n this is the unique chamber containing the all-ones ray; for
    even n the ray lies on walls and the chamber is the one singled out by
    the deterministic base point (overridable via `base`).
    """
    r = as_length_vector(r)
    _require_n(r)
    if not r.in_cone_interior():
        return False
    want = _central_signature(r.n) if base is None else signature(base)
    return signature(r) == want


def central_report(r, base: Optional[LengthVector] = None) -> dict:
    """Membership plus the walls r sits on (why boundary points fail)."""
    r = as_length_vector(r)
    _require_n(r)
    sig = signature(r)
    return {
        "contains": central_contains(r, base),
        "walls_on": [list(J) for J in sig.zeros()],
    }


def theta(r, base: Optional[LengthVector] = None) -> tuple:
    """Chart coordinates of the symplectic class of r on the central chamber.

    The identification is linear and injective there, so the coordinates are
    just r itself; outside the chamber the chart is undefined.
    """
    r = as_length_vector(r)
    if not central_contains(r, base):
        raise InvalidArgument("theta is only defined on the central chamber")
    return r.r


class ParamPoint(_Record):
    """A length vector in the central chamber plus slacks for R_{>2}(r)."""

    __slots__ = ("r", "eps")

    def __init__(self, r: LengthVector, eps: EpsilonAssignment):
        self.r, self.eps = r, eps

    def to_json(self):
        return {"r": [str(x) for x in self.r.r], "eps": self.eps.to_json()}


def _twice_minima(ints: tuple) -> list:
    """2 min_{j in J} ints[j-1] for every J by bitmask, by the doubling pass of
    the subset sums; the empty set reads inf."""
    mins = [inf]
    for v in ints:
        v *= 2
        mins += [m if m < v else v for m in mins]
    return mins


def param_contains(p: ParamPoint, base: Optional[LengthVector] = None) -> bool:
    """Is (r, eps) in the parameter cone?

    Needs r strictly central and, for every relevant J with |J| > 2, a slack
    assigned strictly inside (0, 2 min_J r_j).  The bounds are read from a
    table of subset minima, built once per call.
    """
    if not central_contains(p.r, base):
        return False
    r, eps, default = p.r, p.eps.eps, p.eps.default
    bounds = _twice_minima(r.ints)
    for m, J in _light(r, 3):
        e = eps.get(frozenset(J), default)
        if e is None:
            return False
        # e < 2 min_J r_j, with r_j = ints[j - 1] / den, cleared of denominators
        if not 0 < e.numerator or not e.numerator * r.den < bounds[m] * e.denominator:
            return False
    return True


def param_dim(n: int) -> int:
    """Number of parameters: 2^(n-1) - (n^2 - n + 2)/2."""
    n = _label(n, "n")
    if n < 5:
        raise InvalidArgument("need n >= 5")
    return 2 ** (n - 1) - (n * n - n + 2) // 2


def param_sample(n: int, seed: int = 0) -> ParamPoint:
    """Deterministic sample of the parameter cone near the all-ones ray.

    The length jitter stays small enough (exact-rational bookkeeping) that no
    wall sign can flip relative to the base point: each jittered length is
    formed as one integer numerator over a denominator common to all labels.
    Every slack is drawn uniformly from its open range, whose bound
    2 min_J r_j is read from a table of subset minima.  Each sampled point
    satisfies n + #R_{>2}(r) = param_dim(n).  Seeds are integers >= 0.
    """
    n = _label(n, "n")
    if n < 5:
        raise InvalidArgument("need n >= 5")
    rng = random.Random(1_000_003 * _seed(seed) + n)
    # margins at the base are at least 1/den, den = n^3 2^n for even n and 1
    # for odd n; each length moves by k/(4n^3 den), k in 0..n^2, so by at most
    # 1/(4n den): one integer numerator over the common denominator 4n^3 den
    den = 1 if n % 2 == 1 else n**3 * 2**n
    scale = 4 * n**3
    r = LengthVector(
        _fraction(b.numerator * (den // b.denominator) * scale + rng.randint(0, n * n),
                  scale * den)
        for b in _central_lengths(n)
    )
    if not central_contains(r):
        raise InternalError("sampler left the central chamber")
    # 2 min_J r_j times k/64, formed from the integer lengths over r.den; the
    # keys are the library's own subsets, so they skip the assignment's checks
    bounds = _twice_minima(r.ints)
    eps = EpsilonAssignment()
    eps.eps = {
        frozenset(J): _fraction(bounds[m] * rng.randint(1, 63), 64 * r.den)
        for m, J in _light(r, 3)
    }
    if n + len(eps.eps) != param_dim(n):
        raise InternalError("dimension bookkeeping failed")
    return ParamPoint(r=r, eps=eps)
