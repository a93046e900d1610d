"""Strata, blowup schedules, and Betti-number calculus for polygon spaces.

Polygons with a prescribed pattern of parallel edges form strata indexed by
set partitions of the edge labels: merging each block of a partition alpha
into a single edge identifies the stratum with a smaller polygon space whose
length vector r_alpha sums the block lengths.  The space of stable polygons
sits over the ordinary one as an iterated blowup along the single-merged-block
strata (walked from deepest to shallowest), which is what :func:`schedule`
spells out; when line polygons are present they are resolved first.

Poincare polynomials are handled as integer polynomials in t^2 and double as
point-count (E-) polynomials, which is what makes them additive over strata.
Three routes are implemented:

* :func:`poincare_wall_crossing` walks an exact segment from a reference
  chamber whose space is projective space, applying the surgery that one wall
  crossing performs on the Betti numbers;
* :func:`poincare_center` and :func:`ih_poincare_center` evaluate the closed
  forms for the chamber(s) at the all-ones ray (the even case is the
  intersection-cohomology polynomial of the singular quotient);
* :func:`stable_betti` sums E-polynomials of open strata over all bubble
  trees, giving the Betti numbers of the stable-polygon compactification.
  The answer is independent of the chamber and of the slacks, which makes a
  sharp cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from .chambers import (
    EpsilonAssignment,
    LengthVector,
    as_length_vector,
    is_favorable,
    line_gons,
    _canonical_walls,
    _light_sides,
)
from .errors import InternalError, InvalidArgument

__all__ = [
    "PoincarePoly",
    "Stratum",
    "strata",
    "BlowupStep",
    "schedule",
    "poincare_wall_crossing",
    "poincare_center",
    "ih_poincare_center",
    "stable_betti",
]


class PoincarePoly:
    """Integer polynomial in t^2; index i holds the coefficient of t^(2i)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def projective(cls, m: int) -> "PoincarePoly":
        """Poincare polynomial of complex projective m-space."""
        if m < 0:
            return cls()
        return cls([1] * (m + 1))

    @classmethod
    def one(cls) -> "PoincarePoly":
        return cls([1])

    def _pad(self, k):
        return list(self.coeffs) + [0] * (k - len(self.coeffs))

    def __add__(self, other):
        k = max(len(self.coeffs), len(other.coeffs))
        return PoincarePoly(a + b for a, b in zip(self._pad(k), other._pad(k)))

    def __sub__(self, other):
        k = max(len(self.coeffs), len(other.coeffs))
        return PoincarePoly(a - b for a, b in zip(self._pad(k), other._pad(k)))

    def __neg__(self):
        return PoincarePoly(-a for a in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return PoincarePoly(other * a for a in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PoincarePoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PoincarePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self) -> int:
        """Half the topological degree (top power of t^2), -1 if zero."""
        return len(self.coeffs) - 1

    def palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def at_one(self) -> int:
        """Value at t=1 (the Euler characteristic for honest Poincare data)."""
        return sum(self.coeffs)

    def coefficient(self, half_degree: int) -> int:
        if 0 <= half_degree < len(self.coeffs):
            return self.coeffs[half_degree]
        return 0

    def to_json(self):
        return list(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            else:
                lead = "" if a == 1 else ("-" if a == -1 else f"{a}*")
                terms.append(f"{lead}t^{2 * i}")
        return " + ".join(terms).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# strata by set partitions
# ---------------------------------------------------------------------------


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


def _block_sums(r: LengthVector, blocks) -> list:
    """Block sums of `r.ints` (block sums of r times `r.den`), in block order."""
    return [sum(r.ints[j - 1] for j in b) for b in blocks]


@dataclass
class Stratum:
    blocks: tuple
    k: int
    dim: int
    merged: tuple
    nonempty_closed: bool
    nonempty_open: bool
    r_alpha: tuple

    @property
    def single_block(self) -> bool:
        return len(self.merged) == 1

    def to_json(self):
        return {
            "blocks": [list(b) for b in self.blocks],
            "k": self.k,
            "dim": self.dim,
            "merged": [list(b) for b in self.merged],
            "nonempty_closed": self.nonempty_closed,
            "nonempty_open": self.nonempty_open,
            "r_alpha": [str(x) for x in self.r_alpha],
        }


def strata(r, include_empty: bool = False, include_trivial: bool = True):
    """All parallel-edge strata of the polygon space of r.

    Returns (entries, edges): one :class:`Stratum` per set partition with at
    least one merged block (plus the trivial all-singletons partition unless
    suppressed), and the covering edges of the refinement order among the
    returned partitions (beta covers alpha when merging two blocks of beta
    gives alpha).  A closed stratum is nonempty when the merged vector is a
    legal length vector; the open part additionally needs a strict interior
    vector and at least three blocks.  Expected dimension k-3 is reported
    verbatim, including the two-block case (a single line polygon).
    """
    r = as_length_vector(r)
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    total = sum(r.ints)
    entries = []
    for blocks in set_partitions(range(1, r.n + 1)):
        merged = tuple(b for b in blocks if len(b) >= 2)
        if not merged and not include_trivial:
            continue
        sums = _block_sums(r, blocks)
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


@dataclass
class BlowupStep:
    kind: str  # "resolution" or "blowup"
    center: tuple
    codim: int
    nontrivial: bool
    eps: Optional[Fraction] = None

    def to_json(self):
        return {
            "kind": self.kind,
            "center": list(self.center),
            "codim": self.codim,
            "nontrivial": self.nontrivial,
            "eps": None if self.eps is None else str(self.eps),
        }


def schedule(r, eps: Optional[EpsilonAssignment] = None):
    """Ordered construction of the stable compactification over M_r.

    Line polygons (walls on which r sits) are resolved first, then the
    single-merged-block strata Y_J for strictly relevant J are blown up from
    deepest (largest |J|) to shallowest.  Multi-block strata arise as
    intersections of these centers and are never centers themselves.  Steps
    with |J| = 2 are recorded but flagged trivial: the corresponding bubble is
    a rigid triangle and the blowup is an isomorphism.
    """
    r = as_length_vector(r)
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    steps = []
    for J in line_gons(r):
        steps.append(
            BlowupStep(kind="resolution", center=J, codim=r.n - 3, nontrivial=True)
        )
    centers = [J for J, d in _light_sides(r, 2) if d < 0]
    centers.sort(key=lambda J: (-len(J), J))
    for J in centers:
        steps.append(
            BlowupStep(
                kind="blowup",
                center=J,
                codim=len(J) - 1,
                nontrivial=len(J) >= 3,
                eps=None if eps is None else eps.get(J),
            )
        )
    return steps


# ---------------------------------------------------------------------------
# wall crossing
# ---------------------------------------------------------------------------


def _favorable_reference(n: int) -> LengthVector:
    # (1, ..., 1, n-2) dominates in its last edge and has all margins odd,
    # hence off every wall
    return LengthVector([1] * (n - 1) + [n - 2])


def _crossings(r0: LengthVector, r1: LengthVector):
    """Wall crossings of the segment r(u) = (1-u) r0 + u r1, 0 <= u <= 1.

    Returns (ok, events) where events are (u, J, sign_after) for canonical J;
    ok is False when r0 lies on a wall or two walls are hit at the same
    parameter, in which case the caller should perturb the reference end.
    Signs are compared on the integer subset-sum tables; u is formed only for
    walls whose sign flips.
    """
    s0, s1 = r0.subset_sums(), r1.subset_sums()
    events = []
    seen = set()
    for w, m in zip(*_canonical_walls(r0.n)):
        # the margins are d0 / r0.den and d1 / r1.den
        d0 = 2 * s0[m] - s0[-1]
        d1 = 2 * s1[m] - s1[-1]
        if d1 == 0:
            raise InvalidArgument("segment endpoint lies on a wall")
        if d0 == 0:
            return False, []
        if (d0 > 0) == (d1 > 0):
            continue
        u = Fraction(d0 * r1.den, d0 * r1.den - d1 * r0.den)
        if u in seen:
            return False, []
        seen.add(u)
        events.append((u, w.J, 1 if d1 > 0 else -1))
    events.sort()
    return True, events


def poincare_wall_crossing(r) -> PoincarePoly:
    """Poincare polynomial of the smooth polygon space of r by wall crossing.

    Starts from a reference vector whose space is P^(n-3) and walks a straight
    segment to r.  Crossing the wall of J into the side where J is the lighter
    half replaces fibers: the polynomial gains P^(|J^c|-2) - P^(|J|-2), and
    loses it when crossing the other way.  The reference endpoint is nudged
    along a powers-of-two direction until all crossing parameters are
    distinct, so walls are met one at a time.  (A coordinate-linear nudge like
    (1, 2, ..., n) cannot do this job: two same-size walls whose index sums
    agree, such as {1,2,3,6} and {1,2,4,5}, would be hit simultaneously for
    every nudge size.)
    """
    r = as_length_vector(r)
    if r.n < 4:
        raise InvalidArgument("need n >= 4")
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    if line_gons(r):
        raise InvalidArgument("r lies on a wall; its space is singular")
    n = r.n
    base = _favorable_reference(n)
    step = LengthVector(Fraction(2 ** (i - 1), n**4 * 2**n) for i in range(1, n + 1))
    for k in range(0, 4096):
        r0 = LengthVector(b + k * s for b, s in zip(base.r, step.r))
        if not is_favorable(r0, n):
            continue
        ok, events = _crossings(r0, r)
        if ok:
            break
    else:
        raise InvalidArgument("could not find a generic segment to r")
    poly = PoincarePoly.projective(n - 3)
    for _, J, sign_after in events:
        gain = PoincarePoly.projective(len(J) - 2) - PoincarePoly.projective(
            n - len(J) - 2
        )
        poly = poly + sign_after * gain
    return poly


def _center_series(n: int) -> PoincarePoly:
    """Closed-form sum at the all-ones ray: (n-3)//2 terms, (n-4)//2 for even n."""
    poly = PoincarePoly.projective(n - 3)
    for k in range(1, (n - 3) // 2 + 1):
        poly = poly + comb(n - 1, k) * (
            PoincarePoly.projective(n - 3 - k) - PoincarePoly.projective(k - 1)
        )
    return poly


def poincare_center(n: int) -> PoincarePoly:
    """Closed form for the chamber at the all-ones ray, n odd."""
    if n < 5 or n % 2 == 0:
        raise InvalidArgument("need odd n >= 5")
    return _center_series(n)


def ih_poincare_center(n: int) -> PoincarePoly:
    """Intersection Poincare polynomial of the quotient at the ray, n even."""
    if n < 6 or n % 2 == 1:
        raise InvalidArgument("need even n >= 6")
    return _center_series(n)


# ---------------------------------------------------------------------------
# Betti numbers of the stable compactification
# ---------------------------------------------------------------------------


def _normalize_multiset(values) -> tuple:
    """Scale a multiset of positive rationals or ints to coprime integers."""
    denom = 1
    for v in values:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = sorted(int(v * denom) for v in values)
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


class _BettiEngine:
    """Memoized E-polynomial bookkeeping over one (r, eps) input."""

    def __init__(self, r: LengthVector, eps: EpsilonAssignment):
        self.r = r
        self.eps = eps
        self.n = r.n
        self._closed = {}
        self._open = {}
        self._bubble = {}

    # E-polynomial of the full polygon space of an off-wall length multiset
    def e_closed(self, key: tuple) -> PoincarePoly:
        if key not in self._closed:
            if len(key) == 3:
                poly = PoincarePoly.one()
            else:
                poly = poincare_wall_crossing(LengthVector(key))
            self._closed[key] = poly
        return self._closed[key]

    # E-polynomial of the open (no parallel edges) part: subtract every
    # nonempty open stratum given by a coarser partition
    def e_open(self, key: tuple) -> PoincarePoly:
        if key not in self._open:
            poly = self.e_closed(key)
            k = len(key)
            total = sum(key)
            for blocks in set_partitions(range(k)):
                if len(blocks) == k or len(blocks) < 3:
                    continue
                sums = [sum(key[i] for i in b) for b in blocks]
                if 2 * max(sums) < total:
                    poly = poly - self.e_open(_normalize_multiset(sums))
            self._open[key] = poly
        return self._open[key]

    def component_vector(self, members: Sequence[frozenset], ground, last=None):
        """Length multiset of one bubble-tree component, times `r.den`.

        `members` are the collapsed children, `ground` the loose labels, and
        `last` the exact length of the closing edge times `r.den`, for
        non-root components.
        """
        vals = _block_sums(self.r, members) + [self.r.ints[j - 1] for j in ground]
        if last is not None:
            vals.append(last)
        return vals

    def bubble_sum(self, J: frozenset) -> PoincarePoly:
        """Sum over all bubble trees rooted at J of their E-polynomial product."""
        if J not in self._bubble:
            ints = self.r.ints
            sum_J = sum(ints[j - 1] for j in J)
            last = sum_J - self.eps.get(J) * self.r.den
            total = sum_J + last
            candidates = [
                frozenset(c)
                for k in range(2, len(J))
                for c in itertools.combinations(sorted(J), k)
                # the collapsed child must stay strictly short of half the
                # bubble perimeter or the component vector leaves the cone
                if 2 * sum(ints[j - 1] for j in c) < total
            ]
            acc = PoincarePoly()
            for family in _disjoint_families(candidates):
                covered = set().union(*family) if family else set()
                loose = [j for j in sorted(J) if j not in covered]
                vals = self.component_vector(family, loose, last)
                if 2 * max(vals) >= sum(vals):
                    continue
                term = self.e_open(_normalize_multiset(vals))
                for child in family:
                    term = term * self.bubble_sum(child)
                acc = acc + term
            self._bubble[J] = acc
        return self._bubble[J]

    def total(self) -> PoincarePoly:
        labels = range(1, self.n + 1)
        # strictly light J; a light J of size n-1 would put r outside the cone
        candidates = [frozenset(J) for J, d in _light_sides(self.r, 2) if d < 0]
        acc = PoincarePoly()
        for family in _disjoint_families(candidates):
            covered = set().union(*family) if family else set()
            loose = [j for j in labels if j not in covered]
            vals = self.component_vector(family, loose)
            if 2 * max(vals) >= sum(vals):
                continue
            term = self.e_open(_normalize_multiset(vals))
            for child in family:
                term = term * self.bubble_sum(child)
            acc = acc + term
        return acc


def _disjoint_families(candidates):
    """All collections of pairwise disjoint candidate subsets (incl. empty)."""
    cands = sorted(candidates, key=lambda c: (min(c), len(c), sorted(c)))

    def rec(i, used, current):
        yield list(current)
        for j in range(i, len(cands)):
            c = cands[j]
            if used & c:
                continue
            current.append(c)
            yield from rec(j + 1, used | c, current)
            current.pop()

    yield from rec(0, frozenset(), [])


def stable_betti(r, eps: Optional[EpsilonAssignment] = None) -> PoincarePoly:
    """Betti numbers of the moduli space of stable polygons over r.

    Sums, over all bubble trees (laminar families of relevant subsets), the
    product of open-stratum E-polynomials of the tree components.  Needs r
    interior and off every wall; the result must come out with nonnegative
    palindromic coefficients and is independent of the chamber of r and of
    the choice of slacks, both of which are asserted in the test suite rather
    than here.
    """
    r = as_length_vector(r)
    if r.n < 4:
        raise InvalidArgument("need n >= 4")
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    if line_gons(r):
        raise InvalidArgument(
            "r lies on a wall: the ordinary space is singular and this "
            "summation does not apply (the schedule still reports the "
            "resolution step)"
        )
    if eps is None:
        eps = EpsilonAssignment.canonical(r)
    engine = _BettiEngine(r, eps)
    poly = engine.total()
    if any(c < 0 for c in poly.coeffs) or not poly.palindromic():
        raise InternalError(f"stratification sum came out malformed: {poly!r}")
    return poly
