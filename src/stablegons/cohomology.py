"""Strata, blowup schedules, and Betti-number calculus for polygon spaces.

Polygons with a prescribed pattern of parallel edges form strata indexed by
set partitions of the edge labels: merging each block of a partition alpha
into a single edge identifies the stratum with a smaller polygon space whose
length vector r_alpha sums the block lengths.  :func:`strata` enumerates the
partitions as tuples of label bitmasks, least label first, and reads every
block length from the subset-sum table of r.  The space of stable polygons
sits over the ordinary one as an iterated blowup along the single-merged-block
strata (walked from deepest to shallowest), which is what :func:`schedule`
spells out; when line polygons are present they are resolved first.

Poincare polynomials are handled as integer polynomials in t^2 and double as
point-count (E-) polynomials, which is what makes them additive over strata.
Three routes are implemented:

* :func:`poincare_wall_crossing` adds to the polynomial of a reference
  chamber, whose space is projective space, the surgery term of every wall
  on which r lies on the other side, read in one pass over the integer
  subset-sum table of r;
* :func:`poincare_center` and :func:`ih_poincare_center` evaluate the closed
  forms for the chamber(s) at the all-ones ray (the even case is the
  intersection-cohomology polynomial of the singular quotient);
* :func:`stable_betti` sums E-polynomials of open strata over all bubble
  trees, giving the Betti numbers of the stable-polygon compactification.
  The answer is independent of the chamber, which makes a sharp cross-check.
  The open stratum of a component with k special points (no two edges
  parallel) is k distinct points on P^1 modulo PGL_2, that is M_{0,k}.  The
  root's bubbles are the short subsets of r, summed by a least-element
  dynamic program over the labels it has left; a bubble over m labels admits
  every smaller one, so it is M_{0,m+1}-bar and its trees sum to B(m), cached
  by m alone.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .chambers import (
    EpsilonAssignment,
    LengthVector,
    as_length_vector,
    _bubble_candidates,
    _canonical_walls,
    _fraction,
    _FrozenRecord,
    _label,
    _Record,
    _walls_on,
)
from .errors import InternalError, InvalidArgument, RangeError

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


def _poly_mul(a: tuple, b: tuple) -> tuple:
    """Product of two integer polynomials held as coefficient tuples."""
    if len(b) == 1:
        return a if b[0] == 1 else tuple(b[0] * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_add_into(acc: list, p: Sequence[int]) -> None:
    """acc += p, for integer polynomials held as coefficient sequences."""
    if len(acc) < len(p):
        acc.extend([0] * (len(p) - len(acc)))
    for i, x in enumerate(p):
        acc[i] += x


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

    def __mul__(self, other):
        if isinstance(other, int):
            return PoincarePoly(other * a for a in self.coeffs)
        return PoincarePoly(_poly_mul(self.coeffs, other.coeffs))

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
# strata by set partitions of label bitmasks
# ---------------------------------------------------------------------------


def _partitions(bits: int):
    """All set partitions of the labels in bitmask `bits`, as tuples of block
    masks ordered by least label: that label joins a block of a partition of
    the others, which then comes first, or stands alone in front."""
    if not bits:
        yield ()
        return
    first = bits & -bits
    for part in _partitions(bits ^ first):
        for i in range(len(part)):
            yield (part[i] | first,) + part[:i] + part[i + 1 :]
        yield (first,) + part


class Stratum(_Record):
    """One parallel-edge stratum of :func:`strata`; unhashable, like a list."""

    __slots__ = ("blocks", "k", "dim", "merged", "nonempty_closed", "nonempty_open", "r_alpha")

    def __init__(self, blocks, k, dim, merged, nonempty_closed, nonempty_open, r_alpha):
        self._fill(blocks, k, dim, merged, nonempty_closed, nonempty_open, r_alpha)

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


def strata(r, include_empty: bool = False):
    """All parallel-edge strata of the polygon space of r.

    Returns (entries, edges): one :class:`Stratum` per set partition of the
    labels, the trivial all-singletons one included, and the covering edges
    of the refinement order among the returned partitions (beta covers alpha
    when merging two blocks of beta gives alpha), as (alpha, beta) pairs of
    block tuples.  A closed stratum is nonempty when the merged vector is a
    legal length vector; the open part additionally needs a strict interior
    vector and at least three blocks.  Expected dimension k-3 is reported
    verbatim, including the two-block case (a single line polygon).
    Partitions run over label bitmasks, block sums over the subset-sum table.
    """
    r = as_length_vector(r)
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    sums = r.subset_sums()
    total = sums[-1]
    # the sorted labels and the length of the block with mask m, indexed as sums
    labels = [()]
    for j in range(1, r.n + 1):
        labels += [b + (j,) for b in labels]
    lengths = [_fraction(s, r.den) for s in sums]
    entries = []
    index = {}
    for part in _partitions(len(sums) - 1):
        k = len(part)
        heavy = 2 * max(sums[m] for m in part)
        closed = k >= 2 and heavy <= total
        if not closed and not include_empty:
            continue
        blocks = tuple(labels[m] for m in part)
        index[part] = blocks
        entries.append(
            Stratum(
                blocks=blocks,
                k=k,
                dim=k - 3,
                merged=tuple(b for b in blocks if len(b) >= 2),
                nonempty_closed=closed,
                nonempty_open=k >= 3 and heavy < total,
                r_alpha=tuple(lengths[m] for m in part),
            )
        )
    edges = []
    for part, blocks in index.items():
        # fusing blocks i < j keeps the least-label order: the fused block
        # inherits the least label of block i
        for i, j in itertools.combinations(range(len(part)), 2):
            fused = part[:i] + (part[i] | part[j],) + part[i + 1 : j] + part[j + 1 :]
            if fused in index:
                edges.append((index[fused], blocks))
    return entries, edges


class BlowupStep(_FrozenRecord):
    """One read-only step of :func:`schedule`; `eps` is the slack at the center, if given."""

    __slots__ = ("kind", "center", "codim", "nontrivial", "eps")

    def __init__(self, kind, center, codim, nontrivial, eps: Optional[Fraction] = None):
        self._fill(kind, center, codim, nontrivial, eps)

    def to_json(self):
        return {
            "kind": self.kind,
            "center": list(self.center),
            "codim": self.codim,
            "nontrivial": self.nontrivial,
            "eps": None if self.eps is None else str(self.eps),
        }


@functools.cache
def _blowup_steps(n: int) -> tuple:
    """(mask, step) for every candidate center J over n labels, deepest first."""
    out = [
        (m, BlowupStep("blowup", J, len(J) - 1, len(J) >= 3))
        for m, J in _bubble_candidates(n)
    ]
    out.sort(key=lambda item: (-len(item[1].center), item[1].center))
    return tuple(out)


def _require_legal(r: LengthVector, eps: Optional[EpsilonAssignment]) -> None:
    if eps is not None and not eps.legal_for(r):
        raise RangeError(f"slacks {eps.to_json()} leave some 0 < eps_J < 2 min_J r_j")


def schedule(r, eps: Optional[EpsilonAssignment] = None):
    """Ordered construction of the stable compactification over M_r.

    Line polygons (walls on which r sits) are resolved first, then the
    single-merged-block strata Y_J for strictly relevant J are blown up from
    deepest (largest |J|) to shallowest.  Multi-block strata arise as
    intersections of these centers and are never centers themselves.  Steps
    with |J| = 2 are recorded but flagged trivial: the corresponding bubble is
    a rigid triangle and the blowup is an isomorphism.  Slacks must be legal
    for r, or :class:`RangeError` is raised.  Steps are frozen: unannotated
    blowup steps are shared by every call at the same n.
    """
    r = as_length_vector(r)
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    _require_legal(r, eps)
    sums = r.subset_sums()
    total = sums[-1]
    steps = [BlowupStep("resolution", J, r.n - 3, True) for J in _walls_on(sums, r.n)]
    blowups = [s for m, s in _blowup_steps(r.n) if 2 * sums[m] < total]
    if eps is not None:
        blowups = [BlowupStep(s.kind, s.center, s.codim, s.nontrivial, eps.get(s.center))
                   for s in blowups]
    return steps + blowups


# ---------------------------------------------------------------------------
# wall crossing
# ---------------------------------------------------------------------------


def poincare_wall_crossing(r) -> PoincarePoly:
    """Poincare polynomial of the smooth polygon space of r by wall crossing.

    Starts from the reference (1, ..., 1, n-2), whose space is P^(n-3), and
    crosses to r.  Crossing the wall of J into the side where J is the lighter
    half replaces fibers: the polynomial gains P^(|J^c|-2) - P^(|J|-2), and
    loses it when crossing the other way.  Each term depends only on J and on
    the side it enters, so crossing a wall and crossing back cancel, and any
    path from the reference sums to the same polynomial: P^(n-3) plus one
    term for every wall on which r and the reference differ in sign.  The
    order of the crossings, and whether a path meets two walls at one point,
    cannot change that sum, so it is evaluated in one pass over the integer
    subset-sum table of r without choosing a path.  Only the wall masks are
    kept, per n; the heavy walls of r are counted anew on every call.
    """
    r = as_length_vector(r)
    if r.n < 4:
        raise InvalidArgument("need n >= 4")
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    n = r.n
    sums = r.subset_sums()
    total = sums[-1]
    # the reference has J on the lighter side of every canonical wall
    # (2|J| < 2n - 3 for |J| <= n-2, since n is not in J), so r crossed the
    # walls where J is heavy at r, each into J's heavy side
    crossed = [0] * (n - 1)  # net crossings, by |J|
    for m in _canonical_walls(n)[1]:
        if 2 * sums[m] >= total:
            if 2 * sums[m] == total:
                raise InvalidArgument("r lies on a wall; its space is singular")
            crossed[m.bit_count()] += 1
    # P^(n-3) plus P^(|J|-2) - P^(n-|J|-2) per crossing: the coefficient of
    # t^(2i) gains the crossings with |J| > i + 1, loses those with |J| < n - 1 - i
    return PoincarePoly(
        1 + sum(crossed[i + 2 :]) - sum(crossed[: n - 1 - i]) for i in range(n - 2)
    )


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
    n = _label(n, "n")
    if n < 5 or n % 2 == 0:
        raise InvalidArgument("need odd n >= 5")
    return _center_series(n)


def ih_poincare_center(n: int) -> PoincarePoly:
    """Intersection Poincare polynomial of the quotient at the ray, n even."""
    n = _label(n, "n")
    if n < 6 or n % 2 == 1:
        raise InvalidArgument("need even n >= 6")
    return _center_series(n)


# ---------------------------------------------------------------------------
# Betti numbers of the stable compactification
# ---------------------------------------------------------------------------


@functools.cache
def _e_open(k: int) -> tuple:
    """E-polynomial of M_{0,k}, the open stratum of every k-gon space:
    prod_{i=2}^{k-2} (t^2 - i) as a coefficient tuple, (1,) for k = 3."""
    poly = (1,)
    for i in range(2, k - 1):
        poly = _poly_mul(poly, (-i, 1))
    return poly


@functools.cache
def _bubble_sum(m: int) -> tuple:
    """B(m): the E-polynomials summed over the bubble trees rooted at a bubble
    over m labels, that is of M_{0,m+1}-bar (Keel's recursion in Manin's
    sum-over-trees form).

    A bubble over J closes with an edge sum_J r - eps_J, so a proper subset K
    of J is admissible inside it when the labels of J outside K, which weigh
    at least min_J r, outweigh eps_J / 2: always, for a legal slack (`augment`
    checks this on every bubble it builds).  So the m labels split into any
    k blocks, each loose or a child, with the closing edge k + 1 points."""
    out = []
    for k, p in enumerate(_block_sums(m, m - 1)):
        if p:
            _poly_add_into(out, _poly_mul(_e_open(k + 1), p))
    return tuple(out)


@functools.cache
def _block_sums(s: int, largest: int) -> tuple:
    """Index k: the sum over the partitions of an s-set into k blocks of at
    most `largest` labels of the product of the block weights, 1 for a loose
    label and B(b) for a child of b >= 2 labels.  The block of the least label
    has b labels in C(s-1, b-1) ways, and the rest is the same sum on s - b."""
    if not s:
        return ((1,),)
    out = [[] for _ in range(s + 1)]
    for b in range(1, min(s, largest) + 1):
        weight = _poly_mul(_bubble_sum(b), (comb(s - 1, b - 1),)) if b > 1 else (1,)
        for k, p in enumerate(_block_sums(s - b, s - b)):
            if p:
                _poly_add_into(out[k + 1], _poly_mul(p, weight))
    return tuple(map(tuple, out))


@functools.cache
def _packed_weights(n: int) -> tuple:
    """(width, weights): the digit width of the packed polynomials at n, and
    a tuple holding B(b) packed into one int at index b = 2..n-1.

    f's coefficient of y^k t^i sits at bit width * (n k + i).  It counts
    weighted partitions (B holds Betti numbers), at most the sum of all
    coefficients of _block_sums(n, n - 1), and a child of b labels adds
    b - 2 to the t-degree, so i < n and no digit carries."""
    width = sum(map(sum, _block_sums(n, n - 1))).bit_length()
    return width, (0, 0) + tuple(
        sum(c << width * i for i, c in enumerate(_bubble_sum(b))) for b in range(2, n)
    )


def _forest(R: int, children: dict, memo: dict, y: int) -> int:
    """f(R): the children's products summed over the ways to split the labels
    of R into loose labels and children, with y counting special points.

    The least label of R is loose or the least label of one child C in R:
    f(R) = y f(R - low R) + sum_C B(|C|) y f(R - C).  `children` maps a label
    bit to {B(b): masks} over the sizes b of the children whose least label
    it is, so each B(b) multiplies its summed f(R - C) once.  Polynomials are
    packed into ints (see :func:`stable_betti`), y being a shift by `y` bits;
    `memo` keeps f per mask."""
    got = memo.get(R)
    if got is None:
        low = R & -R
        got = _forest(R ^ low, children, memo, y)
        for weight, masks in children.get(low, {}).items():
            got += weight * sum(
                _forest(R ^ C, children, memo, y) for C in masks if C & R == C
            )
        got <<= y
        memo[R] = got
    return got


def stable_betti(r, eps: Optional[EpsilonAssignment] = None) -> PoincarePoly:
    """Betti numbers of the moduli space of stable polygons over r.

    Sums, over all bubble trees (laminar families of relevant subsets), the
    product of open-stratum E-polynomials of the tree components, M_{0,k} for
    a component with k special points.  Needs r interior and off every wall;
    the result must come out with nonnegative palindromic coefficients, and
    is independent of the chamber of r, which the test suite asserts.  The
    root's children are the short subsets of r, summed by :func:`_forest`; a
    bubble over m labels contributes B(m) whatever the slacks, so `eps` is
    only checked: explicit slacks must be legal for r (see
    :meth:`EpsilonAssignment.legal_for`), or :class:`RangeError` is raised.
    What depends on n alone is kept per n: the packed B(b) and their digit
    width, the candidate subsets and E(M_{0,k}).  Nothing is kept per r or
    per chamber, so every call sums its own trees.
    """
    r = as_length_vector(r)
    n = r.n
    if n < 4:
        raise InvalidArgument("need n >= 4")
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    sums = r.subset_sums()
    if _walls_on(sums, n):
        raise InvalidArgument(
            "r lies on a wall: the ordinary space is singular and this "
            "summation does not apply (the schedule still reports the "
            "resolution step)"
        )
    _require_legal(r, eps)
    width, weights = _packed_weights(n)
    total = sums[-1]
    children = {}
    for C, J in _bubble_candidates(n):
        if 2 * sums[C] < total:
            children.setdefault(C & -C, {}).setdefault(weights[len(J)], []).append(C)
    f = _forest(len(sums) - 1, children, {0: 1}, n * width)
    digit = (1 << width) - 1
    out = []
    for k in range(3, n + 1):  # two short subsets never cover all n labels
        acc = [f >> width * (n * k + i) & digit for i in range(n)]
        _poly_add_into(out, _poly_mul(_e_open(k), acc))
    poly = PoincarePoly(out)
    if any(c < 0 for c in poly.coeffs) or not poly.palindromic():
        raise InternalError(f"stratification sum came out malformed: {poly!r}")
    return poly
