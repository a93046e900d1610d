"""Exact wall-and-chamber arithmetic for side-length vectors of spatial polygons.

A closed n-gon in 3-space with side lengths r = (r_1, ..., r_n) exists exactly
when r lies in the cone defined by r_i <= sum_{j != i} r_j for all i.  Inside
that cone, the deformation space of polygons changes type only when r crosses
one of the interior walls

    sum_{j in J} r_j  =  sum_{j not in J} r_j,        2 <= |J| <= n - 2,

and a wall is the same for J and its complement.  Everything below is computed
exactly: wall membership is a knife-edge predicate, so floating point has no
business deciding it.

A :class:`LengthVector` clears denominators once: its lengths are the
integers ``ints`` over one common denominator ``den``.  Queries that range
over all subsets (:func:`signature`, :func:`line_gons`,
:func:`relevant_subsets`, :func:`classify`, :func:`same_chamber`) read a table
of all 2^n integer subset sums, indexed by bitmask (bit j-1 for label j),
which the vector builds on first use and keeps; the margin of J is then
(2 sums[J] - sum r) / den.  Queries that involve only pairs of edges
(:func:`is_favorable`, :func:`favorable_index`, :func:`nabla_index`) and
single margins (:func:`wall_margin`) are computed from ``ints`` directly and
never build the table: :func:`favorable_index` reads the two smallest lengths,
and :func:`nabla_index` is None for n >= 5 without a scan.

The module also carries the bookkeeping that feeds the bubble-tree machinery:
which subsets J may acquire a bubble (the "relevant" ones, where J is the
lighter side of its wall), the legal open range for the bubble slack epsilon_J,
and the augmented vector (r_J, sum_J r_j - epsilon_J) that prescribes the
bubble's side lengths.  The augmented vector always lands in the chamber where
its last edge dominates, so the new edge can never degenerate with others.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping
from fractions import Fraction
from math import ceil, gcd, inf, lcm
from typing import Iterable, Optional

from .errors import InternalError, InvalidArgument, RangeError

__all__ = [
    "MAX_N",
    "FLOAT_RANGE",
    "rational",
    "LengthVector",
    "WallIndex",
    "ChamberSignature",
    "EpsilonAssignment",
    "wall_margin",
    "all_walls",
    "signature",
    "same_chamber",
    "central_base",
    "is_favorable",
    "favorable_index",
    "nabla_index",
    "line_gons",
    "ClassifyReport",
    "classify",
    "relevant_subsets",
    "epsilon_range",
    "canonical_epsilon",
    "augment",
]

# the largest n whose 2^n subset sums, canonical walls or bubble candidates
# are tabulated; above it those layers raise RangeError before allocating
MAX_N = 20

# LengthVector.floats() refuses a float outside this range; inside it,
# squares, products of three and (2 sum r)^3 stay finite and normal
FLOAT_RANGE = (2.0**-300, 2.0**300)


def _require_tabulable(n: int) -> None:
    if n > MAX_N:
        raise RangeError(f"n={n} is above {MAX_N}, the largest n whose 2^n subsets are tabulated")


def rational(x) -> Fraction:
    """Coerce x to an exact Fraction.

    Strings are parsed exactly ("3.5" means 7/2); floats are taken at their
    exact binary64 value.  Bools, infinities, NaNs and strings that name no
    finite rational raise InvalidArgument.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise InvalidArgument(f"cannot interpret {x!r} as an exact rational")


def _fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for ints num and den > 0, in lowest terms.

    Reduces by the gcd and fills the two slots of the stdlib Fraction,
    ``_numerator`` and ``_denominator``, as ``Fraction.__new__`` does for two
    ints, so value, type, hash and pickle are those of Fraction(num, den).
    Neither the types nor the sign of den are checked.
    """
    g = gcd(num, den)
    x = object.__new__(Fraction)
    x._numerator = num // g
    x._denominator = den // g
    return x


class LengthVector:
    """Side lengths of an n-gon, kept as exact rationals.

    All entries must be positive; whether the vector lies in the interior of
    the polygon cone is reported by :meth:`in_cone_interior`, not enforced.
    The same lengths are also kept as the integers `ints` over the common
    denominator `den`, so r_i = ints[i-1] / den, and as floats by
    :meth:`floats`.
    """

    __slots__ = ("r", "ints", "den", "_sums", "_floats")

    def __init__(self, lengths: Iterable):
        try:
            r = tuple(rational(x) for x in lengths)
        except TypeError:
            raise InvalidArgument(f"{lengths!r} is not a collection of lengths") from None
        if len(r) < 2:
            raise InvalidArgument("a length vector needs at least 2 entries")
        if min(x.numerator for x in r) <= 0:
            raise InvalidArgument("all side lengths must be positive")
        self.r = r
        self.den = lcm(*(x.denominator for x in r))
        self.ints = tuple(x.numerator * (self.den // x.denominator) for x in r)
        self._sums = None
        self._floats = None

    @property
    def n(self) -> int:
        return len(self.r)

    def subset_sums(self) -> list:
        """All 2^n subset sums of `ints`, indexed by bitmask (bit j-1 for label j).

        Built on first use by one doubling pass and kept on the vector; the
        last entry is the perimeter times `den`.  n above :data:`MAX_N`
        raises RangeError.
        """
        if self._sums is None:
            _require_tabulable(self.n)
            sums = [0]
            for v in self.ints:
                sums += [s + v for s in sums]
            self._sums = sums
        return self._sums

    def floats(self) -> tuple:
        """The lengths as floats, built on first use and kept.

        Each is ints[i] / den; int true division rounds correctly, so it is
        float(r_i) bit for bit.  A float outside :data:`FLOAT_RANGE` raises
        RangeError.
        """
        if self._floats is None:
            den = self.den
            try:
                floats = [i / den for i in self.ints]
            except OverflowError:
                floats = [inf]
            ends = sorted(floats)  # cheaper than min and max at these sizes
            if ends[0] < FLOAT_RANGE[0] or ends[-1] > FLOAT_RANGE[1]:
                raise RangeError("every length must lie in [2^-300, 2^300] as a float")
            self._floats = tuple(floats)
        return self._floats

    def perimeter(self) -> Fraction:
        return _fraction(sum(self.ints), self.den)

    def in_cone_interior(self) -> bool:
        return 2 * max(self.ints) < sum(self.ints)

    def on_cone_boundary(self) -> bool:
        return 2 * max(self.ints) == sum(self.ints)

    def scaled(self, factor) -> "LengthVector":
        f = rational(factor)
        if f <= 0:
            raise InvalidArgument("scale factor must be positive")
        return LengthVector(x * f for x in self.r)

    def __len__(self):
        return len(self.r)

    def __getitem__(self, i):
        return self.r[i]

    def __iter__(self):
        return iter(self.r)

    def __eq__(self, other):
        return isinstance(other, LengthVector) and self.r == other.r

    def __hash__(self):
        return hash(self.r)

    def __repr__(self):
        return "LengthVector((%s))" % ", ".join(str(x) for x in self.r)


def as_length_vector(r) -> LengthVector:
    return r if isinstance(r, LengthVector) else LengthVector(r)


def _label(j, name: str = "label") -> int:
    """A label or another index as a plain int; bools, floats, strings refused."""
    if not isinstance(j, bool):
        try:
            return operator.index(j)
        except TypeError:
            pass
    raise InvalidArgument(f"{name} {j!r} is not an integer")


def _seed(seed, name: str = "seed") -> int:
    """A seed as an int >= 0; bools and other non-integers are refused."""
    value = _label(seed, name)
    if value < 0:
        raise InvalidArgument(f"{name} {seed!r} is negative")
    return value


def _check_subset(J, n, name: str = "J") -> tuple:
    """Validate J as a proper nonempty subset of {1..n}; return it sorted.

    Refusals call the subset `name`.
    """
    try:
        J = tuple(sorted(set(map(_label, J))))
    except TypeError:
        raise InvalidArgument(f"{name}={J!r} is not a collection of labels") from None
    if not J:
        raise InvalidArgument(f"{name} must be nonempty")
    if J[0] < 1 or J[-1] > n:
        raise InvalidArgument(f"{name}={J} is not a subset of {{1..{n}}}")
    if len(J) >= n:
        raise InvalidArgument(f"{name} must be a proper subset")
    return J


def _json(x):
    """The JSON value of x: the one encoding rule of every record.

    None, bools, ints, floats and strings are kept; tuples and lists become
    lists, a Fraction its exact string; anything else writes its own
    ``to_json()``.
    """
    if x is None or isinstance(x, (int, float, str)):
        return x
    if isinstance(x, (tuple, list)):
        return [_json(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x.to_json()


class _Record:
    """Fields named by `__slots__`, set in that order by `_fill`; equal only
    to a record of the same class with equal fields, and written to JSON
    field by field through :func:`_json`."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def to_json(self):
        return {name: _json(getattr(self, name)) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = operator.attrgetter(*self.__slots__)
        return fields(self) == fields(other)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"


class _FrozenRecord(_Record):
    """A read-only record of 2+ fields, hashed as their tuple, copied through __init__."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}: read-only")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(operator.attrgetter(*self.__slots__)(self))

    def __reduce__(self):
        return type(self), operator.attrgetter(*self.__slots__)(self)


class WallIndex(_FrozenRecord):
    """Canonical name for an interior wall: the side of {J, J^c} avoiding n.

    Only 2 <= |J| <= n-2 define interior walls; singleton sides are facets of
    the cone and are excluded.  Read-only and hashable.
    """

    __slots__ = ("J", "n")

    def __init__(self, J, n: int):
        J = _check_subset(J, n)
        if n in J:
            J = tuple(i for i in range(1, n + 1) if i not in J)
        if not (2 <= len(J) <= n - 2):
            raise InvalidArgument(
                f"|J|={len(J)} does not name an interior wall for n={n}"
            )
        self._fill(J, n)

    def __repr__(self):
        return f"W{list(self.J)}"


def wall_margin(r, J) -> Fraction:
    """sum_{j in J} r_j - sum_{j not in J} r_j, exactly.

    Antisymmetric under complement; zero iff r sits on the wall named by J.
    """
    r = as_length_vector(r)
    J = _check_subset(J, r.n)
    return _fraction(2 * sum(r.ints[j - 1] for j in J) - sum(r.ints), r.den)


def all_walls(n: int):
    """All interior walls of the n-gon cone, canonically indexed; n <= MAX_N."""
    n = _label(n, "n")
    if n < 3:
        raise InvalidArgument("need n >= 3")
    _require_tabulable(n)
    # each J is sorted, avoids n and has 2..n-2 labels: fill the slots directly
    new, put = WallIndex.__new__, object.__setattr__
    out = []
    for k in range(2, n - 1):
        for J in itertools.combinations(range(1, n), k):
            w = new(WallIndex)
            put(w, "J", J)
            put(w, "n", n)
            out.append(w)
    return out


@functools.cache
def _canonical_walls(n: int) -> tuple:
    """(walls, masks): :func:`all_walls` of n and the bitmask of each wall's J."""
    walls = tuple(all_walls(n))
    bits = [1 << j for j in range(n - 1)]  # the same combinations, as bits
    each = (itertools.combinations(bits, k) for k in range(2, n - 1))
    return walls, tuple(map(sum, itertools.chain.from_iterable(each)))


@functools.cache
def _bubble_candidates(n: int, lo: int = 2) -> tuple:
    """(mask, J) for every J with lo <= |J| <= n-2 over all n labels, sorted by J."""
    if lo > 2:  # share the pairs of the full table
        return tuple(c for c in _bubble_candidates(n) if len(c[1]) >= lo)
    _require_tabulable(n)
    out = []  # every nonempty J within {a..n}, sorted, for a = n down to 1
    for a in range(n, 0, -1):
        bit = 1 << (a - 1)
        out = [(bit, (a,))] + [(bit | m, (a,) + J) for m, J in out] + out
    return tuple(c for c in out if 2 <= len(c[1]) <= n - 2)


def _light(r: LengthVector, min_size) -> list:
    """(mask, J) for every J of :func:`relevant_subsets`, selected in one pass."""
    sums = r.subset_sums()
    half = sums[-1] // 2  # 2 sums[m] <= total is sums[m] <= total // 2 on integers
    lo = ceil(min(max(2, min_size), r.n - 1))
    # the full table is cached under the call without lo, as cohomology makes it
    cands = _bubble_candidates(r.n, lo) if lo > 2 else _bubble_candidates(r.n)
    return [c for c in cands if sums[c[0]] <= half]


class ChamberSignature:
    """Sign of the wall margin at each canonical interior wall.

    Two off-wall vectors lie in the same (maximal) chamber iff their
    signatures agree; agreeing zeros identify a common lower-dimensional
    chamber on the walls themselves.  The signs are stored as the tuple
    `vector`, one entry per wall of :func:`all_walls` in that order;
    `signs` presents them as a mapping from :class:`WallIndex` to sign.
    """

    __slots__ = ("n", "vector")

    def __init__(self, n: int, vector: tuple):
        self.n = n
        self.vector = tuple(vector)

    @classmethod
    def of(cls, r) -> "ChamberSignature":
        r = as_length_vector(r)
        _, masks = _canonical_walls(r.n)
        sums = r.subset_sums()
        # the sign of 2 s - total on integers: s above floor(total / 2) or
        # below ceil(total / 2)
        lo, hi = sums[-1] // 2, -(-sums[-1] // 2)
        return cls(r.n, [(s > lo) - (s < hi) for s in map(sums.__getitem__, masks)])

    @property
    def signs(self) -> dict:
        return dict(zip(_canonical_walls(self.n)[0], self.vector))

    def zeros(self):
        walls, _ = _canonical_walls(self.n)
        return sorted(w.J for w, s in zip(walls, self.vector) if s == 0)

    def __eq__(self, other):
        return (
            isinstance(other, ChamberSignature)
            and self.n == other.n
            and self.vector == other.vector
        )

    def __hash__(self):
        return hash((self.n, self.vector))

    def to_json(self):
        walls, _ = _canonical_walls(self.n)
        return [{"J": list(w.J), "sign": s} for w, s in zip(walls, self.vector)]


def signature(r) -> ChamberSignature:
    return ChamberSignature.of(r)


def same_chamber(r1, r2) -> bool:
    return signature(r1) == signature(r2)


def central_base(n: int) -> LengthVector:
    """Deterministic representative of the chamber around the all-ones ray.

    For odd n the ray itself is off every wall.  For even n it sits on all
    half-size walls, so we perturb by distinct powers of two: every subset sum
    of the perturbation weights is distinct, which guarantees the perturbed
    point is off every wall (coordinate-linear perturbations such as (1,2,...,n)
    fail already at n=8, where {1,2,7,8} and {3,4,5,6} have equal weight).
    """
    n = _label(n, "n")
    if n < 3:
        raise InvalidArgument("need n >= 3")
    return LengthVector(_central_lengths(n))


@functools.cache
def _central_lengths(n: int) -> tuple:
    """The lengths of :func:`central_base`, kept per n."""
    if n % 2 == 1:
        return (Fraction(1),) * n
    delta = Fraction(1, n**3 * 2**n)
    return tuple(1 + delta * 2 ** (i - 1) for i in range(1, n + 1))


@functools.cache
def _central_signature(n: int) -> "ChamberSignature":
    return signature(central_base(n))


def is_favorable(r, i: int) -> bool:
    """Does edge i dominate, i.e. r_i + r_j > sum of the rest for every j?

    Equivalent to the normalized condition r̄_i + r̄_j > 1 for all j != i.
    """
    r = as_length_vector(r)
    if not 1 <= i <= r.n:
        raise InvalidArgument(f"index {i} out of range")
    ints = r.ints
    return 2 * (ints[i - 1] + min(ints[: i - 1] + ints[i:])) > sum(ints)


def favorable_index(r) -> Optional[int]:
    """The unique dominating edge index, or None.

    For n >= 4 at most one index can dominate (a dominating edge is strictly
    the longest).  For n = 3 every index passes the defining inequalities on
    interior input, so no single index is reported.  Edge i passes exactly
    when 2 (r_i + min_{j != i} r_j) exceeds the perimeter.
    """
    r = as_length_vector(r)
    ints = r.ints
    total = sum(ints)
    first = min(ints)
    k = ints.index(first)
    second = min(ints[:k] + ints[k + 1 :])  # min_{j != i} r_j is this for i = k + 1
    hits = [
        i for i, v in enumerate(ints, 1) if 2 * (v + (second if i == k + 1 else first)) > total
    ]
    return hits[0] if len(hits) == 1 else None


def nabla_index(r) -> Optional[int]:
    """The unique i with r̄_j + r̄_k > 1 for all j, k != i, or None.

    Summing the pair inequalities shows the condition is unsatisfiable for
    n >= 5, so there the answer is None without a scan; it carves out a
    genuine chamber only for n = 4, where the polygon space is a product of
    projective lines (trivially so, being a single one).
    """
    r = as_length_vector(r)
    if r.n >= 5:
        return None
    ints = r.ints
    total = sum(ints)
    hits = []
    for i in range(r.n):
        others = ints[:i] + ints[i + 1 :]
        if all(2 * (a + b) > total for a, b in itertools.combinations(others, 2)):
            hits.append(i + 1)
    return hits[0] if len(hits) == 1 else None


def line_gons(r):
    """Canonical walls on which r sits exactly.

    Each names a polygon lying on a straight line (edges J one way, the rest
    the other way); for n >= 5 these are the isolated singular points of the
    polygon space.
    """
    r = as_length_vector(r)
    return _walls_on(r.subset_sums(), r.n)


def _walls_on(sums: list, n: int) -> list:
    """Canonical J of the walls through the n-vector with subset-sum table `sums`."""
    walls, masks = _canonical_walls(n)
    return [w.J for w, m in zip(walls, masks) if 2 * sums[m] == sums[-1]]


class ClassifyReport(_Record):
    """The exact chamber report of :func:`classify`."""

    __slots__ = (
        "in_cone_interior", "signature", "walls_on", "line_gons", "smooth",
        "favorable_index", "nabla_index", "central",
    )

    def __init__(
        self, in_cone_interior: bool, signature: ChamberSignature, walls_on: list,
        line_gons: list, smooth: bool, favorable_index: Optional[int],
        nabla_index: Optional[int], central: bool,
    ):
        self._fill(
            in_cone_interior, signature, walls_on, line_gons, smooth, favorable_index,
            nabla_index, central,
        )


def classify(r, base: Optional[LengthVector] = None) -> ClassifyReport:
    """Full exact chamber report for a positive length vector.

    `base` overrides the reference point used for the centrality test (needed
    to pin down one chamber among those meeting the all-ones ray when n is
    even); by default :func:`central_base` is used.
    """
    r = as_length_vector(r)
    sig = signature(r)
    on = sig.zeros()
    base_sig = _central_signature(r.n) if base is None else signature(base)
    central = sig == base_sig
    return ClassifyReport(
        in_cone_interior=r.in_cone_interior(),
        signature=sig,
        walls_on=on,
        line_gons=list(on),
        smooth=not on,
        favorable_index=favorable_index(r),
        nabla_index=nabla_index(r),
        central=central,
    )


def relevant_subsets(r, min_size: int = 2, with_margins: bool = False):
    """All J with min_size <= |J| <= n-2 that are the light side of their wall.

    "Light" is non-strict: sum_J r_j <= sum_{J^c} r_j.  Equality cases are the
    line-gon walls; request margins to see them flagged.  Only these subsets
    can index a bubble.  Sorted lexicographically.  With margins, each entry
    is (J, wall_margin(r, J)), the margin a Fraction in lowest terms.
    """
    r = as_length_vector(r)
    if not r.in_cone_interior():
        raise InvalidArgument("r must lie in the interior of the polygon cone")
    light = _light(r, min_size)
    if with_margins:
        sums = r.subset_sums()
        total, den = sums[-1], r.den
        return [(J, _fraction(2 * sums[m] - total, den)) for m, J in light]
    return [J for _, J in light]


def epsilon_range(r, J) -> tuple:
    """Legal open range (0, 2 min_{j in J} r_j) for the bubble slack at J."""
    r = as_length_vector(r)
    return _epsilon_range(r, _check_subset(J, r.n))


def _epsilon_range(r: LengthVector, J: tuple) -> tuple:
    """:func:`epsilon_range` of a built vector at a checked, sorted J."""
    if not (2 <= len(J) <= r.n - 2):
        raise InvalidArgument(f"|J|={len(J)} cannot index a bubble")
    ints = r.ints
    if 2 * sum(ints[j - 1] for j in J) > sum(ints):
        raise InvalidArgument(f"J={list(J)} is not relevant for this r")
    return (Fraction(0), _fraction(2 * min(ints[j - 1] for j in J), r.den))


def canonical_epsilon(r) -> Fraction:
    """The canonical slack min_i r_i, legal for every relevant subset."""
    r = as_length_vector(r)
    return _fraction(min(r.ints), r.den)


def augment(r, J, eps_J) -> LengthVector:
    """The bubble's length vector (r_J, sum_J r_j - eps_J).

    Requires J relevant and eps_J strictly inside its legal range; the result
    is always in the chamber dominated by its last edge, so the new edge can
    never degenerate together with others.
    """
    r = as_length_vector(r)
    eps = rational(eps_J)
    J = _check_subset(J, r.n)
    lo, hi = _epsilon_range(r, J)
    if not lo < eps < hi:
        raise RangeError(
            f"eps_J={eps} violates the legal range 0 < eps_J < {hi} "
            f"(= 2 min over J of r_j) for J={list(J)}"
        )
    tail = _fraction(sum(r.ints[j - 1] for j in J), r.den) - eps
    out = LengthVector([r.r[j - 1] for j in J] + [tail])
    if not is_favorable(out, out.n):
        raise InternalError("augmented vector left the dominated chamber")
    return out


class EpsilonAssignment:
    """A choice of slack eps_J for each relevant subset J.

    Explicit entries live in `eps`, built from a mapping of subsets to slacks
    (anything else raises InvalidArgument); `default` (if set) answers for
    any other subset, which is how the canonical choice eps_J = min_i r_i is
    carried without materializing all 2^(n-1) subsets.
    """

    def __init__(self, eps=None, default=None):
        self.eps = {}
        if eps is not None and not isinstance(eps, Mapping):
            raise InvalidArgument(f"eps={eps!r} is not a mapping from subsets to slacks")
        for J, v in (eps or {}).items():
            try:
                self.eps[frozenset(map(_label, J))] = rational(v)
            except TypeError:
                raise InvalidArgument(f"J={J!r} is not a collection of labels") from None
        self.default = None if default is None else rational(default)

    @classmethod
    def canonical(cls, r) -> "EpsilonAssignment":
        return cls(default=canonical_epsilon(r))

    def get(self, J) -> Fraction:
        try:
            key = frozenset(map(_label, J))
        except TypeError:
            raise InvalidArgument(f"J={J!r} is not a collection of labels") from None
        if key in self.eps:
            return self.eps[key]
        if self.default is not None:
            return self.default
        raise InvalidArgument(f"no epsilon assigned for J={sorted(key)}")

    def legal_for(self, r) -> bool:
        """Are all explicit entries (and the default) inside their ranges?

        An explicit entry whose key is empty or names a label outside 1..n
        is illegal.  The default answers for every relevant subset.  For
        n >= 4 the two shortest edges always form one, so the default is
        legal exactly when 0 < default < 2 min_i r_i.
        """
        r = as_length_vector(r)
        for key, v in self.eps.items():
            if not key or min(key) < 1 or max(key) > r.n:
                return False
            bound = 2 * min(r.r[j - 1] for j in key)
            if not 0 < v < bound:
                return False
        if self.default is not None:
            if not 0 < self.default:
                return False
            if r.n >= 4 and not self.default < 2 * min(r.r):
                return False
        return True

    def to_json(self):
        body = {
            ",".join(str(j) for j in sorted(k)): str(v) for k, v in self.eps.items()
        }
        return {"eps": body, "default": None if self.default is None else str(self.default)}


def _slacks(eps) -> EpsilonAssignment:
    """An EpsilonAssignment argument as it is; anything else is refused."""
    if not isinstance(eps, EpsilonAssignment):
        raise InvalidArgument(f"eps={eps!r} is not an EpsilonAssignment")
    return eps
