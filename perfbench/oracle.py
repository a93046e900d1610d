"""Reference results computed without the library under test.

Nothing here imports ``stablegons``.  Everything is exact integer or
rational arithmetic:

* :class:`SubsetTable` clears the denominators of a length vector once and
  tabulates every subset sum by bitmask.  Wall signs, the walls a vector sits
  on, the favorable and nabla indices, the light ("relevant") subsets with
  their margins, the blowup schedule and the same-chamber interval of the last
  edge are all read off that table.
* :func:`keel` is Keel's recursion for the Poincare polynomial of the moduli
  space of stable n-pointed genus-0 curves (Trans. AMS 330, 1992), which is
  what the stable Betti numbers must equal in every chamber.
* :func:`short_subset_poincare` is the Hausmann-Knutson formula for the
  Poincare polynomial of a generic polygon space (Ann. Inst. Fourier 48,
  1998).

Polynomials are tuples of integer coefficients in q = t^2, lowest first,
with trailing zeros stripped (the convention of ``PoincarePoly.coeffs``).

Run ``python3 perfbench/oracle.py`` to check the oracle against hand values.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from math import comb, lcm

__all__ = [
    "SubsetTable",
    "central_vector",
    "keel",
    "short_subset_poincare",
    "param_dim",
    "set_partitions",
    "self_check",
]


@functools.cache
def _subsets(n):
    """Label tuple (1-based, increasing) of every bitmask below 2^n."""
    return [tuple(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def _sign(x):
    return (x > 0) - (x < 0)


class SubsetTable:
    """All 2^n subset sums of a length vector, as integers over one denominator.

    The margin of J is sum_J r_j - sum_{J^c} r_j = 2 sum_J r_j - sum r_j.
    """

    def __init__(self, lengths):
        r = tuple(Fraction(x) for x in lengths)
        if len(r) < 3 or any(x <= 0 for x in r):
            raise ValueError("need at least three positive lengths")
        self.r = r
        self.n = len(r)
        self.denominator = lcm(*(x.denominator for x in r))
        self.w = tuple(int(x * self.denominator) for x in r)
        self.total = sum(self.w)
        sums = [0] * (1 << self.n)
        for mask in range(1, 1 << self.n):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + self.w[low.bit_length() - 1]
        self.sums = sums

    def in_cone_interior(self) -> bool:
        return all(2 * x < self.total for x in self.w)

    def _masks(self, lo, hi, avoid_last=False):
        """(mask, J) for every J with lo <= |J| <= hi, in bitmask order."""
        subsets = _subsets(self.n)
        top = 1 << (self.n - 1) if avoid_last else 1 << self.n
        for mask in range(1, top):
            J = subsets[mask]
            if lo <= len(J) <= hi:
                yield mask, J

    def signs(self) -> dict:
        """Sign of the margin at every interior wall, keyed by the side avoiding n."""
        return {
            J: _sign(2 * self.sums[mask] - self.total)
            for mask, J in self._masks(2, self.n - 2, avoid_last=True)
        }

    def zeros(self) -> list:
        """Interior walls the vector sits on, sorted."""
        return sorted(J for J, s in self.signs().items() if s == 0)

    def _pair_positive(self, i, j) -> bool:
        return 2 * (self.w[i - 1] + self.w[j - 1]) > self.total

    def favorable_index(self):
        """The unique i with r_i + r_j > the rest for every j, else None."""
        labels = range(1, self.n + 1)
        hits = [
            i for i in labels if all(self._pair_positive(i, j) for j in labels if j != i)
        ]
        return hits[0] if len(hits) == 1 else None

    def nabla_index(self):
        """The unique i with r_j + r_k > the rest for all j, k != i, else None."""
        hits = []
        for i in range(1, self.n + 1):
            others = [j for j in range(1, self.n + 1) if j != i]
            if all(
                self._pair_positive(j, k)
                for a, j in enumerate(others)
                for k in others[a + 1 :]
            ):
                hits.append(i)
        return hits[0] if len(hits) == 1 else None

    def light_subsets(self, min_size=2) -> list:
        """(J, margin) for min_size <= |J| <= n-2 with margin <= 0, sorted by J."""
        out = [
            (J, Fraction(2 * self.sums[mask] - self.total, self.denominator))
            for mask, J in self._masks(max(2, min_size), self.n - 2)
            if 2 * self.sums[mask] <= self.total
        ]
        out.sort()
        return out

    def schedule(self) -> list:
        """(kind, center, codim, nontrivial) in the order of the blowup schedule."""
        steps = [("resolution", J, self.n - 3, True) for J in self.zeros()]
        centers = [J for J, m in self.light_subsets(2) if m < 0]
        centers.sort(key=lambda J: (-len(J), J))
        steps += [("blowup", J, len(J) - 1, len(J) >= 3) for J in centers]
        return steps

    def last_edge_interval(self) -> tuple:
        """Open interval of changes d to r_n that keep every wall sign and the cone.

        Moving r_n by d moves the margin of every J avoiding n by -d, so signs
        hold while d stays strictly between the largest negative margin and
        the smallest positive one (the empty set is replaced by r_n > 0).
        """
        margins = [2 * self.sums[mask] - self.total for mask in range(1, 1 << (self.n - 1))]
        if 0 in margins:
            raise ValueError("r sits on a wall: no open interval keeps every sign")
        lo = max([-self.w[-1]] + [m for m in margins if m < 0])
        hi = min(m for m in margins if m > 0)  # the full body J = {1..n-1} is positive
        return Fraction(lo, self.denominator), Fraction(hi, self.denominator)


def central_vector(n):
    """Representative of the central chamber, by the library's documented rule.

    Odd n: the all-ones vector.  Even n: 1 + 2^(i-1) / (n^3 2^n), whose
    subset sums are pairwise distinct, so it is off every wall.
    """
    if n % 2 == 1:
        return tuple(Fraction(1) for _ in range(n))
    delta = Fraction(1, n**3 * 2**n)
    return tuple(1 + delta * 2 ** (i - 1) for i in range(1, n + 1))


def param_dim(n):
    """2^(n-1) - (n^2 - n + 2)/2, the rank of H^2 of the compactification."""
    return 2 ** (n - 1) - (n * n - n + 2) // 2


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add(a, b):
    k = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(k)]


@functools.cache
def keel(n):
    """Poincare polynomial of the moduli space of stable n-pointed rational curves.

    P_3 = 1 and P_{m+1} = (1+q) P_m + (q/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1}.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n == 3:
        return (1,)
    m = n - 1
    acc = []
    for j in range(2, m - 1):
        acc = _add(acc, [comb(m, j) * c for c in _mul(keel(j + 1), keel(m - j + 1))])
    if any(c % 2 for c in acc):
        raise ArithmeticError("Keel's recursion produced an odd sum")
    return _strip(_add(_mul([1, 1], keel(m)), [0] + [c // 2 for c in acc]))


def short_subset_poincare(lengths):
    """Hausmann-Knutson: sum over short S containing a longest edge m of
    (q^(|S|-1) - q^(n-1-|S|)) / (1 - q).

    For off-wall r this is the Poincare polynomial of the polygon space.  A
    subset on a wall is not short; one of size n/2 would contribute zero, so
    for the all-ones vector with n even the sum is the closed-form
    intersection polynomial of the singular quotient.
    """
    table = SubsetTable(lengths)
    n = table.n
    m = max(range(n), key=lambda i: table.w[i])
    poly = [0] * (n - 2)
    for mask in range(1 << n):
        if not mask >> m & 1 or 2 * table.sums[mask] >= table.total:
            continue
        size = bin(mask).count("1")
        a, b = size - 1, n - 1 - size
        for i in range(min(a, b), max(a, b)):
            poly[i] += 1 if a < b else -1
    return _strip(poly)


def set_partitions(labels):
    """Every set partition of `labels`: sorted blocks, ordered by first element."""
    labels = list(labels)
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            grown = part[:i] + ((first,) + part[i],) + part[i + 1 :]
            yield tuple(sorted(grown))
        yield tuple(sorted(part + ((first,),)))


HAND_VALUES = {
    5: (1, 5, 1),
    6: (1, 16, 16, 1),
    7: (1, 42, 127, 42, 1),
    8: (1, 99, 715, 715, 99, 1),
    9: (1, 219, 3292, 7723, 3292, 219, 1),
}


def self_check():
    """Check the oracle against hand values; returns a list of failures."""
    bad = []
    for n, want in HAND_VALUES.items():
        if keel(n) != want:
            bad.append(f"keel({n}) = {keel(n)}, want {want}")
    for n in range(5, 11):
        if keel(n)[1] != param_dim(n):
            bad.append(f"b2 of keel({n}) = {keel(n)[1]}, want {param_dim(n)}")
    for n in range(4, 11):
        got = short_subset_poincare([1] * (n - 1) + [n - 2])
        if got != (1,) * (n - 2):
            bad.append(f"short subsets of (1,...,1,{n - 2}) = {got}, want P^{n - 3}")
    if short_subset_poincare([1] * 7) != (1, 7, 22, 7, 1):
        bad.append("short subsets of the equilateral heptagon")
    table = SubsetTable([1, 1, 1, 1, Fraction(7, 2)])
    if table.favorable_index() != 5 or table.zeros():
        bad.append("favorable index of (1,1,1,1,7/2)")
    for n in range(5, 11):
        if SubsetTable(central_vector(n)).zeros():
            bad.append(f"central vector for n={n} sits on a wall")
    return bad


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print("FAIL", line)
    print("oracle self-check:", "failed" if failures else "ok")
    sys.exit(1 if failures else 0)
