"""Numerical realization of polygons with prescribed side lengths.

A polygon is stored as its unit edge directions u_1, ..., u_n on the sphere
together with the lengths; closing it means solving sum_i r_i u_i = 0, the
zero level of the momentum of the rotation action on the product of spheres.
:func:`close` builds a zero constructively, in the action-angle coordinates
of a fan triangulation (Kapovich-Millson bending flows): diagonal lengths
drawn inside their triangle-inequality intervals and a dihedral angle about
each diagonal.  It succeeds on every length vector strictly inside the polygon
cone, without iterating.  Hint directions are closed instead by the Mobius
boost described below, which keeps their moduli point.

The rotation gauge is fixed by :func:`canonicalize`, which reads the frame
in one orthonormal basis built from the first two independent directions.
The marked-point picture enters through stereographic projection: the
directions become points on the Riemann sphere, defined up to Mobius
transformations, and two frames represent the same point of the moduli space
exactly when their normalized marked-point tuples agree (:func:`moduli_point`,
:func:`pgl2_equivalent`).

:func:`transport` changes the length of the closing edge without moving the
underlying moduli point: the directions are moved by the conformal
automorphism of the unit ball that balances them for the new weights, the
Douady-Earle conformal barycenter, found by Newton steps on the boost vector
b with the Jacobian in closed form.  This realizes the canonical
identification between polygon spaces whose length vectors share a chamber,
and powers the incidence test :func:`incidence` that ties a bubble candidate
to the sub-polygon it should shadow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .chambers import (
    LengthVector,
    as_length_vector,
    rational,
    same_chamber,
    _check_subset,
)
from .errors import (
    ChamberMismatch,
    InvalidArgument,
    NoModuli,
    NonConvergence,
)

__all__ = [
    "Tolerances",
    "EdgeFrame",
    "ModuliPoint",
    "close",
    "close_degenerate",
    "canonicalize",
    "diagonal",
    "parallel_classes",
    "is_line_gon",
    "moduli_point",
    "pgl2_distance",
    "pgl2_equivalent",
    "subpolygon",
    "transport",
    "incidence",
]

FREE_EDGE = 0  # label of the closing edge of a sub-polygon or bubble


@dataclass(frozen=True)
class Tolerances:
    """Numeric slack for the geometric predicates; every one is overridable."""

    closure: float = 1e-10
    angle: float = 1e-8
    mobius: float = 1e-8

    def with_overrides(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT_TOL = Tolerances()


class EdgeFrame:
    """A polygon: exact lengths, float shadows, unit directions.

    `labels` names the edges; plain polygons carry (1, ..., n) and sub-polygon
    or bubble frames carry the original labels plus FREE_EDGE (= 0) for the
    closing edge.
    """

    __slots__ = ("lengths", "r", "u", "labels")

    def __init__(self, lengths, u, labels=None):
        self.lengths = as_length_vector(lengths)
        self.r = np.array([float(x) for x in self.lengths.r], dtype=float)
        u = np.asarray(u, dtype=float)
        if u.shape != (len(self.r), 3):
            raise InvalidArgument(f"direction array must be ({len(self.r)}, 3)")
        norms = np.linalg.norm(u, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise InvalidArgument("directions must be unit vectors (within 1e-12)")
        self.u = u
        if labels is None:
            labels = tuple(range(1, len(self.r) + 1))
        self.labels = tuple(labels)
        if len(self.labels) != len(self.r):
            raise InvalidArgument("one label per edge required")

    @property
    def n(self) -> int:
        return len(self.r)

    def closing_sum(self) -> np.ndarray:
        return self.r @ self.u

    @property
    def residual(self) -> float:
        return float(np.linalg.norm(self.closing_sum()))

    def is_closed(self, tol: float = DEFAULT_TOL.closure) -> bool:
        return self.residual <= tol

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidArgument(f"no edge labelled {label} in this frame") from None

    def rotated(self, R: np.ndarray) -> "EdgeFrame":
        return EdgeFrame(self.lengths, self.u @ R.T, self.labels)

    def copy(self) -> "EdgeFrame":
        return EdgeFrame(self.lengths, self.u.copy(), self.labels)

    def to_json(self):
        return {
            "r": [float(x) for x in self.r],
            "u": [[float(c) for c in row] for row in self.u],
            "residual": self.residual,
        }

    def __repr__(self):
        return f"EdgeFrame(n={self.n}, residual={self.residual:.2e})"


def _unit_rows(u: np.ndarray) -> np.ndarray:
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _lin(a: float, p: tuple, b: float, q: tuple, d: float = 1.0) -> tuple:
    """(a p + b q) / d for 3-tuples of floats, one operation at a time."""
    return (a * p[0] + b * q[0]) / d, (a * p[1] + b * q[1]) / d, (a * p[2] + b * q[2]) / d


def _fan_directions(rf: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Edge directions of a closed polygon, built in action-angle coordinates.

    The fan diagonals from the first vertex p_0 have lengths d_k = |p_k|, with
    d_1 = r_1 and d_{n-1} = r_n, and each triangle (d_{k-1}, r_k, d_k) obeys
    the triangle inequalities.  The interval [lo_k, hi_k] of d_k from which
    edges k+1..n can still close is propagated backward from d_{n-1}.  Going
    forward, each d_k is drawn uniformly from it, intersected with the window
    |d_{k-1} - r_k| .. d_{k-1} + r_k, and each triangle is turned about the
    diagonal it shares with the last one by a uniform dihedral angle.  The
    loop runs on 3-tuples of floats (:func:`_lin`), rounding as numpy would on
    3-vectors at a fraction of the cost; cosines and sines stay vectorised.
    """
    n = len(rf)
    r = rf.tolist()
    lo, hi = r[:], r[:]  # entry n-1 is d_{n-1} = r_n; entry 0 is unused
    for k in range(n - 2, 0, -1):
        lo[k] = max(lo[k + 1] - r[k], r[k] - hi[k + 1], 0.0)
        hi[k] = hi[k + 1] + r[k]
    t = rng.random(n).tolist()
    angles = 2.0 * np.pi * rng.random(n)
    # orthonormal frame: e along the current diagonal, w in the plane of the
    # last triangle, m normal to that plane; the first bend already turns
    # (w, m) by a uniform angle, so only the gauge of u_1 is fixed here
    e, w, m = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    u = [e]
    D = r[0]
    for k, ct, st in zip(range(1, n - 1), np.cos(angles).tolist(), np.sin(angles).tolist()):
        a = max(abs(D - r[k]), lo[k + 1])
        b = min(D + r[k], hi[k + 1])
        d = a + t[k] * (b - a)
        # bend the next triangle about the diagonal by its dihedral angle
        w, m = _lin(ct, w, st, m), _lin(ct, m, -st, w)
        # edge k+1 meets the diagonal at angle acos(c); forming the sine as
        # sqrt((1 - c)(1 + c)) keeps thin triangles accurate
        c = min(1.0, max(-1.0, ((d - D) * (d + D) - r[k] * r[k]) / (2.0 * D * r[k])))
        s = math.sqrt((1.0 - c) * (1.0 + c))
        u.append(_lin(c, e, s, w))
        # the next triangle starts from the diagonal actually reached, so
        # rounding does not carry over
        x, y = D + r[k] * c, r[k] * s
        D = math.hypot(x, y)
        e, w = _lin(x, e, y, w, D), _lin(x, w, -y, e, D)
    u.append((-e[0], -e[1], -e[2]))
    return np.array(u)


def close(r, seed=None, hints=None, tol: Optional[float] = None) -> EdgeFrame:
    """Close a polygon with the given side lengths.

    Without `hints` the polygon is built, without iterating, from
    fan-triangulation action-angle coordinates drawn from `seed`, so runs are
    deterministic per seed.  Hint directions that close within `tol`
    (default 1e-10) are returned as they are; others are moved by the Mobius
    boost that balances them for r, as in :func:`transport`, so the frame
    keeps the hint's moduli point.  A residual above `tol` raises
    NonConvergence.
    """
    r = as_length_vector(r)
    if not r.in_cone_interior():
        raise InvalidArgument(
            "no closed polygon: r is not interior to the polygon cone"
        )
    if tol is None:
        tol = DEFAULT_TOL.closure
    rf = np.array([float(x) for x in r.r], dtype=float)
    if hints is not None:
        h = np.asarray(hints, dtype=float)
        if h.shape != (r.n, 3):
            raise InvalidArgument("hints must provide one direction per edge")
        # scaling each row by its largest entry first keeps huge and tiny
        # finite rows from overflowing or underflowing in the norm
        top = np.max(np.abs(h), axis=1)
        if not np.all(np.isfinite(top) & (top > 0)):
            raise InvalidArgument("hint directions must be finite and nonzero")
        u = _unit_rows(h / top[:, None])
        if np.linalg.norm(rf @ u) > tol:
            u = _rebalance(u, rf, tol)
    else:
        u = _fan_directions(rf, _rng(seed))
    frame = EdgeFrame(r, u)
    res = frame.residual
    if not res <= tol:
        raise NonConvergence(
            f"closed frame residual {res:.3e} above tolerance {tol:.1e}",
            residual=res,
        )
    return frame


def close_degenerate(r, classes, seed=None, tol: Optional[float] = None) -> EdgeFrame:
    """Closed frame degenerate at exactly the given classes.

    Closes the collapsed polygon (each class merged into one edge of the
    summed length) generically, then expands every class back into parallel
    copies of its merged direction.  Closure is exact by construction.  When
    the collapsed vector sits on the cone boundary the configuration is the
    forced line polygon, whose complementary bundle shows up as one extra
    parallel class.
    """
    r = as_length_vector(r)
    classes = [tuple(sorted(set(c))) for c in classes]
    flat = [j for c in classes for j in c]
    if len(set(flat)) != len(flat):
        raise InvalidArgument("classes must be disjoint")
    if any(len(c) < 2 for c in classes):
        raise InvalidArgument("each class needs at least two edges")
    covered = set(flat)
    groups = classes + [(j,) for j in range(1, r.n + 1) if j not in covered]
    small = LengthVector([sum((r.r[j - 1] for j in c), Fraction(0)) for c in groups])
    if small.on_cone_boundary():
        total = small.perimeter()
        heavy = next(i for i, v in enumerate(small.r) if 2 * v == total)
        su = np.tile(np.array([-1.0, 0.0, 0.0]), (small.n, 1))
        su[heavy] = (1.0, 0.0, 0.0)
        frame = EdgeFrame(small, su)
    elif small.in_cone_interior():
        rng = _rng(seed)
        for _ in range(32):
            frame = close(small, seed=rng, tol=tol)
            # a generic collapsed frame must not introduce accidental parallels
            if all(len(c) == 1 for c in parallel_classes(frame)):
                break
        else:
            raise NonConvergence("could not draw a generic collapsed frame")
    else:
        raise InvalidArgument("collapsed vector leaves the polygon cone")
    u = np.zeros((r.n, 3))
    for i, c in enumerate(groups):
        u[[j - 1 for j in c]] = frame.u[i]
    return EdgeFrame(r, u)


def _cross(a: np.ndarray, b: np.ndarray) -> tuple:
    """a x b for two 3-vectors, as floats formed in np.cross's order."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _gauge(u: np.ndarray, tol: float) -> np.ndarray:
    """Directions u read in the basis of :func:`canonicalize`, rows re-unitized."""
    e1 = u[0] / np.linalg.norm(u[0])
    perp = u[1:] - np.outer(u[1:] @ e1, e1)
    norms = np.linalg.norm(perp, axis=1)
    far = np.flatnonzero(norms > tol)
    if far.size:
        e2 = perp[far[0]] / norms[far[0]]
    else:
        e2 = np.array(_cross(e1, np.eye(3)[np.argmin(np.abs(e1))]))
        e2 /= np.linalg.norm(e2)
    basis = np.array([e1, e2, _cross(e1, e2)])
    return _unit_rows(u @ basis.T)


def canonicalize(frame: EdgeFrame, tol: Optional[float] = None) -> EdgeFrame:
    """Fix the rotation gauge.

    Reads the directions in the orthonormal frame e_1 = u_1, e_2 = the unit
    component orthogonal to u_1 of the first later direction whose component
    exceeds `tol`, e_3 = e_1 x e_2.  So u_1 becomes (1,0,0) and that
    direction lands in the z = 0 plane with positive y.  For a line polygon
    (all directions on the u_1 axis) any e_2 orthogonal to u_1 is taken.  The
    two cross products are written out on floats (:func:`_cross`), bit for bit
    those of np.cross without its per-call axis handling.
    """
    if tol is None:
        tol = DEFAULT_TOL.angle
    return EdgeFrame(frame.lengths, _gauge(frame.u, tol), frame.labels)


def diagonal(frame: EdgeFrame, J) -> tuple:
    """The closing vector of the sub-polygon on edges J, and its length.

    Returns d_J = -sum_{j in J} r_j u_j; the summation order is immaterial.
    J refers to edge labels.
    """
    J = _check_subset(J, max(frame.labels))
    idx = [frame.index_of(j) for j in J]
    d = -np.sum(frame.r[idx, None] * frame.u[idx], axis=0)
    return d, float(np.linalg.norm(d))


def _pair_angles(u: np.ndarray) -> np.ndarray:
    """The n x n matrix of angles arctan2(|u_i x u_j|, u_i . u_j) between rows.

    The arctan2 form stays accurate for nearly parallel and nearly opposite
    rows.  One broadcast cross product serves every pair; it forms the
    products and differences of np.cross without that function's per-call
    axis handling, which costs more than the arithmetic for a few dozen rows.
    """
    a, b = u[:, [1, 2, 0]], u[:, [2, 0, 1]]
    cross = a[:, None] * b[None] - b[:, None] * a[None]
    return np.arctan2(np.linalg.norm(cross, axis=-1), u @ u.T)


def _find(parent: list, i: int) -> int:
    """Root of i in the union-find forest `parent`, halving the path."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _angle_groups(angles: np.ndarray, tol: float) -> list:
    """Row indices grouped where pairwise angles are at most tol.

    The relation is closed transitively with the union-find :func:`_find`,
    over the pairs i < j of np.nonzero in row-major order: the pairs, and
    their order, of the upper triangle, without building a triangular mask.
    """
    n = len(angles)
    parent = list(range(n))
    rows, cols = np.nonzero(angles <= tol)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i < j:
            parent[_find(parent, i)] = _find(parent, j)
    groups = {}
    for i in range(n):
        groups.setdefault(_find(parent, i), []).append(i)
    return list(groups.values())


def _on_one_axis(angles: np.ndarray, tol: float) -> bool:
    """Is every row within tol of the first row or of its opposite?"""
    a = angles[0]
    return bool(np.all(np.minimum(a, np.pi - a) <= tol))


def parallel_classes(frame: EdgeFrame, tol: Optional[float] = None):
    """Partition of the edge labels into parallel classes.

    Edges are grouped when their directions agree within `tol` radians;
    opposite directions are never grouped.  The relation is closed
    transitively, so near-chains collapse into one class.  Every pairwise
    angle is read from one angle matrix per call.

    Coupling with diagonal lengths: a class of edges spread over at most
    theta radians loses at most sum_J r_j * theta^2 / 8 of diagonal length,
    so angle tolerance t corresponds to a length slack of order t^2.
    """
    if tol is None:
        tol = DEFAULT_TOL.angle
    groups = _angle_groups(_pair_angles(frame.u), tol)
    return sorted(sorted(frame.labels[i] for i in g) for g in groups)


def is_line_gon(frame: EdgeFrame, tol: Optional[float] = None) -> bool:
    """Do all edges lie on one line (each parallel or opposite to the first)?"""
    if tol is None:
        tol = DEFAULT_TOL.angle
    return _on_one_axis(_pair_angles(frame.u), tol)


# ---------------------------------------------------------------------------
# marked points on the Riemann sphere
# ---------------------------------------------------------------------------


def _stereographic_pairs(u: np.ndarray) -> np.ndarray:
    """Homogeneous coordinates of the stereographic images (north pole -> inf).

    Uses whichever of the two equivalent charts (x+iy : 1-z) ~ (1+z : x-iy)
    is better conditioned per point, so the pole itself is exact.
    """
    x, y, z = u.T
    south = 1.0 - z >= 1.0 + z
    out = np.stack(
        [np.where(south, x + 1j * y, 1.0 + z), np.where(south, 1.0 - z, x - 1j * y)],
        axis=1,
    )
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def _chordal(p, q) -> float:
    num = abs(p[0] * q[1] - q[0] * p[1])
    return num / (np.linalg.norm(p) * np.linalg.norm(q))


def _mobius_to_standard(a, b, c) -> np.ndarray:
    """Matrix of the Mobius map sending homogeneous points a, b, c to 0, 1, inf."""
    det = lambda p, q: p[0] * q[1] - p[1] * q[0]
    k1 = det(b, c)
    k2 = det(b, a)
    return np.array([[a[1] * k1, -a[0] * k1], [c[1] * k2, -c[0] * k2]], dtype=complex)


class ModuliPoint:
    """Marked points on the sphere, normalized so three anchors sit at 0, 1, inf."""

    __slots__ = ("pairs", "anchors")

    def __init__(self, pairs: np.ndarray, anchors: tuple):
        self.pairs = pairs
        self.anchors = anchors

    @property
    def n(self) -> int:
        return len(self.pairs)

    def values(self):
        """Points as complex numbers, with the string "inf" for the pole."""
        out = []
        for a, b in self.pairs:
            if abs(b) <= 1e-14 * abs(a):
                out.append("inf")
            else:
                out.append(a / b)
        return out

    def to_json(self):
        vals = []
        for v in self.values():
            vals.append("inf" if isinstance(v, str) else [v.real, v.imag])
        return {"points": vals, "anchors": list(self.anchors)}


def moduli_point(frame: EdgeFrame, tol: Optional[float] = None) -> ModuliPoint:
    """The marked-point configuration of a closed frame, Mobius-normalized.

    The anchors are the first three directions, in edge order, that are
    pairwise more than `tol` radians apart, found by one greedy scan over one
    angle matrix.  Needs at least three such directions; line polygons have
    no marked-point moduli and are rejected.  Only the directions are read:
    :func:`_marks` does the work on the direction array, with no frame built.
    """
    return _marks(frame.u, DEFAULT_TOL.angle if tol is None else tol)


def _marks(u: np.ndarray, tol: float) -> ModuliPoint:
    """:func:`moduli_point` of the unit direction rows u."""
    u = _gauge(u, tol)
    apart = (_pair_angles(u) > tol).tolist()
    anchors = []
    for i, row in enumerate(apart):
        if all(row[j] for j in anchors):
            anchors.append(i)
            if len(anchors) == 3:
                break
    if len(anchors) < 3:
        raise NoModuli(
            "fewer than three distinct directions: no marked-point moduli"
        )
    pairs = _stereographic_pairs(u)
    M = _mobius_to_standard(*(pairs[i] for i in anchors))
    out = pairs @ M.T
    norms = np.linalg.norm(out, axis=1)
    return ModuliPoint(out / norms[:, None], tuple(anchors))


def pgl2_distance(a: ModuliPoint, b: ModuliPoint) -> float:
    """Largest chordal mismatch after re-anchoring b on a's anchor indices.

    Infinity when the configurations cannot be aligned at all (different
    sizes, or b collapses a's anchor triple).
    """
    if a.n != b.n:
        return float("inf")
    trip = [b.pairs[i] for i in a.anchors]
    if any(_chordal(p, q) < 1e-13 for p, q in itertools.combinations(trip, 2)):
        return float("inf")  # b collapses a's anchors, so configurations differ
    M = _mobius_to_standard(*trip)
    moved = b.pairs @ M.T
    moved /= np.linalg.norm(moved, axis=1)[:, None]
    return max(_chordal(p, q) for p, q in zip(a.pairs, moved))


def pgl2_equivalent(
    a: ModuliPoint, b: ModuliPoint, tol: Optional[float] = None
) -> bool:
    """Same ordered configuration up to a Mobius map, within chordal `tol`.

    b is re-anchored on a's anchor indices before comparing, so the two need
    not have picked the same normalization.  The margin behind the boolean is
    :func:`pgl2_distance`.
    """
    if tol is None:
        tol = DEFAULT_TOL.mobius
    return pgl2_distance(a, b) <= tol


def subpolygon(frame: EdgeFrame, J) -> EdgeFrame:
    """The sub-polygon on edges J closed by the diagonal.

    Edges keep their labels; the diagonal becomes the FREE_EDGE-labelled
    closing edge.  Its exact length is the binary64 value of |d_J|.
    """
    J = _check_subset(J, max(frame.labels))
    d, length = diagonal(frame, J)
    if length < 1e-14:
        raise InvalidArgument("diagonal vanishes; sub-polygon is degenerate")
    idx = [frame.index_of(j) for j in J]
    u = np.vstack([frame.u[idx], d / length])
    lengths = [frame.lengths.r[i] for i in idx] + [rational(float(length))]
    return EdgeFrame(lengths, u, labels=tuple(J) + (FREE_EDGE,))


# ---------------------------------------------------------------------------
# the canonical isomorphism between closing-length level sets
# ---------------------------------------------------------------------------


def _boost(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit rows x moved by the conformal automorphism of the ball taking 0 to b.

    On the sphere it acts as x -> ((1-|b|^2) x + 2(1+b.x) b) / (1+2b.x+|b|^2),
    a Mobius transformation for every |b| < 1, so cross ratios are kept.
    """
    bx = x @ b
    bb = b @ b
    return ((1.0 - bb) * x + 2.0 * (1.0 + bx)[:, None] * b) / (1.0 + 2.0 * bx + bb)[:, None]


def _balance_jacobian(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Derivative at b = 0 of b -> sum_i w_i _boost(x, b)_i.

    J = 2 (sum_i w_i I - sum_i w_i x_i x_i^T), positive definite unless every
    point lies on one axis.
    """
    return 2.0 * (np.sum(weights) * np.eye(3) - (weights[:, None] * x).T @ x)


def _rebalance(u: np.ndarray, weights: np.ndarray, tol: float) -> np.ndarray:
    """Directions moved by the Mobius boost that makes sum_i w_i u_i vanish.

    Newton's method on the Douady-Earle conformal barycenter: each step
    solves J b = -F at the current points, caps |b| at 1/2, halves b until
    the residual |F| drops, and moves the points by :func:`_boost`.  It stops
    at 1e-2 `tol` per unit of total weight, never above `tol`, the closure
    tolerance the caller checks next.  The balanced configuration exists and
    is unique up to rotation exactly when no coincident cluster carries half
    the total weight, which holds strictly inside a chamber.  Such a cluster
    (within the default angle tolerance) or points on one axis raise
    NonConvergence before the first step; a singular J or a step that finds
    no decrease raise it with the residual reached.  The angle matrix for
    that check is formed only when two unit rows have |u_i . u_j| > 0.99, as
    any two within the angle tolerance of each other or of each other's
    opposite do; without such a pair only one point can carry half the weight.
    """
    x = u
    F = weights @ x
    total = float(np.sum(weights))
    target = tol * min(1.0, 1e-2 * max(1.0, total))
    start = float(np.linalg.norm(F))
    if start > target:
        w = weights.tolist()
        near = np.abs(x @ x.T) > 0.99
        np.fill_diagonal(near, False)
        refuse = 2.0 * max(w) >= total
        if near.any() and not refuse:
            angles = _pair_angles(x)
            groups = _angle_groups(angles, DEFAULT_TOL.angle)
            heaviest = max(sum(w[i] for i in g) for g in groups)
            refuse = 2.0 * heaviest >= total or _on_one_axis(angles, DEFAULT_TOL.angle)
        if refuse:
            raise NonConvergence(
                "no conformal barycenter: a coincident cluster carries half the "
                f"weight or the points lie on one axis (residual {start:.3e})",
                residual=start,
            )
    for _ in range(100):
        base = float(np.linalg.norm(F))
        if base <= target:
            return x
        J = _balance_jacobian(x, weights)
        # det(J) / (2 sum w)^3 is the product of J's scaled eigenvalues, each
        # in [0, 1]; at rounding level J is singular to working precision.
        # Thin legal polygons sit far above it: (1, 1, 1, 3 - 1e-12) balances
        # with points about 1e-6 rad off one axis, a scaled det near 1e-12
        if np.linalg.det(J) <= np.finfo(float).eps * (2.0 * total) ** 3:
            break
        b = np.linalg.solve(J, -F)
        b *= min(1.0, 0.5 / float(np.linalg.norm(b)))
        t = 1.0
        for _ in range(40):
            moved = _unit_rows(_boost(x, t * b))
            Fm = weights @ moved
            if float(np.linalg.norm(Fm)) < base * (1.0 - 1e-4 * t):
                x, F = moved, Fm
                break
            t *= 0.5
        else:
            break
    raise NonConvergence(
        f"conformal rebalancing stalled at residual {np.linalg.norm(F):.3e}",
        residual=float(np.linalg.norm(F)),
    )


def transport(
    frame: EdgeFrame,
    new_last_length,
    J=None,
    tol: Optional[Tolerances] = None,
) -> EdgeFrame:
    """Replace the closing-edge length, keeping the moduli point.

    With J given, the sub-polygon on J (closed by its diagonal) is transported
    instead of the whole frame.  The source and target length vectors must
    share a chamber, checked exactly; the one legal excursion is the total
    collapse target (new length = sum of the others), which returns the line
    configuration.
    """
    if tol is None:
        tol = DEFAULT_TOL
    if J is not None:
        frame = subpolygon(frame, J)
    b = rational(new_last_length)
    lengths = frame.lengths
    body = lengths.r[:-1]
    body_sum = sum(body, Fraction(0))
    if b == body_sum:
        u = np.tile(np.array([1.0, 0.0, 0.0]), (frame.n, 1))
        u[-1] = (-1.0, 0.0, 0.0)
        return EdgeFrame(LengthVector(body + (b,)), u, frame.labels)
    if b <= 0 or b > body_sum:
        raise InvalidArgument(f"target closing length {b} is outside the cone")
    target = LengthVector(body + (b,))
    if not target.in_cone_interior():
        raise InvalidArgument("target vector leaves the interior of the cone")
    if not same_chamber(lengths, target):
        raise ChamberMismatch(
            "source and target closing lengths lie in different chambers; "
            "the canonical identification is only defined within one"
        )
    weights = np.array([float(x) for x in target.r])
    u = _rebalance(frame.u, weights, tol.closure)
    out = EdgeFrame(target, u, frame.labels)
    if out.residual > tol.closure:
        raise NonConvergence(
            f"transported frame residual {out.residual:.3e} above tolerance",
            residual=out.residual,
        )
    return out


@dataclass
class IncidenceReport:
    incident: bool
    collapse: bool
    diagonal_length: float
    window: tuple
    lower_margin: float
    upper_margin: float
    moduli_match: Optional[bool]


def incidence(
    P: EdgeFrame,
    Q: EdgeFrame,
    J,
    tol: Optional[Tolerances] = None,
    report: bool = False,
):
    """Is the bubble candidate Q incident to P along J?

    Requires |d_J(P)| inside the half-open window
    (sum_J r_j - 2 min_J r_j, sum_J r_j]; at the top end (total collapse of
    the J-edges) the window condition alone decides.  Otherwise Q, transported
    to the closing length |d_J(P)|, must match the sub-polygon of P on J as a
    moduli point.
    """
    if tol is None:
        tol = DEFAULT_TOL
    J = _check_subset(J, P.lengths.n)
    if not 2 <= len(J) <= P.lengths.n - 2:
        raise InvalidArgument(f"|J|={len(J)} cannot index a bubble")
    rJ = [P.lengths.r[j - 1] for j in J]
    if Q.n != len(J) + 1:
        raise InvalidArgument(
            f"bubble candidate has {Q.n} edges, expected {len(J) + 1}"
        )
    if not np.allclose(Q.r[:-1], [float(x) for x in rJ], rtol=0, atol=1e-9):
        raise InvalidArgument("bubble candidate does not inherit the J lengths")
    upper = float(sum(rJ))
    lower = upper - 2 * float(min(rJ))
    if not lower + 1e-12 < float(Q.r[-1]) < upper - 1e-12:
        raise InvalidArgument(
            "bubble candidate's closing length is outside the open window; "
            "it cannot come from any legal slack"
        )
    _, d = diagonal(P, J)
    lo_margin = d - lower
    up_margin = upper - d
    collapse = abs(up_margin) <= tol.closure * max(1.0, upper)
    inside = lo_margin > 0 and (d <= upper or collapse)
    match: Optional[bool] = None
    incident = False
    if inside and collapse:
        incident = True
    elif inside:
        QJ = subpolygon(P, J)
        try:
            moved = transport(Q, QJ.lengths.r[-1])
            match = pgl2_equivalent(
                moduli_point(QJ, tol.angle), moduli_point(moved, tol.angle), tol.mobius
            )
        except (NoModuli, NonConvergence, ChamberMismatch):
            match = False
        incident = bool(match)
    if report:
        return IncidenceReport(
            incident=incident,
            collapse=collapse,
            diagonal_length=d,
            window=(lower, upper),
            lower_margin=lo_margin,
            upper_margin=up_margin,
            moduli_match=match,
        )
    return incident
