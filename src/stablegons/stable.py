"""Stable polygons: laminar bubble trees over a degenerate base polygon.

Whenever a set of edges of a polygon becomes parallel, the lost moduli are
restored by attaching a bubble: an independent polygon whose edges inherit
the parallel lengths and whose extra closing edge carries their sum minus a
small slack epsilon_J.  Iterating until every leaf is free of parallel edges
produces a stable polygon, stored here as a read-only tree of frames
indexed by a laminar family of label subsets, well-formed by construction.

The key operations:

* :func:`stabilize` grows the tree over a closed (possibly degenerate) frame,
  drawing the bubble moduli that the base does not determine from a filler
  (the fiber over a degenerate polygon is a product of bubble moduli, so this
  choice is genuinely free);
* :func:`validate` checks the geometric conditions with numeric margins;
* :func:`forget` projects back to the base frame;
* :func:`limit` extracts the bubble that a degenerating family converges to;
* :func:`to_stable_curve` reads off the combinatorial stable curve: one
  sphere per component, marked points from the collapsed direction
  configuration, nodes joining each parallel class to the closing edge of its
  bubble.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .chambers import (
    EpsilonAssignment,
    LengthVector,
    augment,
    rational,
    _check_subset,
    _json,
    _seed,
    _slacks,
)
from .errors import (
    InternalError,
    InvalidArgument,
    NoLimit,
    NoModuli,
    StructureError,
)
from .realize import (
    FREE_EDGE,
    EdgeFrame,
    ModuliPoint,
    Tolerances,
    _find,
    _marks,
    _norm,
    _tolerances,
    close,
    diagonal,
    parallel_classes,
    subpolygon,
    transport,
)

__all__ = [
    "StableNode",
    "StablePolygon",
    "StabilityReport",
    "validate",
    "stabilize",
    "forget",
    "limit",
    "DualCurve",
    "to_stable_curve",
]


class _JsonFields:
    """A dataclass written to JSON field by field, through the rule of every record."""

    def to_json(self):
        return {f.name: _json(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class StableNode(_JsonFields):
    """One component: the subset it lives over, its frame, and its children.

    A root has no slack (eps None) and a frame labelled by its subset; a
    bubble over J has the slack eps_J and a frame over (r_J, sum_J r_j - eps_J)
    labelled J plus FREE_EDGE.  Children are bubbles over proper subsets, and
    siblings are disjoint, so the subsets of a tree form a laminar family.
    A subset is strictly increasing; a bubble's has 2+ labels, its slack is a positive Fraction.
    A node that breaks these rules raises StructureError naming its subset.
    """

    subset: tuple
    frame: EdgeFrame
    eps: Optional[Fraction]
    children: tuple = ()

    def __post_init__(self):
        name = list(self.subset)
        if any(a >= b for a, b in zip(self.subset, self.subset[1:])):
            raise StructureError(f"subset {name} is not strictly increasing")
        if self.eps is not None and len(self.subset) < 2:
            raise StructureError(f"bubble {name} has fewer than 2 labels")
        if self.eps is not None and not (isinstance(self.eps, Fraction) and self.eps > 0):
            raise StructureError(f"slack of bubble {name} is not a positive Fraction")
        want = self.subset if self.eps is None else self.subset + (FREE_EDGE,)
        if self.frame.labels != want:
            raise StructureError(f"frame of {name} must be labelled {list(want)}")
        whole, free = set(self.subset), set(self.subset)
        for child in self.children:
            kid = list(child.subset)
            if child.eps is None:
                raise StructureError(f"child {kid} of {name} has no slack")
            if not whole.issuperset(kid) or len(kid) == len(whole):
                raise StructureError(f"child {kid} escapes parent {name}")
            if not free.issuperset(kid):
                raise StructureError(f"child {kid} of {name} overlaps an earlier sibling")
            free.difference_update(kid)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class StablePolygon:
    """A labeled bubble tree; its root frame is labelled 1..n, so it has no slack."""

    root: StableNode

    def __post_init__(self):
        if self.root.frame.labels != tuple(range(1, self.root.frame.n + 1)):
            raise StructureError("root must carry the full label set and no slack")

    @property
    def root_r(self) -> LengthVector:
        return self.root.frame.lengths

    def nodes(self):
        return list(self.root.walk())

    def bubbles(self):
        return [nd for nd in self.root.walk() if nd is not self.root]

    def subsets(self):
        return [nd.subset for nd in self.bubbles()]

    def find(self, subset) -> Optional[StableNode]:
        want = tuple(sorted(subset))
        for nd in self.root.walk():
            if nd.subset == want:
                return nd
        return None

    def to_json(self):
        return self.root.to_json()

    def __repr__(self):
        return f"StablePolygon(n={self.root_r.n}, bubbles={len(self.bubbles())})"


@dataclass
class Check(_JsonFields):
    name: str
    node: tuple
    ok: bool
    detail: str = ""


@dataclass
class StabilityReport(_JsonFields):
    ok: bool
    checks: list

    def failures(self):
        return [c for c in self.checks if not c.ok]


def validate(
    sp: StablePolygon, tol: Optional[Tolerances] = None, strict: bool = False
) -> StabilityReport:
    """Check the geometric stable-polygon conditions, one verdict per check.

    The tree is well-formed by construction (see :class:`StableNode`), so
    only the geometry is checked: every component must close, each bubble's
    lengths must agree with the augmented vector of the root over its own
    slack, each component must degenerate at exactly its children's subsets,
    leaves must be generic, and no closing edge may be parallel to another
    edge.  With `strict` set, collapse of the descendant diagonals is
    verified across non-parent ancestor pairs too.
    """
    tol = _tolerances(tol)
    checks = []
    for nd in sp.root.walk():
        tag = nd.subset
        checks.append(
            Check(
                "closed",
                tag,
                nd.frame.is_closed(tol.closure),
                f"residual={nd.frame.residual:.2e}",
            )
        )
        try:
            if nd is sp.root:
                want = sp.root_r
            else:
                want = augment(sp.root_r, nd.subset, nd.eps)
            # exact first; the float comparison only when the rationals differ
            ok = nd.frame.lengths == want or np.allclose(
                nd.frame.r, want.floats(), rtol=0, atol=1e-9
            )
            detail = "" if ok else f"expected {list(want.floats())}, got {list(nd.frame.r)}"
        except InvalidArgument as exc:
            ok, detail = False, str(exc)
        checks.append(Check("lengths", tag, bool(ok), detail))

        classes = [tuple(c) for c in parallel_classes(nd.frame, tol.angle)]
        big = sorted(c for c in classes if len(c) >= 2)
        kids = sorted(c.subset for c in nd.children)
        checks.append(
            Check(
                "degenerations_match_children",
                tag,
                big == kids,
                f"classes={big}, children={kids}",
            )
        )
        if not nd.children:
            checks.append(
                Check("leaf_generic", tag, not big, f"classes={big}")
            )
        if nd is not sp.root:
            free = next(
                c for c in classes if FREE_EDGE in c
            )
            checks.append(
                Check(
                    "closing_edge_nondegenerate",
                    tag,
                    len(free) == 1,
                    f"class of closing edge: {list(free)}",
                )
            )
    if strict:
        # collapse-incidence across non-parent ancestor pairs: the diagonal
        # on a descendant's labels must saturate inside every strict ancestor,
        # whose frame carries all of them since the subsets are laminar
        for anc in sp.root.walk():
            for desc in anc.walk():
                J = desc.subset
                if desc is anc or desc in anc.children or len(J) < 2:
                    continue
                _, d = diagonal(anc.frame, J)
                total = sum(
                    float(anc.frame.r[anc.frame.index_of(j)]) for j in J
                )
                checks.append(
                    Check(
                        "ancestor_collapse",
                        tuple(desc.subset),
                        abs(d - total) <= 1e-7 * max(1.0, total),
                        f"|d|={d:.6f}, sum={total:.6f}",
                    )
                )
    return StabilityReport(ok=all(c.ok for c in checks), checks=checks)


def _child_seed(filler, J) -> np.random.Generator:
    seq = np.random.SeedSequence([int(filler)] + [int(j) for j in J])
    return np.random.default_rng(seq)


def _triangle_frame(lengths: LengthVector, labels) -> EdgeFrame:
    """The rigid triangle with the given exact side lengths, planar."""
    a, b, c = lengths.floats()
    cos_t = (c * c - a * a - b * b) / (2 * a * b)
    cos_t = min(1.0, max(-1.0, cos_t))
    sin_t = np.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    u1 = np.array([1.0, 0.0, 0.0])
    u2 = np.array([cos_t, sin_t, 0.0])
    tip = a * u1 + b * u2
    u3 = -tip / _norm(tip)
    return EdgeFrame(lengths, [u1, u2, u3], labels)


def stabilize(
    frame: EdgeFrame,
    eps: EpsilonAssignment,
    filler: Union[int, dict, None] = 0,
    tol: Optional[Tolerances] = None,
) -> StablePolygon:
    """Grow the bubble tree over a closed frame.

    Each parallel class of two or more edges gets a bubble over the augmented
    vector; the construction recurses until every leaf is generic (the index
    sets shrink strictly, and a closing edge can never degenerate, so this
    terminates).  Pair classes force a rigid triangle regardless of the
    filler; larger bubbles draw their free moduli from `filler`, either a
    master seed >= 0 or a mapping subset -> EdgeFrame for explicit bubbles.
    """
    tol = _tolerances(tol)
    eps = _slacks(eps)
    root_r = frame.lengths
    if not root_r.in_cone_interior():
        raise InvalidArgument("base frame must have an interior length vector")

    explicit = {}
    seed = 0
    if isinstance(filler, dict):
        explicit = {frozenset(k): v for k, v in filler.items()}
    elif filler is not None:
        seed = _seed(filler, "filler")

    def grow(subset, node_frame, node_eps) -> StableNode:
        children = []
        for cls in parallel_classes(node_frame, tol.angle):
            if len(cls) < 2:
                continue
            if FREE_EDGE in cls:
                raise InvalidArgument(
                    f"closing edge of {list(subset)} degenerated; "
                    "the slack must be strictly inside its legal range"
                )
            J = tuple(cls)
            eps_J = eps.get(J)  # raises naming J when missing
            bubble_r = augment(root_r, J, eps_J)
            labels = J + (FREE_EDGE,)
            if frozenset(J) in explicit:
                bub = explicit[frozenset(J)]
                if tuple(bub.labels) != labels:
                    bub = EdgeFrame(bub.lengths, bub.u, labels)
            elif len(J) == 2:
                bub = _triangle_frame(bubble_r, labels)
            else:
                bub = close(bubble_r, seed=_child_seed(seed, J), tol=tol.closure)
                bub = EdgeFrame(bubble_r, bub.u, labels)
            children.append(grow(J, bub, eps_J))
        return StableNode(subset, node_frame, node_eps, tuple(children))

    return StablePolygon(grow(tuple(range(1, root_r.n + 1)), frame, None))


def forget(sp: StablePolygon) -> EdgeFrame:
    """Project to the base polygon by dropping every bubble."""
    return sp.root.frame


def limit(
    frames: Sequence[EdgeFrame],
    J,
    eps_J,
    tol: Optional[Tolerances] = None,
) -> EdgeFrame:
    """Bubble extracted from a family degenerating at the edges J.

    The diagonal length |d_J| must enter the open part of the incidence
    window and climb toward its top (total collapse).  The last frame
    strictly inside the window is cut along the diagonal and its sub-polygon
    transported to the bubble's closing length sum_J r_j - eps_J.
    """
    tol = _tolerances(tol)
    if not frames:
        raise NoLimit("empty family")
    r = frames[0].lengths
    if any(f.lengths != r for f in frames[1:]):
        raise InvalidArgument("family must share one length vector")
    J = _check_subset(J, r.n)
    if not 2 <= len(J) <= r.n - 2:
        raise InvalidArgument(f"|J|={len(J)} cannot index a bubble")
    rJ = [r.r[j - 1] for j in J]
    upper = float(sum(rJ))
    lower = upper - 2 * float(min(rJ))
    slack = tol.closure * max(1.0, upper)
    ds = []
    for f in frames:
        _, d = diagonal(f, J)
        ds.append(d)
    inside = [i for i, d in enumerate(ds) if lower + slack < d < upper - slack]
    if not inside:
        raise NoLimit("family never enters the incidence window")
    first, last = inside[0], inside[-1]
    mono_tol = 1e-7 * max(1.0, upper)
    window_run = [ds[i] for i in inside if i <= last]
    if any(b < a - mono_tol for a, b in zip(window_run, window_run[1:])):
        raise NoLimit("diagonal length is not increasing through the window")
    if ds[-1] < ds[last] - mono_tol:
        raise NoLimit("family does not head toward collapse at the edges J")
    eps = rational(eps_J)
    target = sum((r.r[j - 1] for j in J), Fraction(0)) - eps
    QJ = subpolygon(frames[last], J)
    return transport(QJ, target, tol=tol)


# ---------------------------------------------------------------------------
# the combinatorial stable curve of a stable polygon
# ---------------------------------------------------------------------------


@dataclass
class CurveVertex:
    subset: tuple
    legs: tuple
    n_special: int
    semistable: bool
    mark: Optional[ModuliPoint]

    def to_json(self):
        return {
            "subset": list(self.subset),
            "legs": list(self.legs),
            "n_special": self.n_special,
            "semistable": self.semistable,
            "marks": None if self.mark is None else self.mark.to_json(),
        }


@dataclass
class DualCurve(_JsonFields):
    vertices: list
    edges: list  # pairs of vertex subsets

    def is_tree(self) -> bool:
        if len(self.edges) != len(self.vertices) - 1:
            return False
        index = {v.subset: i for i, v in enumerate(self.vertices)}
        parent = list(range(len(self.vertices)))
        for a, b in self.edges:
            ra, rb = _find(parent, index[a]), _find(parent, index[b])
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    def vertex(self, subset) -> CurveVertex:
        want = tuple(sorted(subset))
        for v in self.vertices:
            if v.subset == want:
                return v
        raise InvalidArgument(f"no component of the curve has subset {list(want)}")

    def to_dot(self) -> str:
        def name(subset):
            return '"[%s]"' % ",".join(str(j) for j in subset)

        lines = ["graph stable_curve {"]
        for v in self.vertices:
            lines.append(f"  {name(v.subset)} [shape=circle];")
            for leg in v.legs:
                lines.append(f'  "leg{leg}" [shape=none];')
                lines.append(f'  {name(v.subset)} -- "leg{leg}";')
        for a, b in self.edges:
            lines.append(f"  {name(a)} -- {name(b)};")
        lines.append("}")
        return "\n".join(lines)


def _collapsed_marks(node: StableNode, tol: Tolerances) -> Optional[ModuliPoint]:
    """Moduli point of the component with each parallel class fused.

    Special points in order: one per child class (the node to that bubble),
    then the loose labels, then the closing edge for non-root components.
    Line-polygon components have no marked-point moduli and yield None.
    """
    frame = node.frame
    taken = {j for c in node.children for j in c.subset}
    dirs = []
    for c in node.children:
        idx = [frame.index_of(j) for j in c.subset]
        v = np.sum(frame.r[idx, None] * frame.u[idx], axis=0)
        dirs.append(v / _norm(v))
    # the node fixes the labels: 1..n at the root, J then FREE_EDGE on a
    # bubble, so the closing edge comes after the loose labels
    dirs += [frame.u[i] for i, lab in enumerate(frame.labels) if lab not in taken]
    try:
        return _marks(np.array(dirs), tol.angle)
    except NoModuli:
        return None


def to_stable_curve(
    sp: StablePolygon,
    tol: Optional[Tolerances] = None,
    allow_semistable: bool = True,
) -> DualCurve:
    """The combinatorial stable curve underlying a stable polygon.

    One vertex per component; edges follow the bubble relation, so the graph
    is the component tree.  Legs are routed to the deepest component whose
    subset contains them (where the edge is not degenerate).  Every vertex
    needs at least three special points; a line-polygon component can carry
    only two, and is flagged semistable (refused unless `allow_semistable`).
    """
    tol = _tolerances(tol)
    report = validate(sp, tol)
    if not report.ok:
        raise InvalidArgument(
            "refusing to build a curve from an invalid stable polygon: "
            + "; ".join(f"{c.name}@{list(c.node)}" for c in report.failures())
        )
    vertices = []
    edges = []
    for nd in sp.root.walk():
        child_sets = [set(c.subset) for c in nd.children]
        own = [j for j in nd.subset if not any(j in cs for cs in child_sets)]
        n_special = len(own) + len(nd.children) + (0 if nd is sp.root else 1)
        semistable = n_special < 3
        if semistable and not allow_semistable:
            raise InvalidArgument(
                f"component {list(nd.subset)} has only {n_special} special points"
            )
        vertices.append(
            CurveVertex(
                subset=nd.subset,
                legs=tuple(own),
                n_special=n_special,
                semistable=semistable,
                mark=_collapsed_marks(nd, tol),
            )
        )
        for c in nd.children:
            edges.append((nd.subset, c.subset))
    curve = DualCurve(vertices=vertices, edges=edges)
    if not curve.is_tree():
        raise InternalError("bubble relation did not produce a tree")
    return curve
