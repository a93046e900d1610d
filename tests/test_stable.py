import re

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

from stablegons.chambers import EpsilonAssignment, LengthVector, augment
from stablegons.errors import (
    InvalidArgument,
    NoLimit,
    NoModuli,
    RangeError,
    StructureError,
)
from stablegons.realize import (
    FREE_EDGE,
    EdgeFrame,
    Tolerances,
    close,
    close_degenerate,
    diagonal,
    incidence,
    moduli_point,
    parallel_classes,
    pgl2_equivalent,
)
from stablegons.stable import (
    StableNode,
    StablePolygon,
    _collapsed_marks,
    _triangle_frame,
    forget,
    limit,
    stabilize,
    to_stable_curve,
    validate,
)

F = Fraction

HEX_R = LengthVector((1, 1, 1, 2, 2, 2))


def canonical_eps(r):
    return EpsilonAssignment.canonical(LengthVector(r))


class TestStabilize:
    def test_generic_frame_has_no_bubbles(self):
        frame = close([1] * 5, seed=0)
        sp = stabilize(frame, canonical_eps([1] * 5))
        assert sp.bubbles() == []
        assert validate(sp).ok

    def test_hexagon_triple_bubble(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        sp = stabilize(frame, EpsilonAssignment.canonical(HEX_R), filler=7)
        assert sp.subsets() == [(1, 2, 3)]
        node = sp.find((1, 2, 3))
        want = augment(HEX_R, (1, 2, 3), 1)
        assert np.allclose(node.frame.r, [float(x) for x in want.r])
        # the bubble leaf is generic
        assert all(len(c) == 1 for c in parallel_classes(node.frame))
        assert validate(sp).ok

    def test_square_line_gon_rigid_triangles(self):
        u = [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [-1, 0, 0]]
        frame = EdgeFrame((1, 1, 1, 1), u)
        sp = stabilize(frame, canonical_eps([1] * 4))
        assert sp.subsets() == [(1, 2), (3, 4)]
        for J in [(1, 2), (3, 4)]:
            tri = sp.find(J).frame
            assert tri.n == 3
            assert tri.residual <= 1e-12
        assert validate(sp).ok

    def test_rigid_pair_neutrality(self):
        u = [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [-1, 0, 0]]
        frame = EdgeFrame((1, 1, 1, 1), u)
        a = stabilize(frame, canonical_eps([1] * 4), filler=1)
        b = stabilize(frame, canonical_eps([1] * 4), filler=999)
        for J in [(1, 2), (3, 4)]:
            assert np.array_equal(a.find(J).frame.u, b.find(J).frame.u)

    def test_missing_eps_names_subset(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        with pytest.raises(InvalidArgument, match=r"1, 2, 3"):
            stabilize(frame, EpsilonAssignment({(1, 2): F(1, 2)}))

    def test_slack_at_its_bound_names_subset(self):
        # 2 min_J r_j is the open upper end of the legal range for J
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        eps = EpsilonAssignment({(1, 2, 3): 2}, default=1)
        with pytest.raises(RangeError, match=r"1, 2, 3"):
            stabilize(frame, eps)

    @pytest.mark.parametrize("filler", [-1, 1.5, True, np.True_])
    def test_bad_filler_seed_is_refused(self, filler):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        refusal = "filler .* is (not an integer|negative)"
        with pytest.raises(InvalidArgument, match=refusal):
            stabilize(frame, canonical_eps(HEX_R), filler=filler)

    def test_explicit_bubble_filler(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        bubble_r = augment(HEX_R, (1, 2, 3), 1)
        bub = close(bubble_r, seed=123)
        sp = stabilize(
            frame,
            EpsilonAssignment.canonical(HEX_R),
            filler={(1, 2, 3): bub},
        )
        assert np.array_equal(sp.find((1, 2, 3)).frame.u, bub.u)

    def test_quadrangle_single_pair_bubble_valid(self):
        r = LengthVector((1, 1, 1, F(3, 2)))
        frame = close_degenerate(r, [(1, 2)], seed=3)
        sp = stabilize(frame, canonical_eps(r.r))
        assert sp.subsets() == [(1, 2)]
        tri = sp.find((1, 2)).frame
        assert np.allclose(tri.r, [1.0, 1.0, 1.0])  # (1, 1, 2 - eps), eps = 1
        assert validate(sp).ok

    def test_large_polygons_validate(self):
        # every component closes within 1e-10 times its longest edge
        r = LengthVector([10**6] * 6)
        eps = EpsilonAssignment.canonical(r)
        for seed in range(6):
            for classes in ([(1, 2, 3)], [(1, 2), (4, 5)]):
                frame = close_degenerate(r, classes, seed=seed)
                assert validate(stabilize(frame, eps, filler=seed)).ok

    def test_stabilize_validate_closure_sweep(self):
        rs = [
            LengthVector([1] * 5),
            LengthVector((1, 1, 1, 1, F(7, 2))),
            LengthVector((2, 3, 5, 5, 5)),
            LengthVector((1, 2, 2, 2, 2)),
            LengthVector((1, 1, 2, 2, 3)),
            LengthVector((1, 1, 1, 2, 2, 2)),
            LengthVector([1] * 6),
            LengthVector((1, 1, 1, 1, 2, 3)),
            LengthVector((2, 2, 2, 3, 3, 3)),
            LengthVector((1, 1, 2, 2, 3, 3)),
        ]
        patterns = {
            5: [[], [(1, 2)], [(2, 3)], [(4, 5)]],
            6: [[], [(1, 2, 3)], [(1, 2), (4, 5)], [(2, 3)]],
        }
        built = 0
        for r in rs:
            eps = EpsilonAssignment.canonical(r)
            for seed in range(6):
                for classes in patterns[r.n]:
                    try:
                        frame = (
                            close_degenerate(r, classes, seed=seed)
                            if classes
                            else close(r, seed=seed)
                        )
                    except InvalidArgument:
                        continue  # pattern not realizable for this r
                    sp = stabilize(frame, eps, filler=seed)
                    assert validate(sp).ok
                    built += 1
        assert built >= 200


class TestValidate:
    def test_wrong_eps_flags_lengths(self):
        u = [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [-1, 0, 0]]
        frame = EdgeFrame((1, 1, 1, 1), u)
        # hand the stabilizer one bubble built over the wrong slack
        bad = _triangle_frame(
            augment(LengthVector([1] * 4), (1, 2), F(1, 2)), (1, 2, 0)
        )
        sp = stabilize(frame, canonical_eps([1] * 4), filler={(1, 2): bad})
        assert sp.find((1, 2)).frame is bad
        rep = validate(sp)
        assert not rep.ok
        assert any(c.name == "lengths" and not c.ok for c in rep.checks)

    def test_non_laminar_structure_raises(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        sp = stabilize(frame, EpsilonAssignment.canonical(HEX_R))
        stray = StableNode(
            subset=(3, 4),
            frame=_triangle_frame(augment(HEX_R, (3, 4), 1), (3, 4, 0)),
            eps=F(1),
        )
        with pytest.raises(StructureError, match=r"\[3, 4\]"):
            replace(sp.root, children=sp.root.children + (stray,))

    def test_bubble_frame_without_closing_edge_raises(self):
        r = (3, 4, 5, 6, 7)
        frame = close_degenerate(r, [(1, 2)], seed=1)
        sp = stabilize(frame, canonical_eps(r), filler=1)
        node = sp.find((1, 2))
        bad = EdgeFrame(node.frame.lengths, node.frame.u, (1, 2, 9))
        with pytest.raises(StructureError, match=r"\[1, 2\]"):
            replace(node, frame=bad)

    def test_bubble_frame_with_wrong_edge_count_raises(self):
        r = (3, 4, 5, 6, 7)
        frame = close_degenerate(r, [(1, 2)], seed=1)
        sp = stabilize(frame, canonical_eps(r), filler=1)
        node = sp.find((1, 2))
        with pytest.raises(StructureError, match=r"\[1, 2\]"):
            replace(node, frame=close((1, 1, 1, 1), seed=2))

    def test_unbubbled_class_fails(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        sp = stabilize(frame, EpsilonAssignment.canonical(HEX_R))
        sp = StablePolygon(replace(sp.root, children=()))
        rep = validate(sp)
        assert not rep.ok
        assert any(c.name == "degenerations_match_children" and not c.ok for c in rep.checks)
        refusal = r"degenerations_match_children@\[1, 2, 3, 4, 5, 6\]"
        with pytest.raises(InvalidArgument, match=refusal):
            to_stable_curve(sp)

    def test_strict_mode_on_nested_tree(self):
        r = LengthVector((1, 1, 1, 1, 10, 10, 10))
        eps = EpsilonAssignment.canonical(r)
        frame = close_degenerate(r, [(1, 2, 3, 4)], seed=5)
        sp = stabilize(frame, eps, filler=3)
        # force a nested bubble inside the first one
        node = sp.find((1, 2, 3, 4))
        deg = close_degenerate(node.frame.lengths, [(1, 2)], seed=6)
        inner = EdgeFrame(deg.lengths, deg.u, node.frame.labels)
        sp2 = stabilize(forget(sp), eps, filler={(1, 2, 3, 4): inner})
        rep = validate(sp2, strict=True)
        assert rep.ok
        assert any(c.name == "ancestor_collapse" for c in rep.checks)

    def test_structure_checks_left_validate(self):
        # every tree that can be built is well-formed, so validate only
        # reports on geometry
        import stablegons.stable as stable

        assert not hasattr(stable, "_laminar")
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        sp = stabilize(frame, EpsilonAssignment.canonical(HEX_R))
        assert not hasattr(sp, "eps")
        names = [c.name for c in validate(sp).checks]
        assert names[:2] == ["closed", "lengths"]
        assert sp.root_r is frame.lengths


class TestTreeIsReadOnly:
    def hexagon(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        return stabilize(frame, EpsilonAssignment.canonical(HEX_R))

    def test_node_and_polygon_refuse_assignment(self):
        sp = self.hexagon()
        node = sp.find((1, 2, 3))
        for target, name, value in [
            (node, "frame", sp.root.frame),
            (node, "eps", F(1, 2)),
            (node, "children", ()),
            (sp.root, "subset", (1, 2)),
            (sp, "root", node),
        ]:
            with pytest.raises(FrozenInstanceError):
                setattr(target, name, value)
        assert isinstance(sp.root.children, tuple)
        with pytest.raises(AttributeError):
            sp.root.children.append(node)

    def test_mislabelled_root_frame_raises(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        with pytest.raises(StructureError, match=r"\[1, 2, 3, 4, 5\]"):
            StableNode((1, 2, 3, 4, 5), frame, None)

    def test_unsorted_subset_and_one_label_bubble_raise(self):
        # find and DualCurve.vertex look a node up by its sorted subset, so a
        # node over (2, 1) or (1, 1) would never be found
        for subset in ((2, 1), (1, 1)):
            frame = _triangle_frame(augment(HEX_R, (1, 2), F(1, 2)), subset + (0,))
            name = re.escape(str(list(subset)))
            with pytest.raises(StructureError, match=f"{name} is not strictly"):
                StableNode(subset, frame, F(1, 2))
        segment = EdgeFrame((1, 1), [[1, 0, 0], [-1, 0, 0]], (3, 0))
        with pytest.raises(StructureError, match=r"bubble \[3\] has fewer than 2 labels"):
            StableNode((3,), segment, F(1, 2))
        root = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        shuffled = EdgeFrame(root.lengths.r, root.u, (2, 1, 3, 4, 5, 6))
        with pytest.raises(StructureError, match=r"\[2, 1, 3, 4, 5, 6\] is not strictly"):
            StableNode((2, 1, 3, 4, 5, 6), shuffled, None)

    def test_child_escaping_its_parent_raises(self):
        node = self.hexagon().find((1, 2, 3))
        stray = StableNode(
            (3, 4), _triangle_frame(augment(HEX_R, (3, 4), 1), (3, 4, 0)), F(1)
        )
        # the same subset is not a proper one, and (3, 4) leaves (1, 2, 3)
        for child in (node, stray):
            with pytest.raises(StructureError, match=r"escapes parent \[1, 2, 3\]"):
                replace(node, children=(child,))

    def test_child_without_slack_raises(self):
        sp = self.hexagon()
        node = sp.find((1, 2, 3))
        loose = StableNode(
            (1, 2, 3), EdgeFrame(node.frame.lengths.r[:3], node.frame.u[:3]), None
        )
        with pytest.raises(StructureError, match=r"child \[1, 2, 3\] .* has no slack"):
            replace(sp.root, children=(loose,))

    def test_overlapping_siblings_raise(self):
        sp = self.hexagon()
        node = sp.find((1, 2, 3))
        with pytest.raises(StructureError, match=r"\[1, 2, 3\] .* overlaps"):
            replace(sp.root, children=(node, node))

    def test_polygon_refuses_a_root_that_is_not_one_to_n_without_slack(self):
        sp = self.hexagon()
        shifted = StableNode(
            (2, 3, 4, 5), EdgeFrame((1, 1, 1, 1), close([1] * 4, seed=1).u, (2, 3, 4, 5)), None
        )
        for root in (sp.find((1, 2, 3)), shifted):
            with pytest.raises(StructureError, match="root must carry"):
                StablePolygon(root)
        assert StablePolygon(sp.root) == sp


class TestForget:
    def test_root_recovered_identically(self):
        for classes in [[], [(1, 2, 3)], [(1, 2), (4, 5)]]:
            frame = (
                close_degenerate(HEX_R, classes, seed=2)
                if classes
                else close(HEX_R, seed=2)
            )
            sp = stabilize(frame, EpsilonAssignment.canonical(HEX_R))
            assert forget(sp) is frame


def interpolating_family(r, J, seed, steps=12):
    """Path of closed frames whose J-edges swing toward a common direction."""
    base = close_degenerate(r, [J], seed=seed)
    rng = np.random.default_rng(seed + 1)
    axes = rng.normal(size=(len(J), 3))
    frames = []
    for t in np.linspace(0.85, 0.0, steps):
        u = base.u.copy()
        for k, j in enumerate(J):
            axis = axes[k] / np.linalg.norm(axes[k])
            angle = 0.9 * t
            v = u[j - 1]
            # Rodrigues rotation away from the common direction
            u[j - 1] = (
                v * np.cos(angle)
                + np.cross(axis, v) * np.sin(angle)
                + axis * np.dot(axis, v) * (1 - np.cos(angle))
            )
        frame = close(r, hints=u)
        frames.append(frame)
    return frames


class TestLimit:
    def test_hexagon_family_limit(self):
        J = (1, 2, 3)
        frames = interpolating_family(HEX_R, J, seed=11)
        bub = limit(frames, J, eps_J=1)
        want = augment(HEX_R, J, 1)
        assert np.allclose(bub.r, [float(x) for x in want.r])
        assert bub.residual <= 1e-10
        # the extracted bubble is incident to the in-window frames it came from
        assert incidence(frames[-1], bub, J)
        proxy = close_degenerate(HEX_R, [J], seed=11)
        assert incidence(proxy, bub, J)

    def test_constant_generic_family_no_limit(self):
        # generic hexagons with |d_J| below the window
        J = (1, 2, 3)
        frames = []
        for seed in range(400):
            f = close(HEX_R, seed=seed)
            _, d = diagonal(f, J)
            if d < 1.0 - 1e-3:
                frames = [f] * 5
                break
        assert frames, "no below-window hexagon drawn"
        with pytest.raises(NoLimit):
            limit(frames, J, eps_J=1)

    @pytest.mark.parametrize("J", [None, 1.5])
    def test_non_iterable_subset_is_refused(self, J):
        frames = [close(HEX_R, seed=0)]
        with pytest.raises(InvalidArgument, match="is not a collection of labels"):
            limit(frames, J, eps_J=1)

    def test_reversed_family_no_limit(self):
        J = (1, 2, 3)
        frames = interpolating_family(HEX_R, J, seed=11)
        with pytest.raises(NoLimit):
            limit(frames[::-1], J, eps_J=1)


class TestStableCurve:
    def test_lone_pentagon(self):
        frame = close([1] * 5, seed=0)
        sp = stabilize(frame, canonical_eps([1] * 5))
        curve = to_stable_curve(sp)
        assert len(curve.vertices) == 1
        v = curve.vertices[0]
        assert v.legs == (1, 2, 3, 4, 5)
        assert v.n_special == 5
        assert not v.semistable
        vals = v.mark.values()
        assert len(vals) == 5
        # marks pairwise distinct
        for i in range(5):
            for j in range(i + 1, 5):
                a, b = vals[i], vals[j]
                if isinstance(a, str) or isinstance(b, str):
                    assert a != b
                else:
                    assert abs(a - b) > 1e-6

    def test_hexagon_two_vertex_tree(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        sp = stabilize(frame, EpsilonAssignment.canonical(HEX_R))
        curve = to_stable_curve(sp)
        assert len(curve.vertices) == 2
        assert curve.is_tree()
        root = curve.vertex(range(1, 7))
        bub = curve.vertex((1, 2, 3))
        assert root.legs == (4, 5, 6) and root.n_special == 4
        assert bub.legs == (1, 2, 3) and bub.n_special == 4

    def test_vertex_refuses_a_subset_that_is_no_component(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        curve = to_stable_curve(stabilize(frame, EpsilonAssignment.canonical(HEX_R)))
        with pytest.raises(InvalidArgument, match=r"\[1, 2\]"):
            curve.vertex((2, 1))

    def test_square_line_gon_path_tree(self):
        u = [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [-1, 0, 0]]
        frame = EdgeFrame((1, 1, 1, 1), u)
        sp = stabilize(frame, canonical_eps([1] * 4))
        curve = to_stable_curve(sp)
        assert len(curve.vertices) == 3
        assert curve.is_tree()
        for J in [(1, 2), (3, 4)]:
            v = curve.vertex(J)
            assert v.n_special == 3 and not v.semistable
        root = curve.vertex((1, 2, 3, 4))
        assert root.n_special == 2 and root.semistable
        with pytest.raises(InvalidArgument):
            to_stable_curve(sp, allow_semistable=False)

    def test_distinct_bubble_families_distinct_trees(self):
        a = stabilize(
            close_degenerate(HEX_R, [(1, 2, 3)], seed=1),
            EpsilonAssignment.canonical(HEX_R),
        )
        b = stabilize(
            close_degenerate(HEX_R, [(1, 2)], seed=1),
            EpsilonAssignment.canonical(HEX_R),
        )
        ca, cb = to_stable_curve(a), to_stable_curve(b)
        assert {v.subset for v in ca.vertices} != {v.subset for v in cb.vertices}

    def test_same_tree_different_moduli_distinct_marks(self):
        eps = EpsilonAssignment.canonical(HEX_R)
        a = stabilize(close_degenerate(HEX_R, [(1, 2, 3)], seed=1), eps, filler=1)
        b = stabilize(close_degenerate(HEX_R, [(1, 2, 3)], seed=1), eps, filler=2)
        ma = to_stable_curve(a).vertex((1, 2, 3)).mark
        mb = to_stable_curve(b).vertex((1, 2, 3)).mark
        assert not pgl2_equivalent(ma, mb)

    def test_nested_bubbles_path_tree(self):
        r = LengthVector((1, 1, 1, 1, 10, 10, 10))
        eps = EpsilonAssignment.canonical(r)
        base = close_degenerate(r, [(1, 2, 3, 4)], seed=5)
        # hand the stabilizer a bubble that itself degenerates at {1,2}
        outer_r = augment(r, (1, 2, 3, 4), 1)
        inner = close_degenerate(outer_r, [(1, 2)], seed=6)
        sp = stabilize(
            base,
            eps,
            filler={(1, 2, 3, 4): EdgeFrame(inner.lengths, inner.u, (1, 2, 3, 4, 0))},
        )
        assert sorted(sp.subsets()) == [(1, 2), (1, 2, 3, 4)]
        assert validate(sp).ok
        curve = to_stable_curve(sp)
        assert curve.is_tree() and len(curve.vertices) == 3
        assert curve.vertex(range(1, 8)).legs == (5, 6, 7)
        mid = curve.vertex((1, 2, 3, 4))
        assert mid.legs == (3, 4) and mid.n_special == 4
        leaf = curve.vertex((1, 2))
        assert leaf.legs == (1, 2) and leaf.n_special == 3

    def test_collapsed_marks_match_fused_frame(self):
        # the marks read off the fused direction array equal moduli_point of
        # the fused frame with summed lengths, bit for bit
        def fused_frame_marks(node, tol):
            frame = node.frame
            taken = {j for c in node.children for j in c.subset}
            dirs, lens = [], []
            for c in node.children:
                idx = [frame.index_of(j) for j in c.subset]
                v = np.sum(frame.r[idx, None] * frame.u[idx], axis=0)
                dirs.append(v / np.linalg.norm(v))
                lens.append(float(np.sum(frame.r[idx])))
            for i, lab in enumerate(frame.labels):
                if lab not in taken and (node.eps is None or lab != FREE_EDGE):
                    dirs.append(frame.u[i])
                    lens.append(float(frame.r[i]))
            if node.eps is not None:
                i = frame.index_of(FREE_EDGE)
                dirs.append(frame.u[i])
                lens.append(float(frame.r[i]))
            try:
                return moduli_point(EdgeFrame(LengthVector(lens), np.array(dirs)), tol.angle)
            except NoModuli:
                return None

        cases = [
            (HEX_R, [(1, 2, 3)]),
            (HEX_R, [(1, 2), (4, 5)]),
            (LengthVector((3, 4, 5, 6, 7)), [(1, 2)]),
            (LengthVector((1, 1, 1, 1, 10, 10, 10)), [(1, 2, 3, 4)]),
            (LengthVector((2, 3, 4, 5, 6, 7, 8, 9)), [(1, 2, 3), (4, 5)]),
        ]
        line = EdgeFrame((1, 1, 1, 1), [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [-1, 0, 0]])
        sps = [stabilize(line, canonical_eps([1] * 4))]
        for r, classes in cases:
            for seed in range(3):
                frame = close_degenerate(r, classes, seed=seed)
                sps.append(stabilize(frame, EpsilonAssignment.canonical(r), filler=seed))
        tol = Tolerances()
        nones = 0
        for sp in sps:
            for nd in sp.nodes():
                got, want = _collapsed_marks(nd, tol), fused_frame_marks(nd, tol)
                if want is None:
                    assert got is None
                    nones += 1
                    continue
                assert np.array_equal(got.pairs, want.pairs)
                assert got.anchors == want.anchors
        assert nones == 1  # the root of the square line polygon

    def test_dot_output(self):
        frame = close_degenerate(HEX_R, [(1, 2, 3)], seed=4)
        sp = stabilize(frame, EpsilonAssignment.canonical(HEX_R))
        dot = to_stable_curve(sp).to_dot()
        assert dot.startswith("graph")
        assert '"leg4"' in dot and '"[1,2,3]"' in dot
