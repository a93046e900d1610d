import json

from stablegons.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "--r", "1,1,1,1,3.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "classify"
    assert doc["options"]["r"] == "1,1,1,1,3.5"
    assert doc["result"]["favorable_index"] == 5
    assert doc["result"]["smooth"] is True


def test_poincare_wallcross(capsys):
    code, out, _ = run_cli(
        capsys, "poincare", "--r", "1,1,1,1,1,1,1", "--method", "wallcross"
    )
    assert code == 0
    assert json.loads(out)["result"]["coefficients"] == [1, 7, 22, 7, 1]


def test_poincare_stable_canonical(capsys):
    code, out, _ = run_cli(
        capsys, "poincare", "--r", "1,1,1,1,1", "--method", "stable", "--eps", "canonical"
    )
    assert code == 0
    assert json.loads(out)["result"]["coefficients"] == [1, 5, 1]


def test_poincare_closed_even(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--n", "6", "--method", "closed")
    assert code == 0
    assert json.loads(out)["result"]["coefficients"] == [1, 6, 6, 1]


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "poincare", "--r", "1,1,1,1,2", "--method", "wallcross"
    )
    assert code == 2
    assert "error" in err


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(capsys, "classify", "--r", "1,1,1", "--bogus", "1")
    assert code != 0


def test_realize_deterministic(capsys):
    a = run_cli(capsys, "realize", "--r", "1,1,1,1,1", "--seed", "5")
    b = run_cli(capsys, "realize", "--r", "1,1,1,1,1", "--seed", "5")
    assert a == b
    assert a[0] == 0
    doc = json.loads(a[1])
    assert doc["result"]["residual"] <= 1e-10


def test_stabilize_with_forced_classes(capsys):
    code, out, _ = run_cli(
        capsys,
        "stabilize",
        "--r", "1,1,1,2,2,2",
        "--parallel", "1,2,3",
        "--seed", "2",
    )
    assert code == 0
    doc = json.loads(out)
    kids = doc["result"]["children"]
    assert [c["subset"] for c in kids] == [[1, 2, 3]]


def test_curve_dot_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "curve",
        "--r", "1,1,1,2,2,2",
        "--parallel", "1,2,3",
        "--seed", "2",
        "--out", "dot",
    )
    assert code == 0
    assert out.startswith("graph stable_curve")
    assert '"leg4"' in out


def test_schedule_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--r", "1,1,1,1,3.5")
    assert code == 0
    steps = json.loads(out)["result"]
    assert [s["nontrivial"] for s in steps] == [True] * 4 + [False] * 6
    code, out, _ = run_cli(
        capsys, "schedule", "--r", "1,1,1,1,3.5", "--out", "dot"
    )
    assert code == 0
    assert out.startswith("digraph schedule")


def test_strata_counts(capsys):
    code, out, _ = run_cli(capsys, "strata", "--r", "1,1,1,1,3.5")
    assert code == 0
    doc = json.loads(out)["result"]
    single0 = [
        s for s in doc["strata"] if len(s["merged"]) == 1 and s["dim"] == 0
    ]
    assert len(single0) == 4


def test_limit_runs(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--r", "1,1,1,2,2,2", "--J", "1,2,3", "--seed", "11"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["residual"] <= 1e-10
    assert doc["result"]["r"] == [1.0, 1.0, 1.0, 2.0]


def test_cone_summary(capsys):
    code, out, _ = run_cli(capsys, "cone", "--n", "6", "--sample", "3", "--seed", "1")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["param_dim"] == 16
    assert doc["dimension_check"] is True
    assert len(doc["points"]) == 3


def test_tolerance_override(capsys):
    code, out, _ = run_cli(
        capsys, "realize", "--r", "1,1,1,1,1", "--seed", "1", "--tol", "closure=1e-6"
    )
    assert code == 0


def test_limit_rejects_repeated_label(capsys):
    code, _, err = run_cli(capsys, "limit", "--r", "1,1,1,2,2,2", "--J", "1,1,2,3")
    assert code == 2
    assert "repeats a label" in err


def test_interpolating_family_matches_per_edge_rotation(monkeypatch):
    # the per-edge Rodrigues rotation with np.cross and np.dot is the
    # reference; the array form must give the same frames, bit for bit
    import numpy as np

    from stablegons import realize
    from stablegons.cli import _interpolating_family

    # a degenerate frame puts its class on (1, 0, 0), where every product is
    # exact; a seeded rotation of the base makes the rounding matter
    R, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    degenerate = realize.close_degenerate
    monkeypatch.setattr(
        realize, "close_degenerate", lambda *a, **k: degenerate(*a, **k).rotated(R)
    )

    def per_edge(r, J, seed, steps):
        base = realize.close_degenerate(r, [J], seed=seed)
        axes = np.random.default_rng(seed + 1).normal(size=(len(J), 3))
        frames = []
        for t in np.linspace(0.85, 0.0, steps):
            u = base.u.copy()
            for k, j in enumerate(J):
                axis = axes[k] / np.linalg.norm(axes[k])
                angle = 0.9 * float(t)
                v = u[j - 1]
                u[j - 1] = (
                    v * np.cos(angle)
                    + np.cross(axis, v) * np.sin(angle)
                    + axis * np.dot(axis, v) * (1 - np.cos(angle))
                )
            frames.append(realize.close(r, hints=u))
        return frames

    cases = [
        ((1, 1, 1, 2, 2, 2), (1, 2, 3), 11),
        ((2, 3, 4, 5, 6, 7), (4, 2), 9),
        ((3, 4, 5, 6, 7, 8, 9), (5, 1, 3), 4),
    ]
    for r, J, seed in cases:
        got, want = _interpolating_family(r, J, seed, 12), per_edge(r, J, seed, 12)
        assert all(np.array_equal(a.u, b.u) for a, b in zip(got, want))
