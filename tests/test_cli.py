import json

import pytest

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


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--r", "1,1,1,1,3.5"],
        ["strata", "--r", "1,1,1,1,3.5"],
        ["schedule", "--r", "1,1,1,1,2"],
        ["poincare", "--n", "6", "--method", "closed"],
        ["cone", "--n", "5", "--sample", "1"],
    ],
)
def test_tol_is_refused_where_no_tolerance_is_read(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--tol", "closure=1e-9")
    assert code == 2
    assert "--tol" in err


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


def test_schedule_refuses_illegal_slacks(capsys):
    # every pair of the equilateral pentagon is a center, so each has a slack
    # and only the range check can refuse the 5 > 2 min r_j on {1,2}
    pairs = [f"{i},{j}=1" for i in range(1, 6) for j in range(i + 1, 6)]
    eps = ";".join(["1,2=5"] + pairs[1:])
    code, out, err = run_cli(capsys, "schedule", "--r", "1,1,1,1,1", "--eps", eps)
    assert code == 2 and out == ""
    assert "slacks" in err
    code, _, _ = run_cli(capsys, "schedule", "--r", "1,1,1,1,1", "--eps", ";".join(pairs))
    assert code == 0


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


@pytest.mark.parametrize(
    "classes, message",
    [("1.5,2", "cannot parse --parallel"), ("1,9", "subset"), ("0,2", "subset")],
)
def test_realize_refuses_parallel_labels_outside_the_edges(capsys, classes, message):
    code, out, err = run_cli(
        capsys, "realize", "--r", "1,1,1,1,1", "--parallel", classes
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_realize_names_the_parallel_class_it_refuses(capsys):
    code, out, err = run_cli(capsys, "realize", "--r", "1,1,1,1,1", "--parallel", "1,9")
    assert code == 2 and out == ""
    assert err.startswith("error: parallel class=(1, 9) is not a subset of {1..5}")
    assert "J=" not in err


@pytest.mark.parametrize("bad", ["inf", "nan", "1/0", "abc"])
def test_unreadable_lengths_exit_2(capsys, bad):
    code, out, err = run_cli(capsys, "classify", "--r", f"1,1,{bad}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot parse --r '1,1,{bad}'")
    code, out, err = run_cli(capsys, "stabilize", "--r", "1,1,1,1,1", "--eps", f"1,2={bad}")
    assert code == 2 and out == ""
    assert "cannot parse --eps" in err


@pytest.mark.parametrize(
    "command, shape",
    [
        ("realize", ("--r", "1,1,1,1,1")),
        ("stabilize", ("--r", "1,1,1,2,2,2", "--parallel", "1,2,3")),
        ("cone", ("--n", "5", "--sample", "1")),
    ],
)
def test_negative_seed_exits_2(capsys, command, shape):
    code, out, err = run_cli(capsys, command, *shape, "--seed", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: seed -1 is negative")


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


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", "--r", "1e308,1e308,1e308"),
        ("realize", "--r", "1e-320,1e-320,1e-320,1e-320"),
        ("realize", "--r", "1e400,1e400,1e400,1e400", "--parallel", "1,2"),
        ("classify", "--r", ",".join(["1"] * 21)),
        ("strata", "--r", ",".join(["1"] * 21)),
        ("poincare", "--r", ",".join(["1"] * 21), "--method", "stable"),
        ("cone", "--n", "21", "--sample", "1"),
    ],
)
def test_range_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and ("2^300" in err or "n=21 is above" in err)


def test_classify_is_exact_beyond_the_float_range(capsys):
    code, out, _ = run_cli(capsys, "classify", "--r", "1e400,1e400,1e400,3e400")
    assert code == 0
    assert json.loads(out)["result"]["in_cone_interior"] is False


@pytest.mark.parametrize(
    "argv, named",
    [
        (("poincare", "--method", "closed"), "--n or --r"),
        # --n 0 now reaches the closed form, which names n in its refusal
        (("poincare", "--method", "closed", "--n", "0", "--r", "1,1,1,1,1"), "n >= 6"),
        (("limit", "--r", "1,1,1,2,2,2", "--J", "1,2,3", "--steps", "-1"), "--steps"),
        (("cone", "--n", "5", "--sample", "-2"), "--sample"),
        (("realize", "--r", "1,1,1,1,1", "--tol", "closure=nan"), "--tol"),
        (("realize", "--r", "1,1,1,1,1", "--tol", "closure=inf"), "--tol"),
        (("curve", "--r", "1,1,1,1,1", "--tol", "angle=-1"), "--tol"),
    ],
    ids=["closed-no-n-no-r", "closed-n-0", "steps", "sample", "tol-nan", "tol-inf", "tol-neg"],
)
def test_out_of_range_flags_exit_2(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


# (dest, default, required) of every option of every subcommand, in --help order
PARSER_OPTIONS = {
    "classify": [("r", None, True)],
    "realize": [("r", None, True), ("seed", 0, False), ("tol", None, False),
                ("parallel", None, False)],
    "stabilize": [("r", None, True), ("seed", 0, False), ("eps", "canonical", False),
                  ("tol", None, False), ("parallel", None, False)],
    "limit": [("r", None, True), ("seed", 0, False), ("eps", "canonical", False),
              ("J", None, True), ("tol", None, False), ("steps", 12, False)],
    "curve": [("r", None, True), ("seed", 0, False), ("eps", "canonical", False),
              ("tol", None, False), ("out", "json", False), ("parallel", None, False)],
    "strata": [("r", None, True), ("include_empty", False, False)],
    "schedule": [("r", None, True), ("eps", "canonical", False), ("out", "json", False)],
    "poincare": [("r", None, False), ("n", None, False), ("method", "wallcross", False),
                 ("eps", "canonical", False)],
    "cone": [("n", None, True), ("sample", 10, False), ("seed", 0, False)],
}


def test_parser_options_are_pinned():
    from stablegons.cli import build_parser

    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if a.dest == "command"]
    got = {
        name: [(a.dest, a.default, a.required) for a in sp._actions if a.dest != "help"]
        for name, sp in subcommands.choices.items()
    }
    assert got == PARSER_OPTIONS
    assert list(got) == list(PARSER_OPTIONS)
