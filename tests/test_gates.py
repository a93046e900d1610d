"""Tolerance and slack arguments of the wrong type are refused with InvalidArgument."""

import functools
import inspect
import math
from fractions import Fraction

import pytest

import stablegons as sg
from stablegons.cli import _interpolating_family, main

BAD = [True, "x", -1.0, math.nan, object()]
ARGUMENTS = {"tol", "eps", "eps_J"}

R = (1, 1, 1, 2, 2, 2)
J = (1, 2, 3)


TOLERANCES = sg.Tolerances(closure=1e-9)
SLACKS = sg.EpsilonAssignment.canonical(R)


@functools.cache
def inputs():
    """A generic frame, a degenerate one, its stable polygon and a degenerating family."""
    degenerate = sg.close_degenerate(R, [J], seed=1)
    sp = sg.stabilize(degenerate, SLACKS, filler=1)
    return sg.close(R, seed=1), degenerate, sp, _interpolating_family(R, J, 11, 12)


def _bubble(eps):
    return sg.StableNode(J, inputs()[2].find(J).frame, eps)


# (public name, argument) -> (a call passing its argument there, a valid argument)
CALLS = {
    ("EpsilonAssignment", "eps"): (lambda eps: sg.EpsilonAssignment(eps), {J: 1}),
    ("ParamPoint", "eps"): (lambda eps: sg.ParamPoint(sg.LengthVector(R), eps), SLACKS),
    ("StableNode", "eps"): (_bubble, Fraction(1)),
    ("augment", "eps_J"): (lambda eps: sg.augment(R, J, eps), 1),
    ("canonicalize", "tol"): (lambda tol: sg.canonicalize(inputs()[0], tol), 1e-7),
    ("close", "tol"): (lambda tol: sg.close(R, seed=1, tol=tol), 1e-9),
    ("close_degenerate", "tol"): (
        lambda tol: sg.close_degenerate(R, [J], seed=1, tol=tol), 1e-9
    ),
    ("incidence", "tol"): (
        lambda tol: sg.incidence(inputs()[1], inputs()[2].find(J).frame, J, tol=tol),
        TOLERANCES,
    ),
    ("is_line_gon", "tol"): (lambda tol: sg.is_line_gon(inputs()[0], tol), 0),
    ("limit", "eps_J"): (lambda eps: sg.limit(inputs()[3], J, eps), 1),
    ("limit", "tol"): (lambda tol: sg.limit(inputs()[3], J, 1, tol=tol), TOLERANCES),
    ("moduli_point", "tol"): (lambda tol: sg.moduli_point(inputs()[0], tol), 1e-7),
    ("parallel_classes", "tol"): (lambda tol: sg.parallel_classes(inputs()[0], tol), 0.5),
    ("pgl2_equivalent", "tol"): (
        lambda tol: sg.pgl2_equivalent(
            sg.moduli_point(inputs()[0]), sg.moduli_point(inputs()[0]), tol
        ),
        1e-6,
    ),
    ("schedule", "eps"): (lambda eps: sg.schedule(R, eps), SLACKS),
    ("stabilize", "eps"): (lambda eps: sg.stabilize(inputs()[1], eps), SLACKS),
    ("stabilize", "tol"): (lambda tol: sg.stabilize(inputs()[1], SLACKS, tol=tol), TOLERANCES),
    ("stable_betti", "eps"): (lambda eps: sg.stable_betti(R, eps), SLACKS),
    ("to_stable_curve", "tol"): (lambda tol: sg.to_stable_curve(inputs()[2], tol), TOLERANCES),
    ("transport", "tol"): (lambda tol: sg.transport(inputs()[0], 2.5, tol=tol), TOLERANCES),
    ("validate", "tol"): (lambda tol: sg.validate(inputs()[2], tol), TOLERANCES),
}


def test_every_public_tolerance_or_slack_argument_is_covered():
    found = set()
    for name in sg.__all__:
        obj = getattr(sg, name)
        if callable(obj) and not inspect.ismodule(obj):
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # a builtin without a signature
                continue
            found.update((name, p) for p in params if p in ARGUMENTS)
    assert found == set(CALLS)


@pytest.mark.parametrize("call", sorted(CALLS), ids="/".join)
def test_each_call_runs_on_a_valid_argument(call):
    run, good = CALLS[call]
    run(good)


@pytest.mark.parametrize("bad", BAD, ids=["True", "str", "negative", "nan", "object"])
@pytest.mark.parametrize("call", sorted(CALLS), ids="/".join)
def test_wrong_type_or_value_is_refused(call, bad):
    with pytest.raises(sg.InvalidArgument):
        CALLS[call][0](bad)


def test_cone_refuses_a_negative_seed_before_drawing(capsys):
    code = main(["cone", "--n", "5", "--sample", "0", "--seed", "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: seed -1 is negative")


@pytest.mark.parametrize("seed", range(6))
def test_limit_refuses_a_subset_whose_wall_r_sits_on(capsys, seed):
    code = main(["limit", "--r", "1,1,1,1,1,1", "--J", "1,2,3", "--seed", str(seed)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--J 1,2,3" in err
