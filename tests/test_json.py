"""The one JSON rule: records written field by field, CLI output pinned by sha256.

The literals and the hashes in ``cli_golden.json`` were taken from the
hand-written encoders that the rule replaced.
"""

import contextlib
import hashlib
import io
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from stablegons.chambers import _json
from stablegons.cli import main
from stablegons.cohomology import BlowupStep
from stablegons.realize import EdgeFrame, ModuliPoint
from stablegons.stable import (
    Check,
    CurveVertex,
    DualCurve,
    StabilityReport,
    StableNode,
    StablePolygon,
)

GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


def test_rule_keeps_scalars_and_lists_tuples_and_writes_fractions_exactly():
    assert _json(None) is None and _json(True) is True
    assert _json(3) == 3 and _json(0.5) == 0.5 and _json("a") == "a"
    assert _json(((1, 2), [Fraction(-7, 2)])) == [[1, 2], ["-7/2"]]
    assert _json(BlowupStep("resolution", (1, 2), 1, True)) == {
        "kind": "resolution", "center": [1, 2], "codim": 1, "nontrivial": True, "eps": None,
    }


def test_blowup_step_json_is_pinned():
    assert BlowupStep("blowup", (1, 2, 3), 2, True).to_json() == {
        "kind": "blowup", "center": [1, 2, 3], "codim": 2, "nontrivial": True, "eps": None,
    }
    assert BlowupStep("blowup", (2, 4), 1, False, Fraction(1, 3)).to_json() == {
        "kind": "blowup", "center": [2, 4], "codim": 1, "nontrivial": False, "eps": "1/3",
    }


def test_stable_polygon_json_is_pinned():
    square = EdgeFrame([5, 5, 5, 5], [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    bubble = EdgeFrame([5, 5, 6], [[0.6, 0.8, 0], [0.6, -0.8, 0], [-1, 0, 0]], (1, 2, 0))
    sp = StablePolygon(
        StableNode((1, 2, 3, 4), square, None, (StableNode((1, 2), bubble, Fraction(4)),))
    )
    assert sp.to_json() == {
        "subset": [1, 2, 3, 4],
        "eps": None,
        "frame": {
            "r": [5.0, 5.0, 5.0, 5.0],
            "u": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
            "residual": 0.0,
        },
        "children": [
            {
                "subset": [1, 2],
                "eps": "4",
                "frame": {
                    "r": [5.0, 5.0, 6.0],
                    "u": [[0.6, 0.8, 0.0], [0.6, -0.8, 0.0], [-1.0, 0.0, 0.0]],
                    # the rounding of 5 * 0.6 and the summation order are numpy's
                    "residual": bubble.residual,
                },
                "children": [],
            }
        ],
    }


def test_stability_report_json_is_pinned():
    report = StabilityReport(
        False,
        [Check("closed", (1, 2), False, "residual=1.00e-03"), Check("lengths", (1, 2, 3, 4), True)],
    )
    assert report.to_json() == {
        "ok": False,
        "checks": [
            {"name": "closed", "node": [1, 2], "ok": False, "detail": "residual=1.00e-03"},
            {"name": "lengths", "node": [1, 2, 3, 4], "ok": True, "detail": ""},
        ],
    }


def test_dual_curve_json_is_pinned():
    mark = ModuliPoint(np.array([[0, 1], [1, 1], [1, 0], [2j, 1]], dtype=complex), (0, 1, 2))
    curve = DualCurve(
        [
            CurveVertex((1, 2, 3, 4), (3, 4), 3, False, mark),
            CurveVertex((1, 2), (1, 2), 2, True, None),
        ],
        [((1, 2, 3, 4), (1, 2))],
    )
    assert curve.to_json() == {
        "vertices": [
            {
                "subset": [1, 2, 3, 4],
                "legs": [3, 4],
                "n_special": 3,
                "semistable": False,
                "marks": {
                    "points": [[0.0, 0.0], [1.0, 0.0], "inf", [0.0, 2.0]],
                    "anchors": [0, 1, 2],
                },
            },
            {"subset": [1, 2], "legs": [1, 2], "n_special": 2, "semistable": True, "marks": None},
        ],
        "edges": [[[1, 2, 3, 4], [1, 2]]],
    }


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_cli_stdout_is_byte_identical(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(case["argv"].split())
    assert code == case["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == case["sha256"]
