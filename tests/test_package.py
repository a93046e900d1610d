"""The package surface: lazy numeric names, and an exact core free of numpy."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import stablegons

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the subcommands built on the exact layers alone; the other four read a
# tolerance and realize polygons with numpy
EXACT_COMMANDS = {"classify", "strata", "schedule", "poincare", "cone"}
NUMERIC_COMMANDS = {"realize", "stabilize", "limit", "curve"}

# every public name of the package, as `from stablegons import *` bound it
# when the package still imported its numeric layers eagerly
EXPORTS = {
    "ChamberMismatch", "ChamberSignature", "DualCurve", "EdgeFrame",
    "EpsilonAssignment", "InternalError", "InvalidArgument", "LengthVector",
    "ModuliPoint", "NoLimit", "NoModuli", "NonConvergence", "ParamPoint",
    "PoincarePoly", "RangeError", "StableNode", "StablePolygon",
    "StructureError", "Tolerances", "WallIndex", "augment",
    "canonical_epsilon", "canonicalize", "central_base", "central_contains",
    "chambers", "classify", "close", "close_degenerate", "cohomology", "cone",
    "diagonal", "epsilon_range", "errors", "favorable_index", "forget",
    "ih_poincare_center", "incidence", "is_favorable", "is_line_gon", "limit",
    "line_gons", "moduli_point", "nabla_index", "parallel_classes",
    "param_contains", "param_dim", "param_sample", "pgl2_distance",
    "pgl2_equivalent", "poincare_center", "poincare_wall_crossing", "realize",
    "relevant_subsets", "same_chamber", "schedule", "signature", "stabilize",
    "stable", "stable_betti", "strata", "subpolygon", "theta",
    "to_stable_curve", "transport", "validate", "wall_margin",
}


def readme_examples():
    """Argument lists of the README's command-line examples."""
    text = (ROOT / "README.md").read_text()
    return [line.split()[1:] for line in text.splitlines() if line.startswith("stablegons ")]


def test_readme_examples_are_all_known():
    commands = {argv[0] for argv in readme_examples()}
    assert commands == EXACT_COMMANDS | NUMERIC_COMMANDS


def test_lazy_names_are_the_submodule_objects():
    assert stablegons.close is stablegons.realize.close
    assert stablegons.Tolerances is stablegons.realize.Tolerances
    assert stablegons.stabilize is stablegons.stable.stabilize
    assert stablegons.DualCurve is stablegons.stable.DualCurve
    assert stablegons.stable_betti is stablegons.cohomology.stable_betti
    assert stablegons.PoincarePoly is stablegons.cohomology.PoincarePoly
    assert stablegons.param_sample is stablegons.cone.param_sample
    assert stablegons.ParamPoint is stablegons.cone.ParamPoint


def test_star_import_binds_every_export():
    namespace = {}
    exec("from stablegons import *", namespace)
    assert EXPORTS <= namespace.keys()
    assert set(stablegons.__all__) == EXPORTS
    assert dir(stablegons) == sorted(EXPORTS)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="nope"):
        stablegons.nope
    assert not hasattr(stablegons, "StabilityReport")


NUMPY_FREE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # from here on, any import of numpy fails

import stablegons as sg
from stablegons import cli

r10 = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
sg.classify(r10)
sg.relevant_subsets(r10, 2, with_margins=True)
point = sg.param_sample(8, seed=3)
assert sg.param_contains(point)
assert sg.stable_betti((1, 2, 3, 4, 5, 6)).coeffs == (1, 16, 16, 1)
r9 = (1, 1, 1, 2, 2, 2, 3, 3, 4)
sg.poincare_wall_crossing(r9)
sg.schedule(r9)
sg.strata(r9)

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)

try:
    sg.close
except ImportError:
    pass
else:
    raise SystemExit("numpy was not blocked")
"""


def test_exact_core_runs_without_numpy():
    examples = [argv for argv in readme_examples() if argv[0] in EXACT_COMMANDS]
    src = str(pathlib.Path(stablegons.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE, json.dumps(examples)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()


# run in a fresh interpreter: prints the modules each step newly loaded
FOOTPRINT = """
import contextlib, io, json, sys

steps, seen = {}, set(sys.modules)

def step(name):
    global seen
    steps[name] = sorted(set(sys.modules) - seen)
    seen = set(sys.modules)

import stablegons
step("import")
from stablegons import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["classify", "--r", "1,1,1,1,3.5"]) == 0
step("classify")
stablegons.param_sample(5)
step("param_sample")
stablegons.stable_betti((1, 1, 1, 1, 1))
step("stable_betti")
stablegons.schedule((1, 1, 1, 1, 2), stablegons.EpsilonAssignment(default=1))
step("schedule")
stablegons.strata((1, 1, 1, 1, 1))
step("strata")
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def footprint():
    src = str(pathlib.Path(stablegons.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


def test_import_loads_only_the_chamber_layer(footprint):
    loaded = footprint["import"]
    assert [m for m in loaded if m.startswith("stablegons")] == [
        "stablegons", "stablegons.chambers", "stablegons.errors",
    ]
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_cli_classify_loads_no_other_layer(footprint):
    loaded = footprint["import"] + footprint["classify"]
    assert "stablegons.cli" in loaded
    assert not {"stablegons.cohomology", "stablegons.cone", "dataclasses"} & set(loaded)


def test_first_use_loads_the_layer(footprint):
    assert "stablegons.cone" in footprint["param_sample"]
    assert "stablegons.cohomology" not in footprint["param_sample"]
    assert "stablegons.cohomology" in footprint["stable_betti"]


def test_exact_layers_load_no_dataclasses(footprint):
    # the numeric layers realize and stable are the only users of dataclasses
    assert set(footprint) == {
        "import", "classify", "param_sample", "stable_betti", "schedule", "strata",
    }
    for step, loaded in footprint.items():
        assert not {"dataclasses", "inspect"} & set(loaded), step
        assert not {"stablegons.realize", "stablegons.stable"} & set(loaded), step


HELP_BLOCKED = """
import contextlib, io, sys
sys.modules.update(dict.fromkeys(["numpy", "dataclasses"]))  # their imports fail
from stablegons import cli

for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([command, "--help"])
    assert code == 0 and out.getvalue().startswith("usage: stablegons " + command), command
"""


def test_help_of_every_subcommand_loads_neither_numpy_nor_dataclasses():
    src = str(pathlib.Path(stablegons.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", HELP_BLOCKED, *sorted(EXACT_COMMANDS | NUMERIC_COMMANDS)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
