"""Command-line front end.

Every run prints a single JSON document on stdout carrying the resolved
configuration next to the result, so invocations are reproducible from their
own output.  Domain errors (bad subsets, walls, illegal ranges) exit with
code 2, internal failures with 1.  Rationals on the command line are parsed
exactly: "3.5" means 7/2.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import inf

from .chambers import EpsilonAssignment, LengthVector, classify, rational
from .errors import InvalidArgument, NonConvergence


def parse_lengths(text: str) -> LengthVector:
    try:
        return LengthVector(rational(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidArgument(f"cannot parse --r {text!r}: {exc}") from None


def parse_labels(text: str, flag: str) -> tuple:
    """Comma-separated integer labels; a bad token is an error naming `flag`."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidArgument(f"cannot parse {flag} {text!r}: {exc}") from None


def parse_subset(text: str):
    J = parse_labels(text, "--J")
    if len(set(J)) != len(J):
        raise InvalidArgument(f"--J {text!r} repeats a label")
    return J


def parse_eps(text, r: LengthVector) -> EpsilonAssignment:
    if text is None or text == "canonical":
        return EpsilonAssignment.canonical(r)
    entries = {}
    for chunk in text.split(";"):
        if not chunk:
            continue
        try:
            key, val = chunk.split("=")
            val = rational(val)
        except ValueError as exc:
            raise InvalidArgument(f"cannot parse --eps chunk {chunk!r}: {exc}") from None
        entries[parse_labels(key, "--eps")] = val
    return EpsilonAssignment(entries)


def parse_tols(pairs):
    from dataclasses import replace

    from .realize import Tolerances

    tol = Tolerances()
    for item in pairs or []:
        try:
            name, val = item.split("=")
            val = float(val)
            tol = replace(tol, **{name: val})
        except (ValueError, TypeError) as exc:
            raise InvalidArgument(f"cannot parse --tol {item!r}: {exc}") from None
        if not 0 <= val < inf:  # NaN fails both comparisons
            raise InvalidArgument(f"--tol {item!r} is not a finite value >= 0")
    return tol


def _count(value: int, flag: str) -> int:
    if value < 0:
        raise InvalidArgument(f"{flag} {value} is negative")
    return value


def emit(command: str, options: dict, result, out=None):
    out = out if out is not None else sys.stdout
    doc = {"command": command, "options": options, "result": result}
    json.dump(doc, out, sort_keys=True, indent=2)
    out.write("\n")


# every flag spec once, as (option string, add_argument keywords)
FLAGS = {
    "r": ("--r", {"required": True, "help": "comma-separated rationals"}),
    "poincare_r": ("--r", {"help": "comma-separated rationals"}),
    "n": ("--n", {"type": int, "required": True}),
    "poincare_n": ("--n", {"type": int, "help": "edge count (closed method)"}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "eps": ("--eps", {"default": "canonical", "help": '"canonical" or "1,2=1/2;..."'}),
    "poincare_eps": ("--eps", {"default": "canonical"}),
    "J": ("--J", {"required": True, "help": "comma-separated 1-based labels"}),
    "tol": ("--tol", {"action": "append", "metavar": "NAME=VALUE"}),
    "out": ("--out", {"choices": ["json", "dot"], "default": "json"}),
    "parallel": ("--parallel", {"help": 'force classes, e.g. "1,2,3|4,5"'}),
    "steps": ("--steps", {"type": int, "default": 12}),
    "include_empty": ("--include-empty", {"action": "store_true"}),
    "method": ("--method", {"choices": ["wallcross", "closed", "stable"], "default": "wallcross"}),
    "sample": ("--sample", {"type": int, "default": 10}),
}

# subcommand name -> (help, keys of FLAGS, handler), filled by @command
COMMANDS = {}


def command(name: str, help_text: str, *flags):
    """Register a handler, which returns the result of subcommand `name`.

    `flags` are keys of FLAGS, in the order --help lists them.
    """

    def register(handler):
        COMMANDS[name] = (help_text, flags, handler)
        return handler

    return register


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stablegons",
        description="moduli of polygons, stable polygons, and their Betti numbers",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for key in flags:
            option, keywords = FLAGS[key]
            sp.add_argument(option, **keywords)
    return p


def _options(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}


def _frame(args, r, tol):
    """The closed frame of r, degenerate along the classes of --parallel."""
    from . import realize

    if args.parallel:
        classes = [parse_labels(chunk, "--parallel") for chunk in args.parallel.split("|")]
        return realize.close_degenerate(r, classes, seed=args.seed, tol=tol.closure)
    return realize.close(r, seed=args.seed, tol=tol.closure)


def _bubble_tree(args):
    """(stable polygon, tolerances) over the frame of `stabilize` and `curve`."""
    from . import stable

    tol = parse_tols(args.tol)
    r = parse_lengths(args.r)
    eps = parse_eps(args.eps, r)
    return stable.stabilize(_frame(args, r, tol), eps, filler=args.seed, tol=tol), tol


@command("classify", "exact chamber report", "r")
def _classify(args):
    return classify(parse_lengths(args.r)).to_json()


@command("realize", "close a polygon and fix its gauge", "r", "seed", "tol", "parallel")
def _realize(args):
    from . import realize

    tol = parse_tols(args.tol)
    frame = _frame(args, parse_lengths(args.r), tol)
    return realize.canonicalize(frame, tol.angle).to_json()


@command("stabilize", "bubble tree over a closed frame", "r", "seed", "eps", "tol", "parallel")
def _stabilize(args):
    return _bubble_tree(args)[0].to_json()


@command("limit", "bubble limit of a degenerating family", "r", "seed", "eps", "J", "tol", "steps")
def _limit(args):
    from . import stable

    tol = parse_tols(args.tol)
    r = parse_lengths(args.r)
    J = parse_subset(args.J)
    eps = parse_eps(args.eps, r)
    frames = _interpolating_family(r, J, args.seed, _count(args.steps, "--steps"))
    return stable.limit(frames, J, eps.get(J), tol=tol).to_json()


@command("curve", "combinatorial stable curve of a stable polygon",
         "r", "seed", "eps", "tol", "out", "parallel")
def _curve(args):
    from . import stable

    sp, tol = _bubble_tree(args)
    curve = stable.to_stable_curve(sp, tol)
    return curve.to_dot() if args.out == "dot" else curve.to_json()


@command("strata", "parallel-edge strata and their poset", "r", "include_empty")
def _strata(args):
    from . import cohomology

    entries, edges = cohomology.strata(parse_lengths(args.r), include_empty=args.include_empty)
    return {
        "strata": [e.to_json() for e in entries],
        "poset_edges": [[[list(b) for b in a], [list(b) for b in c]] for a, c in edges],
    }


@command("schedule", "resolution and blowup schedule", "r", "eps", "out")
def _schedule(args):
    from . import cohomology

    r = parse_lengths(args.r)
    steps = cohomology.schedule(r, parse_eps(args.eps, r))
    return _schedule_dot(steps) if args.out == "dot" else [s.to_json() for s in steps]


@command("poincare", "Poincare polynomial, three methods",
         "poincare_r", "poincare_n", "method", "poincare_eps")
def _poincare(args):
    from . import cohomology

    if args.method == "closed":
        if args.n is None and not args.r:
            raise InvalidArgument("--n or --r is required for the closed method")
        n = args.n if args.n is not None else parse_lengths(args.r).n
        poly = (cohomology.poincare_center if n % 2 == 1 else cohomology.ih_poincare_center)(n)
    elif not args.r:
        raise InvalidArgument(f"--r is required for the {args.method} method")
    elif args.method == "wallcross":
        poly = cohomology.poincare_wall_crossing(parse_lengths(args.r))
    else:
        r = parse_lengths(args.r)
        poly = cohomology.stable_betti(r, parse_eps(args.eps, r))
    return {"coefficients": poly.to_json()}


@command("cone", "sample the (r, eps) parameter cone", "n", "sample", "seed")
def _cone(args):
    from . import cone

    sample = range(_count(args.sample, "--sample"))
    points = [cone.param_sample(args.n, seed=args.seed + i) for i in sample]
    dim = cone.param_dim(args.n)
    ok = all(p.r.n + len(p.eps.eps) == dim and cone.param_contains(p) for p in points)
    return {"param_dim": dim, "dimension_check": ok, "points": [p.to_json() for p in points]}


def run(args) -> int:
    result = COMMANDS[args.command][2](args)
    if isinstance(result, str):  # a --out dot drawing, written as it is
        sys.stdout.write(result + "\n")
    else:
        emit(args.command, _options(args), result)
    return 0


def _interpolating_family(r, J, seed, steps):
    """Seeded path of frames swinging the J-edges toward a common direction.

    Each J-edge turns about its own seeded axis by the Rodrigues formula; the
    cross and dot products with the base rows are formed once for all J rows.
    """
    import numpy as np

    from . import realize

    base = realize.close_degenerate(r, [J], seed=seed)
    rng = np.random.default_rng(seed + 1)
    axes = np.array([a / realize._norm(a) for a in rng.normal(size=(len(J), 3))])
    idx = [j - 1 for j in J]
    v = base.u[idx]
    swing = axes[:, [1, 2, 0]] * v[:, [2, 0, 1]] - axes[:, [2, 0, 1]] * v[:, [1, 2, 0]]
    # a stack of 1x3 @ 3x1 products runs np.dot's kernel, so they round alike
    along = axes * (axes[:, None, :] @ v[:, :, None])[:, 0]
    frames = []
    for t in np.linspace(0.85, 0.0, steps):
        angle = 0.9 * float(t)
        u = base.u.copy()
        u[idx] = v * np.cos(angle) + swing * np.sin(angle) + along * (1 - np.cos(angle))
        frames.append(realize.close(r, hints=u))
    return frames


def _schedule_dot(steps) -> str:
    lines = ["digraph schedule {", "  rankdir=LR;"]
    names = []
    for i, s in enumerate(steps):
        label = f"{s.kind} {list(s.center)} codim {s.codim}"
        shape = "box" if s.nontrivial else "ellipse"
        names.append(f"s{i}")
        lines.append(f'  s{i} [label="{label}", shape={shape}];')
    for a, b in zip(names, names[1:]):
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(args)
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
