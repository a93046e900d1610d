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

import numpy as np

from . import cohomology, cone, realize, stable
from .chambers import EpsilonAssignment, LengthVector, classify, rational
from .errors import InvalidArgument, NonConvergence
from .realize import Tolerances


def parse_lengths(text: str) -> LengthVector:
    try:
        return LengthVector(rational(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgument(f"cannot parse --r {text!r}: {exc}") from None


def parse_subset(text: str):
    try:
        J = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidArgument(f"cannot parse --J {text!r}: {exc}") from None
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
            entries[tuple(int(t) for t in key.split(","))] = rational(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidArgument(f"cannot parse --eps chunk {chunk!r}: {exc}") from None
    return EpsilonAssignment(entries)


def parse_tols(pairs) -> Tolerances:
    tol = Tolerances()
    for item in pairs or []:
        try:
            name, val = item.split("=")
            tol = tol.with_overrides(**{name: float(val)})
        except (ValueError, TypeError) as exc:
            raise InvalidArgument(f"cannot parse --tol {item!r}: {exc}") from None
    return tol


def parse_classes(text):
    if not text:
        return []
    return [tuple(int(t) for t in chunk.split(",")) for chunk in text.split("|")]


def emit(command: str, options: dict, result, out=None):
    out = out if out is not None else sys.stdout
    doc = {"command": command, "options": options, "result": result}
    json.dump(doc, out, sort_keys=True, indent=2)
    out.write("\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stablegons",
        description="moduli of polygons, stable polygons, and their Betti numbers",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, r=True, seed=False, eps=False, J=False, out_dot=False):
        if r:
            sp.add_argument("--r", required=True, help="comma-separated rationals")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if eps:
            sp.add_argument("--eps", default="canonical", help='"canonical" or "1,2=1/2;..."')
        if J:
            sp.add_argument("--J", required=True, help="comma-separated 1-based labels")
        sp.add_argument("--tol", action="append", metavar="NAME=VALUE")
        if out_dot:
            sp.add_argument("--out", choices=["json", "dot"], default="json")

    common(sub.add_parser("classify", help="exact chamber report"))

    sp = sub.add_parser("realize", help="close a polygon and fix its gauge")
    common(sp, seed=True)
    sp.add_argument("--parallel", help='force classes, e.g. "1,2,3|4,5"')

    sp = sub.add_parser("stabilize", help="bubble tree over a closed frame")
    common(sp, seed=True, eps=True)
    sp.add_argument("--parallel", help='force classes, e.g. "1,2,3|4,5"')

    sp = sub.add_parser("limit", help="bubble limit of a degenerating family")
    common(sp, seed=True, eps=True, J=True)
    sp.add_argument("--steps", type=int, default=12)

    sp = sub.add_parser("curve", help="combinatorial stable curve of a stable polygon")
    common(sp, seed=True, eps=True, out_dot=True)
    sp.add_argument("--parallel", help='force classes, e.g. "1,2,3|4,5"')

    sp = sub.add_parser("strata", help="parallel-edge strata and their poset")
    common(sp)
    sp.add_argument("--include-empty", action="store_true")

    sp = sub.add_parser("schedule", help="resolution and blowup schedule")
    common(sp, eps=True, out_dot=True)

    sp = sub.add_parser("poincare", help="Poincare polynomial, three methods")
    sp.add_argument("--r", help="comma-separated rationals")
    sp.add_argument("--n", type=int, help="edge count (closed method)")
    sp.add_argument("--method", choices=["wallcross", "closed", "stable"], default="wallcross")
    sp.add_argument("--eps", default="canonical")
    sp.add_argument("--tol", action="append", metavar="NAME=VALUE")

    sp = sub.add_parser("cone", help="sample the (r, eps) parameter cone")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sample", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", action="append", metavar="NAME=VALUE")

    return p


def _options(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}


def _degenerate_or_close(r, classes, seed, tol):
    if classes:
        return realize.close_degenerate(r, classes, seed=seed, tol=tol.closure)
    return realize.close(r, seed=seed, tol=tol.closure)


def run(args) -> int:
    tol = parse_tols(getattr(args, "tol", None))
    cmd = args.command

    if cmd == "classify":
        r = parse_lengths(args.r)
        emit(cmd, _options(args), classify(r).to_json())

    elif cmd == "realize":
        r = parse_lengths(args.r)
        frame = _degenerate_or_close(r, parse_classes(args.parallel), args.seed, tol)
        frame = realize.canonicalize(frame, tol.angle)
        emit(cmd, _options(args), frame.to_json())

    elif cmd == "stabilize":
        r = parse_lengths(args.r)
        eps = parse_eps(args.eps, r)
        frame = _degenerate_or_close(r, parse_classes(args.parallel), args.seed, tol)
        sp = stable.stabilize(frame, eps, filler=args.seed, tol=tol)
        emit(cmd, _options(args), sp.to_json())

    elif cmd == "limit":
        r = parse_lengths(args.r)
        J = parse_subset(args.J)
        eps = parse_eps(args.eps, r)
        frames = _interpolating_family(r, J, args.seed, args.steps)
        bub = stable.limit(frames, J, eps.get(J), tol=tol)
        emit(cmd, _options(args), bub.to_json())

    elif cmd == "curve":
        r = parse_lengths(args.r)
        eps = parse_eps(args.eps, r)
        frame = _degenerate_or_close(r, parse_classes(args.parallel), args.seed, tol)
        sp = stable.stabilize(frame, eps, filler=args.seed, tol=tol)
        curve = stable.to_stable_curve(sp, tol)
        if args.out == "dot":
            sys.stdout.write(curve.to_dot() + "\n")
        else:
            emit(cmd, _options(args), curve.to_json())

    elif cmd == "strata":
        r = parse_lengths(args.r)
        entries, edges = cohomology.strata(r, include_empty=args.include_empty)
        emit(
            cmd,
            _options(args),
            {
                "strata": [e.to_json() for e in entries],
                "poset_edges": [
                    [[list(b) for b in a], [list(b) for b in c]] for a, c in edges
                ],
            },
        )

    elif cmd == "schedule":
        r = parse_lengths(args.r)
        eps = parse_eps(args.eps, r)
        steps = cohomology.schedule(r, eps)
        if args.out == "dot":
            sys.stdout.write(_schedule_dot(steps) + "\n")
        else:
            emit(cmd, _options(args), [s.to_json() for s in steps])

    elif cmd == "poincare":
        if args.method == "closed":
            n = args.n if args.n else parse_lengths(args.r).n
            poly = (
                cohomology.poincare_center(n)
                if n % 2 == 1
                else cohomology.ih_poincare_center(n)
            )
        elif args.method == "wallcross":
            if not args.r:
                raise InvalidArgument("--r is required for the wallcross method")
            poly = cohomology.poincare_wall_crossing(parse_lengths(args.r))
        else:
            if not args.r:
                raise InvalidArgument("--r is required for the stable method")
            r = parse_lengths(args.r)
            poly = cohomology.stable_betti(r, parse_eps(args.eps, r))
        emit(cmd, _options(args), {"coefficients": poly.to_json()})

    elif cmd == "cone":
        points = [cone.param_sample(args.n, seed=args.seed + i) for i in range(args.sample)]
        ok = all(
            p.r.n + len(p.eps.eps) == cone.param_dim(args.n) and cone.param_contains(p)
            for p in points
        )
        emit(
            cmd,
            _options(args),
            {
                "param_dim": cone.param_dim(args.n),
                "dimension_check": ok,
                "points": [p.to_json() for p in points],
            },
        )

    else:  # pragma: no cover
        raise InvalidArgument(f"unknown command {cmd!r}")
    return 0


def _interpolating_family(r, J, seed, steps):
    """Seeded path of frames swinging the J-edges toward a common direction.

    Each J-edge turns about its own seeded axis by the Rodrigues formula; the
    cross and dot products with the base rows are formed once for all J rows.
    """
    base = realize.close_degenerate(r, [J], seed=seed)
    rng = np.random.default_rng(seed + 1)
    axes = np.array([a / np.linalg.norm(a) for a in rng.normal(size=(len(J), 3))])
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
