"""Command-line front end.

Subcommands:
    coeffs     linear coefficients of a cloud (CSV file or generated)
    transform  apply a 2x2 matrix; closed-form vs direct recomputation
    invariant  kernel values before/after a family member or a matrix
    simulate   the four standard transformations on a generated cloud

Each command builds one report dict, which ``main`` heads with the schema and
the command name.  ``--json`` prints it as sorted, indented JSON; the text
form prints one ``key  value`` line per leaf, in the report's order, with a
dotted key (``cases[0].after.m``) and the leaf as JSON.  A non-finite number
is an error in either form.

Exit codes: 0 success, 2 input/validation error (a usage error, a cloud too
large for memory, a cloud whose spread is lost to rounding, or an unwritable
--dump-points file or stdout included), 3 degenerate image, 4 degenerate
generator (every function invariant).  A table in ``main`` decides the code of
each error it reports, 2 where no row matches.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .cloudgen import KINDS, CloudGenSpec, generate_cloud
from .coefficients import (_QUOTE, Cloud, LinearCoefficients, Scatter, _exact,
                           _parse_floats, _ratio, is_collinear, linear_coefficients,
                           raw_sums, read_cloud_csv, write_cloud_csv)
from .errors import CloudInvError, DegenerateGenerator, DegenerateImage
from .families import (DIAGONAL, UPPER_TRIANGULAR, LinearFamily,
                       RotationFamily, generator_for_matrix,
                       kernel_value, parse_family)
from .generators import FamilyGenerator
from .transform import (Matrix2, apply_to_cloud, induced_coefficients,
                        parse_matrix)

SCHEMA = "cloud-invariants/1"

# The four standard demonstration transformations: matrix and the
# one-parameter family it belongs to.  The diagonal case also reports H/M^2.
_SIMULATION_CASES = (
    ("diagonal", DIAGONAL.evaluate(2.0), DIAGONAL),
    ("upper-triangular", Matrix2(1.0, 0.7, 0.0, 1.0), UPPER_TRIANGULAR),
    ("rotation-pi/3", RotationFamily().evaluate(math.pi / 3.0), RotationFamily()),
    ("general", Matrix2(0.4, -0.4, -0.05, 0.9),
     LinearFamily((-2.0, -2.0, -0.25, 0.5), (12.0, 8.0, 1.0, 2.0))),
)


def _resolve_coefficients(
        args: argparse.Namespace) -> tuple[Scatter, Optional[Cloud], dict]:
    """(coefficients, cloud or None, inputs echo) of --coeffs, --csv or --gen."""
    given = {k: getattr(args, k) for k in ("n", "noise", "seed")
             if getattr(args, k) is not None}
    if given and args.gen is None:
        raise ValueError(f"--{next(iter(given))} needs --gen")
    if args.coeffs is not None:
        lc = LinearCoefficients(*_parse_floats(
            args.coeffs, 2, "expected finite --coeffs M,H: "))
        return lc, None, {"source": "coeffs", "m": lc.m, "h": lc.h}
    if args.csv is not None:
        try:
            cloud = read_cloud_csv(args.csv)
        except OSError as exc:
            raise ValueError(f"cannot read {args.csv}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"bad CSV {args.csv}: {exc}") from exc
        echo = {"source": "csv", "path": args.csv, "n": len(cloud)}
    else:
        spec = CloudGenSpec(args.gen, **{"n": 1000, "noise": 0.05, "seed": 0, **given})
        cloud = generate_cloud(spec)
        echo = {"source": "generated", "kind": spec.kind, "n": spec.n,
                "noise": spec.noise, "seed": spec.seed}
    return linear_coefficients(cloud), cloud, echo


def _evaluation(matrix: Matrix2, spec: FamilyGenerator, lc: Scatter) -> dict:
    """The image of lc under matrix and the kernel of spec before and after;
    for a diagonal direction (b' = g' = 0) also H/M^2 before and after."""
    after = induced_coefficients(matrix, lc)
    before_kernel = kernel_value(spec, lc.m, lc.h)
    after_kernel = kernel_value(spec, after.m, after.h)
    entry = {
        "after": {"m": after.m, "h": after.h},
        "kernel_before": before_kernel,
        "kernel_after": after_kernel,
        "drift": {"abs": abs(after_kernel - before_kernel)},
    }
    if spec.bprime == spec.gprime == 0.0:
        for key, at in (("before", lc), ("after", after)):
            (h, m), q = _exact(at.h, at.m)
            entry[f"h_over_m2_{key}"] = _ratio(h * q, m * m)
    return entry


def _direct(matrix: Matrix2, cloud: Cloud, closed: dict) -> tuple[Cloud, dict, float]:
    """The image of a cloud under matrix, the image's chart point from its
    points, and that point's largest |dM|, |dH| from the closed form's."""
    image = apply_to_cloud(matrix, cloud)
    direct = linear_coefficients(image)
    return image, {"m": direct.m, "h": direct.h}, max(
        abs(direct.m - closed["m"]), abs(direct.h - closed["h"]))


def _flatten(node: object, key: str = ""):
    """(dotted key, leaf) for each leaf of a report, in its order.  Items of
    a list of dicts are indexed; any other list is one leaf."""
    if isinstance(node, dict):
        for name, value in node.items():
            yield from _flatten(value, f"{key}.{name}" if key else name)
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        for i, value in enumerate(node):
            yield from _flatten(value, f"{key}[{i}]")
    else:
        yield key, node


def _emit(report: dict, as_json: bool) -> None:
    """Print a report as JSON or as text; nothing is printed if a number in
    it is not finite (ValueError naming the first such key).  A stdout that
    cannot be written (its reader gone, its disk full) is a ValueError too."""
    leaves = [*_flatten(report)]
    for key, leaf in leaves:
        if isinstance(leaf, float) and not math.isfinite(leaf):
            raise ValueError(f"report value {key} is not finite: {leaf}")
    if as_json:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    else:
        rows = [(key, json.dumps(leaf, allow_nan=False)) for key, leaf in leaves]
        width = max(len(key) for key, _ in rows)
        text = "\n".join(f"{key:{width}}  {value}" for key, value in rows)
    try:
        print(text, flush=True)
    except OSError as exc:
        # What is still buffered, and the flush at exit, go to the null
        # device instead of failing again.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ValueError(f"cannot write stdout: {exc}") from None


# ---------------------------------------------------------------- commands


def _cmd_coeffs(args: argparse.Namespace) -> dict:
    lc, cloud, echo = _resolve_coefficients(args)
    rs = raw_sums(cloud)
    return {
        "inputs": echo,
        "raw_sums": {"mn": rs.mn, "hn": rs.hn, "d": rs.d},
        "coefficients": {"m": lc.m, "h": lc.h},
        "collinear": is_collinear(cloud),
    }


def _cmd_transform(args: argparse.Namespace) -> dict:
    matrix = parse_matrix(args.matrix)
    lc, cloud, echo = _resolve_coefficients(args)
    after_closed = induced_coefficients(matrix, lc)
    report = {
        "inputs": {**echo, "matrix": list(matrix.entries())},
        "before": {"m": lc.m, "h": lc.h},
        "after_closed_form": {"m": after_closed.m, "h": after_closed.h},
    }
    if cloud is not None:
        image, report["after_direct"], report["discrepancy"] = _direct(
            matrix, cloud, report["after_closed_form"])
        if args.dump_points:
            try:
                write_cloud_csv(image, args.dump_points)
            except OSError as exc:
                raise ValueError(f"cannot write {args.dump_points}: {exc}") from exc
            report["dumped_points"] = args.dump_points
    elif args.dump_points:
        raise ValueError("--dump-points needs a cloud source, not --coeffs")
    return report


def _cmd_invariant(args: argparse.Namespace) -> dict:
    if args.family is None and args.phi is not None:
        raise ValueError("--phi needs --family")
    lc, _, echo = _resolve_coefficients(args)
    if args.family is None:
        matrix = parse_matrix(args.matrix)
        spec = generator_for_matrix(matrix)
        inputs = {**echo, "matrix": list(matrix.entries())}
        kernels = _evaluation(matrix, spec, lc)
    else:
        family = parse_family(args.family)
        phis = None if args.phi is None else _parse_floats(args.phi, None,
                                                           "bad --phi list: ")
        spec = family.derivative_coefficients()
        if phis is None:
            phis = [family.identity_parameter()]
        inputs = {**echo, "family": args.family, "phi": phis}
        kernels = {"kernel_before": kernel_value(spec, lc.m, lc.h)}
        kernels["evaluations"] = [
            {"phi": phi, **_evaluation(family.evaluate(phi), spec, lc)}
            for phi in phis]
    return {
        "inputs": inputs,
        "spec": {"bprime": spec.bprime, "gprime": spec.gprime,
                 "delta": spec.delta},
        "before": {"m": lc.m, "h": lc.h},
        **kernels,
    }


def _cmd_simulate(args: argparse.Namespace) -> dict:
    lc, cloud, echo = _resolve_coefficients(args)
    cases = []
    for name, matrix, family in _SIMULATION_CASES:
        spec = family.derivative_coefficients()
        case = {"name": name, "matrix": list(matrix.entries()),
                **_evaluation(matrix, spec, lc)}
        if cloud is not None:
            _, case["after_direct"], case["closed_vs_direct"] = _direct(
                matrix, cloud, case["after"])
        cases.append(case)
    return {
        "inputs": echo,
        "before": {"m": lc.m, "h": lc.h},
        "cases": cases,
    }


# ------------------------------------------------------------------ driver


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main() reports it as one error line
        # argparse writes a bad value back whole: a long message is cut to
        # head ... tail as a quoted value is, without the repr's quotes.
        if len(message) > _QUOTE.maxstring:
            message = _QUOTE.repr(message)[1:-1]
        raise ValueError(message)


# Name, handler and help of each subcommand; all but coeffs take --coeffs.
_COMMANDS = (
    ("coeffs", _cmd_coeffs, "linear coefficients of a cloud"),
    ("transform", _cmd_transform, "apply a 2x2 matrix to a cloud"),
    ("invariant", _cmd_invariant, "evaluate an invariant kernel"),
    ("simulate", _cmd_simulate, "run the four standard transformations"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cloudinv",
        description="Linear-transformation invariants of planar point clouds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, help_line in _COMMANDS:
        p = commands[name] = sub.add_parser(name, help=help_line)
        src = p.add_argument_group("cloud source")
        one = src.add_mutually_exclusive_group(required=True)
        one.add_argument("--csv", metavar="FILE", help="read cloud from CSV file")
        one.add_argument("--gen", metavar="KIND", choices=KINDS,
                         help=f"generate a cloud; one of {', '.join(KINDS)}")
        src.add_argument("--n", type=int, help="generated point count (default 1000)")
        src.add_argument("--noise", type=float,
                         help="generator noise amplitude (default 0.05)")
        src.add_argument("--seed", type=int, help="RNG seed (default 0)")
        if name != "coeffs":
            one.add_argument("--coeffs", metavar="M,H",
                             help="bypass the cloud: supply raw coefficients")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func, coeffs=None)

    p = commands["transform"]
    p.add_argument("--matrix", required=True, metavar="a,b;c,d",
                   help="matrix literal (rows separated by ';')")
    p.add_argument("--dump-points", metavar="FILE",
                   help="write the transformed cloud as CSV")

    p = commands["invariant"]
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--family", metavar="LIT",
                        help="family literal: diag|upper|lower|rot|linear:A0|B")
    p.add_argument("--phi", metavar="LIST", help="comma-separated parameter values")
    target.add_argument("--matrix", metavar="a,b;c,d",
                        help="arbitrary invertible matrix instead of a family")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _emit({"schema": SCHEMA, "command": args.command, **args.func(args)},
              args.json)
        return 0
    except (CloudInvError, ValueError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):
            message = f"out of memory: {message or 'allocation failed'}"
        print(f"error: {message}", file=sys.stderr)
        codes = ((DegenerateImage, 3), (DegenerateGenerator, 4))
        return next((code for kind, code in codes if isinstance(exc, kind)), 2)


if __name__ == "__main__":
    sys.exit(main())
