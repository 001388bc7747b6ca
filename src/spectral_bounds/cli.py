"""Command-line front end for the verification pipelines.

Every subcommand renders one flat table, as CSV (header always present) or
JSON, with floats at 12 significant digits. A handler returns a dict for a
one-row report, which JSON prints as a bare object, or a list of rows for a
sweep, which JSON prints as an array even when it holds one row. Identical
invocations produce byte-identical output: field order is each handler's
row order, solver seeds are fixed, and a suite runs its lines one after
another in file order.

Each invocation computes every (domain, level) Neumann eigenpair and
rearranged profile at most once, in one bounds.SharedSolves memo that
dispatch hands to the handler: the caller's, or a fresh one dropped when
dispatch returns. The memo keeps no mesh; a new key rebuilds the mesh of
its level. A suite makes one memo and hands it to every line. The
argument parser is built once per process.

The closed-form subcommands psi and bound load numpy and nothing from
scipy. The others load scipy.sparse.linalg when they first need it: the
FEM layer at a memo's first Neumann solve (compare-bounds, verify-rhombus,
chiti, rholder), sturm1d at the first sturm line.

Exit codes: 0 success, 1 numeric failure (a verified inequality broke, an
iteration stalled, a factorization met an exactly singular pivot, numpy
arithmetic overflowed or went invalid, or a value came out non-finite), 2
usage error (bad flags, unknown domain class, out-of-scope parameter
combinations, an --out file that cannot be written). Every failure is
reported on one line of the error stream.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import shlex
import sys
from pathlib import Path

import numpy as np

from . import bounds, geometry, rearrangement, special
from .errors import NumericError, ParameterError

_FEM_P_RULE = "FEM mu1 unavailable for p != 2 (discrete solver is linear only)"
_LEVEL_HELP = (f"refinement level; a mesh past {geometry.MAX_ELEMENTS} "
               "elements is refused")
_Q_HELP = f"exponent in (0, {special.Q_MAX:g}]"
_LENGTH_RANGE = f"in [{geometry.MIN_LENGTH:g}, {geometry.MAX_LENGTH:g}]"
_M_RANGE = f"in [5, {geometry.MAX_RHOMBUS_M}]"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_ready(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def emit_table(table, fmt: str) -> str:
    """Render a table as CSV or JSON text.

    A dict is one row, which JSON renders as a bare object; a list of row
    dicts is a sweep, which JSON renders as an array. The columns are the
    first row's keys in insertion order. A non-finite float in any row is a
    NumericError, so it is never printed.
    """
    import json

    rows = [table] if isinstance(table, dict) else table
    fieldnames = list(rows[0])
    for row in rows:
        for name, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericError(f"non-finite {name} = {value}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])
        return buf.getvalue()
    if fmt != "json":
        raise ParameterError(f"unknown format {fmt!r}")
    payload = [{name: _json_ready(row[name]) for name in fieldnames}
               for row in rows]
    obj = payload[0] if isinstance(table, dict) else payload
    return json.dumps(obj, indent=2) + "\n"


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite: {text!r}")
    return value


def _list_of(kind):
    """argparse type: a comma-separated list of ``kind`` values, empty
    items skipped; a list with no value is refused."""
    def parse(text: str) -> list:
        values = [kind(part) for part in text.split(",") if part != ""]
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected at least one value, got {text!r}")
        return values

    parse.__name__ = f"{kind.__name__} list"
    return parse


# the size flags, in --help order: name, argparse type, help
_SIZE_FLAGS = (
    ("m", int, f"rhombus angle parameter, {_M_RANGE}"),
    ("a", _finite_float, f"rectangle long side, {_LENGTH_RANGE}"),
    ("b", _finite_float, f"rectangle short side, {_LENGTH_RANGE}"),
    ("k", int, f"polygon vertex count, at most {geometry.MAX_ELEMENTS}"),
    ("radius", _finite_float, f"polygon circumradius, {_LENGTH_RANGE}"),
)

# each --domain: the size flags it takes, those it needs, and its spec
# built from the parsed flags
_DOMAINS = {
    "square": ((), (), lambda args: geometry.make_rectangle(1.0, 1.0)),
    "rectangle": (("a", "b"), ("a", "b"),
                  lambda args: geometry.make_rectangle(args.a, args.b)),
    "rhombus": (("m",), ("m",), lambda args: geometry.make_rhombus(args.m)),
    "polygon": (("k", "radius"), ("k",),
                lambda args: geometry.make_regular_polygon(
                    args.k, 1.0 if args.radius is None else args.radius)),
}


def _spec_from_args(args) -> geometry.DomainSpec:
    takes, needs, build = _DOMAINS[args.domain]
    stray = [f"--{name}" for name, _, _ in _SIZE_FLAGS
             if getattr(args, name) is not None and name not in takes]
    if stray:
        raise ParameterError(
            f"{args.domain} does not take {', '.join(stray)}")
    if any(getattr(args, name) is None for name in needs):
        raise ParameterError(f"{args.domain} needs "
                             + " and ".join(f"--{name}" for name in needs))
    return build(args)


def _add_domain_flags(sub) -> None:
    sub.add_argument("--domain", required=True, choices=list(_DOMAINS))
    for name, kind, text in _SIZE_FLAGS:
        sub.add_argument(f"--{name}", type=kind, help=text)


def _add_output_flags(sub, default_format: str) -> None:
    sub.add_argument("--format", choices=["json", "csv"], default=default_format)
    sub.add_argument("--out", dest="out_path", default=None,
                     help="write the table to this file instead of stdout")


def _ball_comparison(args, solves):
    """(spec, oriented profile, comparison ball) of the p = 2 Neumann
    eigenfunction of the domain at args.level."""
    spec = _spec_from_args(args)
    mu1 = solves.neumann(spec, args.level).value
    profile = solves.profile(spec, args.level)
    ball = rearrangement.dirichlet_ball_profile(
        2.0, 2, bounds.kn_lookup(spec).value, mu1)
    return spec, profile, ball


def _require_p2(p: float) -> None:
    if p != 2.0:
        raise ParameterError(_FEM_P_RULE)


def _cmd_psi(args, _solves):
    rows = []
    for p in args.p:
        for n in args.n:
            zero = special.psi_profile(p, n).first_zero
            rows.append({"p": p, "n": n, "psi": zero, "psi_p": zero ** p})
    return rows


def _cmd_bound(args, _solves):
    spec = _spec_from_args(args)
    entry = bounds.kn_lookup(spec)
    return {
        "domain": spec.label, "p": args.p, "n": 2,
        "k_value": entry.value, "rule": entry.rule,
        "area": spec.area, "width": spec.width, "diameter": spec.diameter,
        **bounds.lower_bounds(spec, args.p),
    }


def _cmd_compare_bounds(args, solves):
    _require_p2(args.p)
    spec = _spec_from_args(args)
    # a domain without an isoperimetric constant is refused before any solve
    bounds.kn_lookup(spec)
    mu1 = solves.mu1(spec, args.level)
    return [{"domain": spec.label, "p": args.p, "n": 2, "mu1": mu1,
             "bound": name, "value": value, "ratio": value / mu1}
            for name, value in bounds.compare_report(spec, mu1).items()]


def _cmd_verify_rhombus(args, solves):
    rows = []
    for m in args.m:
        spec = geometry.make_rhombus(m)
        mu1 = solves.mu1(spec, args.level)
        sample = bounds.rhombus_sharpness(spec, mu1)
        rows.append({
            "m": m, "level": args.level, "mu1": mu1,
            "r_m": sample.ratio, "dn_lower": sample.lower,
            "dn_upper": sample.upper, "dn_ok": sample.ok,
        })
    return rows


def _cmd_chiti(args, solves):
    _require_p2(args.p)
    special.check_exponent(args.q)
    spec, profile, ball = _ball_comparison(args, solves)
    report = rearrangement.chiti_check(profile, ball, args.q)
    return {
        "domain": spec.label, "p": args.p, "q": args.q,
        "lhs": report.lhs, "rhs": report.rhs,
        "max_violation": report.max_violation, "mesh_level": args.level,
        "s_at_max": report.s_at_max, "comparison_measure": ball.measure,
        "positive_measure": profile.positive_measure,
        "lemma_violated": report.lemma_violated, "margin": report.margin,
    }


def _cmd_rholder(args, solves):
    _require_p2(args.p)
    if not (0.0 < args.r < args.q):
        raise ParameterError(f"need 0 < r < q, got r={args.r}, q={args.q}")
    special.check_exponent(args.q)
    spec, profile, ball = _ball_comparison(args, solves)
    report = rearrangement.reverse_holder_check(profile, ball, q=args.q,
                                                r=args.r)
    return {
        "domain": spec.label, "p": args.p, "q": args.q, "r": args.r,
        "lhs": report.lhs, "rhs": report.rhs,
        "max_violation": max(0.0, report.lhs - report.rhs),
        "mesh_level": args.level,
        "constant": report.constant, "ok": report.ok,
    }


def _cmd_sturm(args, _solves):
    # sturm1d loads scipy.sparse.linalg, which no other handler here needs
    from . import sturm1d

    problem = sturm1d.SturmProblem(gamma=args.gamma, beta=args.beta,
                                   length=args.A, n_cells=args.N)
    solution = sturm1d.solve(problem)
    return {
        "gamma": args.gamma, "beta": args.beta, "a": args.A, "n_cells": args.N,
        "sigma1": solution.sigma,
        "hardy_lower_bound": problem.hardy_lower_bound,
        "iterations": solution.iterations,
    }


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ParameterError instead of printing the usage
    and exiting, so that dispatch reports it on one line of its err stream."""

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectral-bounds",
        description="Verification pipelines for Neumann eigenvalue lower bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("psi", help="first zeros of the radial profiles")
    sub.set_defaults(handler=_cmd_psi)
    sub.add_argument("--p", default="2", type=_list_of(_finite_float),
                     help=f"comma-separated exponents, each in "
                     f"[2, {special.P_MAX:g}]")
    sub.add_argument("--n", default="2", type=_list_of(int),
                     help=f"comma-separated dimensions, each in "
                     f"[2, {special.N_MAX}]")
    _add_output_flags(sub, "csv")

    sub = subs.add_parser("bound", help="closed-form lower bounds, no FEM")
    sub.set_defaults(handler=_cmd_bound)
    _add_domain_flags(sub)
    sub.add_argument("--p", type=_finite_float, default=2.0,
                     help=f"exponent in [2, {special.P_MAX:g}]")
    _add_output_flags(sub, "json")

    sub = subs.add_parser("compare-bounds",
                          help="all bounds against the FEM eigenvalue")
    sub.set_defaults(handler=_cmd_compare_bounds)
    _add_domain_flags(sub)
    sub.add_argument("--p", type=_finite_float, default=2.0)
    sub.add_argument("--level", type=int, default=5, help=_LEVEL_HELP)
    _add_output_flags(sub, "json")

    sub = subs.add_parser("verify-rhombus",
                          help="sharpness ratio table for degenerating rhombi")
    sub.set_defaults(handler=_cmd_verify_rhombus)
    sub.add_argument("--m", default="8,16,32,64", type=_list_of(int),
                     help=f"comma-separated angle parameters, each {_M_RANGE}")
    sub.add_argument("--level", type=int, default=5, help=_LEVEL_HELP)
    _add_output_flags(sub, "json")

    sub = subs.add_parser("chiti", help="cumulative-power domination check")
    sub.set_defaults(handler=_cmd_chiti)
    _add_domain_flags(sub)
    sub.add_argument("--p", type=_finite_float, default=2.0)
    sub.add_argument("--q", type=_finite_float, default=2.0, help=_Q_HELP)
    sub.add_argument("--level", type=int, default=5, help=_LEVEL_HELP)
    _add_output_flags(sub, "json")

    sub = subs.add_parser("rholder", help="reverse Holder norm check")
    sub.set_defaults(handler=_cmd_rholder)
    _add_domain_flags(sub)
    sub.add_argument("--p", type=_finite_float, default=2.0)
    sub.add_argument("--q", type=_finite_float, default=2.0, help=_Q_HELP)
    sub.add_argument("--r", type=_finite_float, default=1.0,
                     help="exponent in (0, q)")
    sub.add_argument("--level", type=int, default=5, help=_LEVEL_HELP)
    _add_output_flags(sub, "json")

    sub = subs.add_parser("sturm", help="singular Sturm-Liouville eigenvalue")
    sub.set_defaults(handler=_cmd_sturm)
    sub.add_argument("--gamma", type=_finite_float, required=True)
    sub.add_argument("--beta", type=_finite_float, required=True)
    sub.add_argument("--A", type=_finite_float, required=True,
                     help=f"interval length, {_LENGTH_RANGE}")
    sub.add_argument("--N", type=int, default=4096,
                     help=f"cell count, 4 to {geometry.MAX_CELLS} "
                     f"(at most {geometry.MAX_LINEAR_CELLS} at gamma 2)")
    _add_output_flags(sub, "json")

    sub = subs.add_parser("suite", help="run one subcommand per file line")
    sub.add_argument("path", help="suite file; blank lines and # comments skipped")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged, so
    # every dispatch, suite lines included, shares it
    return build_parser()


def dispatch(argv, out=None, err=None, solves=None) -> int:
    """Parse argv, run one subcommand, write its table, return the exit code.

    The subcommand computes its (domain, level) stages in solves, the
    caller's bounds.SharedSolves (run_suite passes one to all its lines),
    or without it in a fresh memo that is dropped when dispatch returns; a
    suite argv makes its own. --help text goes to out, like a table.
    """
    stream = out if out is not None else sys.stdout
    errstream = err if err is not None else sys.stderr
    try:
        # argparse prints --help to sys.stdout, then exits the parser
        with contextlib.redirect_stdout(stream):
            args = _parser().parse_args(argv)
        if args.command == "suite":
            return run_suite(args.path, out=stream, err=errstream)
        # overflow or an invalid operation anywhere in the numerics is a
        # failure of this invocation, not a warning beside a NaN row
        with np.errstate(over="raise", invalid="raise"):
            table = args.handler(
                args, bounds.SharedSolves() if solves is None else solves)
        text = emit_table(table, args.format)
        if args.out_path:
            try:
                Path(args.out_path).write_text(text, encoding="utf-8")
            except OSError as ex:
                raise ParameterError(
                    f"cannot write output file: {ex}") from None
        else:
            stream.write(text)
    except SystemExit:
        # only --help leaves the parser this way, once its text is printed
        return 0
    except ParameterError as ex:
        print(f"error: {ex}", file=errstream)
        return 2
    except NumericError as ex:
        print(f"numeric failure: {ex}", file=errstream)
        return 1
    except Exception as ex:
        # anything else is a failure the input drove the numerics into;
        # report it on one line instead of a traceback
        detail = " ".join(str(ex).split())
        print(f"failure: {type(ex).__name__}: {detail}", file=errstream)
        return 1
    return 0


def run_suite(path: str, out, err) -> int:
    """Run every non-blank, non-comment line of a suite file as an invocation.

    Lines run one after another in file order, on the calling thread, and
    share one bounds.SharedSolves. Each line's table is followed by its status
    comment, which carries the line's one-line failure message if it failed.
    A line that shlex cannot split and a nested suite line each fail with
    code 2. Exit 1 if any line fails, 2 if the file cannot be read, 0
    otherwise.
    """
    try:
        content = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as ex:
        print(f"cannot read suite file: {ex}", file=err)
        return 2
    runs = failures = 0
    solves = bounds.SharedSolves()
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        runs += 1
        errbuffer = io.StringIO()
        try:
            argv = shlex.split(line)
        except ValueError as ex:
            print(f"error: cannot split line: {ex}", file=errbuffer)
            code = 2
        else:
            line = shlex.join(argv)
            if argv[0] == "suite":
                print("nested suite lines are not allowed", file=errbuffer)
                code = 2
            else:
                code = dispatch(argv, out=out, err=errbuffer, solves=solves)
        if code == 0:
            print(f"# line {lineno} ok: {line}", file=out)
            continue
        failures += 1
        detail = errbuffer.getvalue().strip().splitlines()
        suffix = f": {detail[-1]}" if detail else ""
        print(f"# line {lineno} fail({code}): {line}{suffix}", file=out)
    print(f"# suite: {runs} runs, {failures} failures", file=out)
    return 1 if failures else 0


def entry() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
