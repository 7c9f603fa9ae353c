"""Command-line interface.

Exit status: 0 success, 1 a verification reported failure, 2 usage error,
3 resource exhaustion. The environment variable RESULTANT_FORGE_LIMITS
(for example "max_pairs=200000,max_basis=2000,timeout=600") overrides the
default Buchberger limits of `verify`, the one subcommand that reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from typing import List, Optional

from . import exports, geometry
from .cascade import CascadeMatrix
from .diagonal import build_diagonal_weights, diagonal_order
from .geometry import DimDegree, chow_degree
from .groebner import (  # eliminate_x, ideal_equal and is_groebner_basis stay bound here for perfbench/tracing.py
    DEFAULT_LIMITS,
    Limits,
    ResourceExhaustedError,
    _kernel_minors,
    chart_equal,
    eliminate_x,
    elimination_equal,
    ideal_equal,
    is_groebner_basis,
    minors_are_groebner_basis,
)
from .minors import (  # enumerate_generators and generators_for_basis stay bound here for perfbench/tracing.py
    enumerate_generators,
    generator_rows,
    generators_for_basis,
    packed_minors,
    reduced_rows,
)
from .orders import DegRevLexOrder, LexOrder, _Reducer, leading_term  # leading_term stays bound here for perfbench/tracing.py
from .poly import Ring, parse_number
from .roots import CoefficientTuple, membership_scan, sample_planted, sample_random
from .walks import enumerate_reduced, enumerate_rows, walk_leading_monomial

LIMITS_ENV = "RESULTANT_FORGE_LIMITS"


class UsageError(Exception):
    pass


def _limits(args) -> Limits:
    base = DEFAULT_LIMITS
    env = os.environ.get(LIMITS_ENV)
    if env:
        base = Limits.parse(env)
    overrides = {}
    for name in ("max_pairs", "max_basis", "max_degree", "timeout"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return dataclasses.replace(base, **overrides)


@contextlib.contextmanager
def _output(args):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str) -> None:
    with _output(args) as out:
        out.write(text)


def _check_k(args) -> None:
    if args.k is not None and not 1 <= args.k <= args.d:
        raise UsageError(f"--k must lie in 1..{args.d}, got {args.k}")


def _generators(args) -> list:
    """(k, rows) of the requested generators in output order. --k lists
    that depth's rows alone; with --reduced-only it filters reduced_rows."""
    _check_k(args)
    d, n, k = args.d, args.n, args.k
    if args.reduced_only:
        return [g for g in reduced_rows(d, n) if k in (None, g[0])]
    if k is None:
        return generator_rows(d, n)
    # generator_rows' rule: a depth too flat for maximal minors (n*k < d+k) has none
    return [(k, rows) for rows in enumerate_rows(d, n, k)] if n * k >= d + k else []


def _write_generators(args) -> None:
    """Stream the requested generators: each minor is printed as it is
    expanded and written before the next one is."""
    ring = Ring(args.d, args.n)
    _write_pieces(args, ring, *packed_minors(ring, _generators(args)))


def _write_pieces(args, ring: Ring, packing, minors) -> None:
    """Write the ideal document of packed minors in the requested format;
    the format is checked before the output is opened."""
    pieces = exports.ideal_pieces(ring, packing, minors, args.format, args.alias)
    with _output(args) as out:
        out.writelines(pieces)


def _named_order(name: str, ring: Ring):
    if name == "diag":
        return diagonal_order(build_diagonal_weights(ring.d, ring.n))
    if name == "degrevlex":
        return DegRevLexOrder(ring.coeff_vars_column_major())
    if name == "lex":
        return LexOrder(ring.coeff_vars_column_major())
    raise UsageError(f"unknown order {name!r}")


def _cmd_gens(args) -> int:
    _write_generators(args)
    return 0


def _cmd_cascade(args) -> int:
    k = args.d if args.k is None else args.k
    grid = CascadeMatrix(args.d, args.n, k).name_grid()
    if args.format == "json":
        _emit(args, json.dumps(grid, indent=2) + "\n")
        return 0
    widths = [max(len(row[c]) for row in grid) for c in range(len(grid[0]))]
    lines = [
        "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)) for row in grid
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_walks(args) -> int:
    """Write each walk as it is enumerated: the bytes of json.dumps(walks,
    indent=2) + "\n", with neither the walk list nor the whole text held.
    A walk is a list of [u, v] steps, or with --format monomials the repr
    of its leading monomial; each step's lines are rendered once."""
    _check_k(args)
    d, n = args.d, args.n
    if args.reduced:
        walks = (w for w in enumerate_reduced(d, n) if args.k in (None, len(w) - d))
    else:
        # the rows are listed here, so that bad parameters fail before the output opens
        rows_of = enumerate_rows(d, n, d if args.k is None else args.k)
        walks = ([(j, s - i) for s, (i, j) in enumerate(rows, start=1)] for rows in rows_of)
    if args.format == "monomials":
        ring = Ring(d, n)
        items = (f"  {json.dumps(repr(walk_leading_monomial(w, ring)))}" for w in walks)
    else:
        step = {(u, v): f"    [\n      {u},\n      {v}\n    ]" for u in range(1, n + 1) for v in range(d + 1)}
        items = ("  [\n" + ",\n".join(map(step.__getitem__, w)) + "\n  ]" for w in walks)
    with _output(args) as out:
        sep = "[\n"
        for item in items:
            out.write(sep + item)
            sep = ",\n"
        out.write("[]\n" if sep == "[\n" else "\n]\n")
    return 0


def _cmd_leadterms(args) -> int:
    """Print each requested minor's lead: its largest kernel int in the order."""
    ring, gens = Ring(args.d, args.n), _generators(args)
    doc = []
    if gens:  # an order only for a generator to order: the diagonal weights need n >= 2
        minors = _kernel_minors(_Reducer(_named_order(args.order, ring)), ring, gens)
        doc = [repr(packing.monomial(max(minor))) for packing, minor in minors]
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_components(args) -> int:
    ring = Ring(args.d, args.n)
    # the supports of the reduced-walk leads, unminimalized: Berge's
    # algorithm finds the same minimal hitting sets either way
    supports = [walk_leading_monomial(w, ring).support for w in enumerate_reduced(args.d, args.n)]
    comps = geometry.minimal_hitting_sets(supports)
    dd = DimDegree.of(comps, args.n * (args.d + 1))
    doc = {
        "components": [sorted(v.name for v in comp) for comp in comps],
        "dim": dd.dim,
        "degree": dd.degree,
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_degree(args) -> int:
    degrees = [parse_number(part, int, "--degrees entry") for part in args.degrees.split(",") if part.strip()]
    doc = {"degrees": degrees, "D": chow_degree(degrees)}
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _verify_report(args, claim: str, status: bool, witnesses: dict) -> int:
    doc = {
        "claim": claim,
        "parameters": {"d": args.d, "n": args.n},
        "status": "pass" if status else "fail",
        "witnesses": witnesses,
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if status else 1


def _cmd_verify(args) -> int:
    limits = _limits(args)
    if args.check == "groebner":
        order = diagonal_order(build_diagonal_weights(args.d, args.n))
        gens = reduced_rows(args.d, args.n)
        ok = minors_are_groebner_basis(Ring(args.d, args.n), gens, order, limits)
        return _verify_report(
            args,
            "reduced-walk minors are a Groebner basis under the diagonal order",
            ok,
            {"basis_size": len(gens)},
        )
    if args.check == "elimination":
        ok, minors, eliminated = elimination_equal(args.d, args.n, limits)
        return _verify_report(
            args,
            "cascade minors generate the eliminated ideal of coefficient relations",
            ok,
            {"minors": minors, "eliminated_basis": eliminated},
        )
    if args.check == "chart":
        ok = chart_equal(args.d, args.n, limits)
        return _verify_report(
            args,
            "depth-d minors match all minors on the affine chart a_1_0 = 1",
            ok,
            {},
        )
    raise UsageError(f"unknown verify check {args.check!r}")


def _cmd_eval(args) -> int:
    with open(args.coeffs, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    tup = CoefficientTuple.from_json(data)
    if (tup.d, tup.n) != (args.d, args.n):
        raise UsageError(
            f"coefficient file is for (d={tup.d}, n={tup.n}), flags say (d={args.d}, n={args.n})"
        )
    report = membership_scan(tup)
    _emit(args, _eval_doc(report, args.d, args.n))
    return 0 if report.biconditional_ok else 1


def _eval_doc(report, d: int, n: int) -> str:
    """The eval report at (d, n), written directly: the bytes of
    json.dumps(indent=2, sort_keys=True) + "\n" for {"biconditional_ok",
    "generators": [{"k", "rows", "vanishes"}, ...], "root_report",
    "top_minors_all_vanish"}. Each [i, j] row block of the d x n grid, which
    holds every row of every M_k, is rendered once, before the generators."""
    block_of = {(i, j): f"        [\n          {i},\n          {j}\n        ]"
                for i in range(1, d + 1) for j in range(1, n + 1)}.__getitem__
    gens = []
    for (k, rows), vanishes in zip(report.generators, report.vanishing):
        block = ",\n".join(map(block_of, rows))
        gens.append(f'    {{\n      "k": {k},\n      "rows": [\n{block}\n      ],\n      "vanishes": {_json_bool(vanishes)}\n    }}')
    body = "[\n" + ",\n".join(gens) + "\n  ]" if gens else "[]"
    root = report.root
    return (
        f'{{\n  "biconditional_ok": {_json_bool(report.biconditional_ok)},\n  "generators": {body},\n'
        f'  "root_report": {{\n    "all_leading_zero": {_json_bool(root.all_leading_zero)},\n'
        f'    "gcd_degree": {root.gcd_degree},\n'
        f'    "has_affine_common_root": {_json_bool(root.has_affine_common_root)}\n  }},\n'
        f'  "top_minors_all_vanish": {_json_bool(report.top_minors_all_vanish)}\n}}\n'
    )


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_sample(args) -> int:
    sampler = sample_planted if args.planted else sample_random
    tup = sampler(args.d, args.n, args.seed)
    _emit(args, json.dumps(tup.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_export(args) -> int:
    if args.input:
        given = [f"--{name}" for name in ("d", "n", "k") if getattr(args, name) is not None]
        given += ["--reduced-only"] * args.reduced_only
        if given:
            raise UsageError(f"--input does not combine with {', '.join(given)}")
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        _write_pieces(args, *exports.from_json_doc(text))
    elif args.d is not None and args.n is not None:
        _write_generators(args)
    else:
        raise UsageError("export needs --input or both --d and --n")
    return 0


def _dn_options(p, required=True):
    p.add_argument("--d", type=int, required=required, help="degree of every polynomial")
    p.add_argument("--n", type=int, required=required, help="number of polynomials")


def _gens_options(p):
    _dn_options(p)
    p.add_argument("--k", type=int, help="restrict to one cascade depth")
    p.add_argument("--reduced-only", action="store_true", help="only the reduced-walk minors")
    p.add_argument("--format", choices=exports.FORMATS, default="text")
    p.add_argument("--alias", action=argparse.BooleanOptionalAction, default=None,
                   help="column-letter variable names in m2 output")


def _cascade_options(p):
    _dn_options(p)
    p.add_argument("--k", type=int, help="cascade depth (defaults to d)")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _walks_options(p):
    _dn_options(p)
    p.add_argument("--k", type=int, help="walk length d+k (default: k=d, or every length with --reduced)")
    p.add_argument("--reduced", action="store_true", help="reduced walks of every length")
    p.add_argument("--format", choices=("pairs", "monomials"), default="pairs")


def _leadterms_options(p):
    _dn_options(p)
    p.add_argument("--order", choices=("diag", "degrevlex", "lex"), default="diag")
    p.add_argument("--k", type=int)
    p.add_argument("--reduced-only", action="store_true")


def _degree_options(p):
    p.add_argument("--degrees", required=True, help="comma-separated degrees, e.g. 2,3,5")


def _verify_options(p):
    p.add_argument("check", choices=("groebner", "elimination", "chart"))
    _dn_options(p)
    p.add_argument("--max-pairs", dest="max_pairs", type=int)
    p.add_argument("--max-basis", dest="max_basis", type=int)
    p.add_argument("--max-degree", dest="max_degree", type=int)
    p.add_argument("--timeout", type=float, help="wall-clock budget in seconds")


def _eval_options(p):
    _dn_options(p)
    p.add_argument("--coeffs", required=True, help="CoefficientTuple JSON file")


def _sample_options(p):
    _dn_options(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--planted", action="store_true", help="plant a common rational root")


def _export_options(p):
    _dn_options(p, required=False)
    p.add_argument("--input", help="JSON document produced by the json format")
    p.add_argument("--k", type=int)
    p.add_argument("--reduced-only", action="store_true")
    p.add_argument("--format", choices=exports.FORMATS, required=True)
    p.add_argument("--alias", action=argparse.BooleanOptionalAction, default=None)


# name -> (help, handler, options other than -o/--output), in help order
COMMANDS = {
    "gens": ("print the determinantal generators", _cmd_gens, _gens_options),
    "cascade": ("print the cascade matrix M_k", _cmd_cascade, _cascade_options),
    "walks": ("enumerate walks", _cmd_walks, _walks_options),
    "leadterms": ("leading monomials of the generators", _cmd_leadterms, _leadterms_options),
    "components": ("components of the initial ideal's locus", _cmd_components, _dn_options),
    "degree": ("degree of the common-root locus for mixed degrees", _cmd_degree, _degree_options),
    "verify": ("run a certification and print a JSON report", _cmd_verify, _verify_options),
    "eval": ("evaluate all generators at a coefficient tuple", _cmd_eval, _eval_options),
    "sample": ("draw a deterministic coefficient tuple", _cmd_sample, _sample_options),
    "export": ("re-emit an ideal in a CAS script format", _cmd_export, _export_options),
}


@functools.lru_cache(maxsize=None)
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone; a subcommand's
    own help, usage and errors are the same either way. Each is built once
    per process and shared by every caller, which must not change it: a
    parser depends on command alone, reads the terminal width only when it
    formats help or usage, and parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="resultantforge",
        description="Determinantal generators, Groebner certificates, and "
        "common-root tests for systems of n univariate degree-d polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            options(p)
            p.add_argument("-o", "--output", help="write to a file instead of stdout")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser only where it shapes the output: no command, --help,
    # an unknown command, or unrecognized arguments, whose usage line lists
    # every command
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args, extra = build_parser(command).parse_known_args(argv)
        if extra:
            build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # the handler COMMANDS names now, not the one it named when the parser was built
        return COMMANDS[args.command][1](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceExhaustedError as exc:
        print(f"resource limit hit: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit hit: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
