"""Command-line interface.

Exit status: 0 success, 1 a verification reported failure, 2 usage error,
3 resource exhaustion. The environment variable RESULTANT_FORGE_LIMITS
(for example "max_pairs=200000,max_basis=2000,timeout=600") overrides the
default Buchberger limits for every subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from . import exports
from .cascade import build_cascade
from .diagonal import build_diagonal_weights, diagonal_order
from .geometry import SquareFreeMonomialIdeal, chow_degree, dim_and_degree, minimal_primes
from .groebner import (
    DEFAULT_LIMITS,
    IdealPresentation,
    Limits,
    ResourceExhaustedError,
    chart_equal,
    eliminate_x,
    ideal_equal,
    is_groebner_basis,
)
from .minors import enumerate_generators, generators_for_basis
from .orders import DegRevLexOrder, LexOrder, leading_term
from .poly import Ring
from .roots import CoefficientTuple, membership_scan, sample_planted, sample_random
from .walks import enumerate_reduced, enumerate_walks, walk_leading_monomial

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


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_k(args) -> None:
    if args.k is not None and not 1 <= args.k <= args.d:
        raise UsageError(f"--k must lie in 1..{args.d}, got {args.k}")


def _records(args):
    _check_k(args)
    k = args.k
    if args.reduced_only:
        records = generators_for_basis(args.d, args.n)
    else:
        records = enumerate_generators(args.d, args.n)
    if k is not None:
        records = [rec for rec in records if rec.k == k]
    return records


def _named_order(name: str, ring: Ring):
    if name == "diag":
        return diagonal_order(build_diagonal_weights(ring.d, ring.n), ring)
    if name == "degrevlex":
        return DegRevLexOrder(ring.coeff_vars_column_major())
    if name == "lex":
        return LexOrder(ring.coeff_vars_column_major())
    raise UsageError(f"unknown order {name!r}")


def _cmd_gens(args) -> int:
    ring = Ring(args.d, args.n)
    polys = [rec.poly for rec in _records(args)]
    _emit(args, exports.export_ideal(ring, polys, args.format, args.alias))
    return 0


def _cmd_cascade(args) -> int:
    k = args.d if args.k is None else args.k
    grid = build_cascade(args.d, args.n, k).name_grid()
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
    _check_k(args)
    if args.reduced:
        walks = enumerate_reduced(args.d, args.n)
    else:
        k = args.d if args.k is None else args.k
        walks = enumerate_walks(args.d, args.n, k)
    if args.format == "monomials":
        ring = Ring(args.d, args.n)
        doc = [repr(walk_leading_monomial(w, ring)) for w in walks]
    else:
        doc = [[[u, v] for u, v in w.steps] for w in walks]
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_leadterms(args) -> int:
    ring = Ring(args.d, args.n)
    order = _named_order(args.order, ring)
    doc = [repr(leading_term(rec.poly, order)[0]) for rec in _records(args)]
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_components(args) -> int:
    ring = Ring(args.d, args.n)
    lead = SquareFreeMonomialIdeal(
        walk_leading_monomial(w, ring) for w in enumerate_reduced(args.d, args.n)
    )
    comps = minimal_primes(lead)
    ambient = args.n * (args.d + 1)
    dd = dim_and_degree(lead, ambient)
    doc = {
        "components": [sorted(v.name for v in comp) for comp in comps],
        "dim": dd.dim,
        "degree": dd.degree,
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_degree(args) -> int:
    degrees = [int(part) for part in args.degrees.split(",") if part.strip()]
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
        ring = Ring(args.d, args.n)
        order = diagonal_order(build_diagonal_weights(args.d, args.n), ring)
        basis = [rec.poly for rec in generators_for_basis(args.d, args.n)]
        ok = is_groebner_basis(basis, order, limits)
        return _verify_report(
            args,
            "reduced-walk minors are a Groebner basis under the diagonal order",
            ok,
            {"basis_size": len(basis)},
        )
    if args.check == "elimination":
        ring = Ring(args.d, args.n)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        minors_pres = IdealPresentation(
            ring, [rec.poly for rec in enumerate_generators(args.d, args.n, ring)], order
        )
        elim = eliminate_x(args.d, args.n, limits)
        ok = ideal_equal(minors_pres, elim, limits)
        return _verify_report(
            args,
            "cascade minors generate the eliminated ideal of coefficient relations",
            ok,
            {"minors": len(minors_pres.generators), "eliminated_basis": len(elim.generators)},
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
    doc = {
        "root_report": {
            "has_affine_common_root": report.root.has_affine_common_root,
            "all_leading_zero": report.root.all_leading_zero,
            "gcd_degree": report.root.gcd_degree,
        },
        "generators": [
            {"k": sel.k, "rows": [list(p) for p in sel.pairs], "vanishes": v}
            for sel, v in zip(report.selections, report.vanishing)
        ],
        "top_minors_all_vanish": report.top_minors_all_vanish,
        "biconditional_ok": report.biconditional_ok,
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if report.biconditional_ok else 1


def _cmd_sample(args) -> int:
    sampler = sample_planted if args.planted else sample_random
    tup = sampler(args.d, args.n, args.seed)
    _emit(args, json.dumps(tup.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_export(args) -> int:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            ring, polys = exports.from_json_doc(fh.read())
    elif args.d and args.n:
        ring = Ring(args.d, args.n)
        polys = [rec.poly for rec in _records(args)]
    else:
        raise UsageError("export needs --input or both --d and --n")
    _emit(args, exports.export_ideal(ring, polys, args.format, args.alias))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resultantforge",
        description="Determinantal generators, Groebner certificates, and "
        "common-root tests for systems of n univariate degree-d polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dn(p, n_required=True):
        p.add_argument("--d", type=int, required=n_required, help="degree of every polynomial")
        p.add_argument("--n", type=int, required=n_required, help="number of polynomials")

    def add_limits(p):
        p.add_argument("--max-pairs", dest="max_pairs", type=int)
        p.add_argument("--max-basis", dest="max_basis", type=int)
        p.add_argument("--max-degree", dest="max_degree", type=int)
        p.add_argument("--timeout", type=float, help="wall-clock budget in seconds")

    def add_output(p):
        p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = sub.add_parser("gens", help="print the determinantal generators")
    add_dn(p)
    p.add_argument("--k", type=int, help="restrict to one cascade depth")
    p.add_argument("--reduced-only", action="store_true", help="only the reduced-walk minors")
    p.add_argument("--format", choices=exports.FORMATS, default="text")
    p.add_argument("--alias", action=argparse.BooleanOptionalAction, default=None,
                   help="column-letter variable names in m2 output")
    add_output(p)
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("cascade", help="print the cascade matrix M_k")
    add_dn(p)
    p.add_argument("--k", type=int, help="cascade depth (defaults to d)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_output(p)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("walks", help="enumerate walks")
    add_dn(p)
    p.add_argument("--k", type=int, help="walk length d+k (defaults to k=d)")
    p.add_argument("--reduced", action="store_true", help="reduced walks of every length")
    p.add_argument("--format", choices=("pairs", "monomials"), default="pairs")
    add_output(p)
    p.set_defaults(func=_cmd_walks)

    p = sub.add_parser("leadterms", help="leading monomials of the generators")
    add_dn(p)
    p.add_argument("--order", choices=("diag", "degrevlex", "lex"), default="diag")
    p.add_argument("--k", type=int)
    p.add_argument("--reduced-only", action="store_true")
    add_output(p)
    p.set_defaults(func=_cmd_leadterms)

    p = sub.add_parser("components", help="components of the initial ideal's locus")
    add_dn(p)
    add_output(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("degree", help="degree of the common-root locus for mixed degrees")
    p.add_argument("--degrees", required=True, help="comma-separated degrees, e.g. 2,3,5")
    add_output(p)
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("verify", help="run a certification and print a JSON report")
    p.add_argument("check", choices=("groebner", "elimination", "chart"))
    add_dn(p)
    add_limits(p)
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate all generators at a coefficient tuple")
    add_dn(p)
    p.add_argument("--coeffs", required=True, help="CoefficientTuple JSON file")
    add_output(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sample", help="draw a deterministic coefficient tuple")
    add_dn(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--planted", action="store_true", help="plant a common rational root")
    add_output(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("export", help="re-emit an ideal in a CAS script format")
    add_dn(p, n_required=False)
    p.add_argument("--input", help="JSON document produced by the json format")
    p.add_argument("--k", type=int)
    p.add_argument("--reduced-only", action="store_true")
    p.add_argument("--format", choices=exports.FORMATS, required=True)
    p.add_argument("--alias", action=argparse.BooleanOptionalAction, default=None)
    add_output(p)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceExhaustedError as exc:
        print(f"resource limit hit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
