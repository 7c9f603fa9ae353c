"""Exporters to external computer-algebra script formats.

External systems are export targets only, never runtime dependencies.
Rationals are always printed as num/den strings, output is byte-stable for
fixed input, and ring declarations list the coefficient variables in
column-major order (all leading coefficients first). Polynomials are
rendered by poly.polynomial_text, the same printer as their repr; this
module only chooses the variable names and the script around them. The
JSON ideal document is the one format written here term by term, with the
bytes json.dumps would give.
"""

from __future__ import annotations

import functools
import json
from typing import Optional, Sequence

from .poly import Polynomial, Ring, Variable, format_rational, json_field, parse_rational, polynomial_text

FORMATS = ("json", "m2", "singular", "text")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def alias_name(var: Variable, d: int) -> str:
    """Column-letter alias: a_i for a_i_0, b_i for a_i_1, and so on.

    Only defined while the column index fits the alphabet (d + 1 <= 26).
    """
    if var.kind != "a":
        raise ValueError(f"no alias for {var.name}")
    if d + 1 > len(_LETTERS):
        raise ValueError(f"alias naming needs d + 1 <= 26, got d = {d}")
    return f"{_LETTERS[var.j]}_{var.i}"


def to_json_doc(ring: Ring, polys: Sequence[Polynomial]) -> str:
    """The ideal document, written directly: the same bytes as
    json.dumps({"d", "n", "generators": [p.to_json(), ...]}, indent=2,
    sort_keys=True) + "\n". Names and rational strings need no escaping,
    and each monomial's "m" block is rendered once per call."""
    blocks = {}

    def block(m) -> str:
        got = blocks.get(m)
        if got is None:
            # sort_keys orders by name, so a_10_0 comes before a_1_0
            named = sorted((v.name, e) for v, e in m.exps)
            body = ",\n".join(f'          "{name}": {e}' for name, e in named)
            got = blocks[m] = "{\n" + body + "\n        }" if body else "{}"
        return got

    gens = []
    for p in polys:
        terms = [
            f'      {{\n        "c": "{format_rational(p.terms[m])}",\n        "m": {block(m)}\n      }}'
            for m in sorted(p.terms, key=p.ring.canonical_key, reverse=True)
        ]
        gens.append("    [\n" + ",\n".join(terms) + "\n    ]" if terms else "    []")
    body = "[\n" + ",\n".join(gens) + "\n  ]" if gens else "[]"
    return f'{{\n  "d": {ring.d},\n  "generators": {body},\n  "n": {ring.n}\n}}\n'


def from_json_doc(text: str):
    """The ring and generators of an ideal document; a malformed document
    raises ValueError naming the bad field, e.g. generators[0][1].c."""
    doc = json.loads(text)
    ring = Ring(json_field(doc, "d", int), json_field(doc, "n", int))
    # one memo per field kind: a name "1" and a "c" of "1" parse differently
    parse_var, parse_c = functools.cache(Variable.parse), functools.cache(parse_rational)
    polys = []
    for idx, entry in enumerate(json_field(doc, "generators", list)):
        try:
            polys.append(Polynomial.from_json(ring, entry, parse_var, parse_c))
        except ValueError as exc:
            raise ValueError(f"generators[{idx}]: {exc}") from None
    return ring, polys


def to_m2(ring: Ring, polys: Sequence[Polynomial], alias: Optional[bool] = None) -> str:
    """A Macaulay2 script declaring the coefficient ring and the ideal.

    Aliased column-letter names are used by default whenever they exist;
    otherwise variables are declared as indexed symbols a_(i,j).
    """
    if alias is None:
        alias = ring.d + 1 <= len(_LETTERS)
    if alias:
        namer = lambda v: alias_name(v, ring.d)
        decl = ",".join(
            f"{_LETTERS[j]}_1..{_LETTERS[j]}_{ring.n}" for j in range(ring.d + 1)
        )
    else:
        namer = lambda v: f"a_({v.i},{v.j})"
        decl = ",".join(namer(v) for v in ring.coeff_vars_column_major())
    lines = [f"R = QQ[{decl}];", "I = ideal("]
    body = [f"  {polynomial_text(p, namer)}" for p in polys]
    lines.append(",\n".join(body))
    lines.append(");")
    return "\n".join(lines) + "\n"


def to_singular(ring: Ring, polys: Sequence[Polynomial]) -> str:
    """A Singular script with paren-indexed variables a(i)(j)."""
    namer = lambda v: f"a({v.i})({v.j})"
    decl = ",".join(namer(v) for v in ring.coeff_vars_column_major())
    lines = [
        f"ring r = 0, ({decl}), dp;",
        "ideal I = " + ",\n  ".join(polynomial_text(p, namer) for p in polys) + ";",
    ]
    return "\n".join(lines) + "\n"


def to_text(ring: Ring, polys: Sequence[Polynomial]) -> str:
    return "\n".join(polynomial_text(p) for p in polys) + "\n"


def export_ideal(ring: Ring, polys: Sequence[Polynomial], fmt: str, alias: Optional[bool] = None) -> str:
    if fmt == "json":
        return to_json_doc(ring, polys)
    if fmt == "m2":
        return to_m2(ring, polys, alias)
    if fmt == "singular":
        return to_singular(ring, polys)
    if fmt == "text":
        return to_text(ring, polys)
    raise ValueError(f"unsupported format {fmt!r}; choose from {FORMATS}")
