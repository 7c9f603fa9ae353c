"""Exporters to external computer-algebra script formats.

External systems are export targets only, never runtime dependencies.
Rationals are always printed as num/den strings, output is byte-stable for
fixed input, and ring declarations list the coefficient variables in
column-major order (all leading coefficients first).
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .poly import Polynomial, Ring, Variable, format_rational

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


def _term_text(mono, coeff, namer) -> str:
    body = "*".join(namer(v) if e == 1 else f"{namer(v)}^{e}" for v, e in mono.exps)
    c = format_rational(coeff)
    if not body:
        return c
    if c == "1":
        return body
    if c == "-1":
        return f"-{body}"
    return f"{c}*{body}"


def polynomial_text(p: Polynomial, namer=None) -> str:
    """Deterministic human/CAS-readable rendering of one polynomial."""
    if p.is_zero:
        return "0"
    namer = namer or (lambda v: v.name)
    monos = sorted(p.terms, key=p.ring.canonical_key, reverse=True)
    text = _term_text(monos[0], p.terms[monos[0]], namer)
    for m in monos[1:]:
        c = p.terms[m]
        piece = _term_text(m, abs(c), namer)
        text += f" - {piece}" if c < 0 else f" + {piece}"
    return text


def to_json_doc(ring: Ring, polys: Sequence[Polynomial]) -> str:
    doc = {
        "d": ring.d,
        "n": ring.n,
        "generators": [p.to_json() for p in polys],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def from_json_doc(text: str):
    doc = json.loads(text)
    ring = Ring(int(doc["d"]), int(doc["n"]))
    return ring, [Polynomial.from_json(ring, entry) for entry in doc["generators"]]


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
