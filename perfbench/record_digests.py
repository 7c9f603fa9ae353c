"""Record digests.json: the stdout SHA-256 of every seed-independent job.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_digests.py

The digests are taken by the correctness pass of ``run.py --digests``, run
in this process. Before they are written they are cross-checked once
against the independent Leibniz determinants of
``tests/oracles.permutation_det``: at (2,3) the polynomials of
``gens --format json`` must equal the oracle's nonzero maximal minors, and at
(2,3) and (3,2) the ``minors`` count in the ``verify elimination`` report
must equal the oracle's count.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from resultantforge.poly import Ring  # noqa: E402
from tests.oracles import permutation_det  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def oracle_minors(d: int, n: int):
    """Nonzero maximal minors of every cascade M_k, by the permutation sum.
    Rows (copy i, polynomial j) in lexicographic order; row (i, j) holds
    a_j_0 .. a_j_d in columns i .. i+d."""
    ring = Ring(d, n)
    out = []
    for k in range(1, d + 1):
        rows = [(i, j) for i in range(1, k + 1) for j in range(1, n + 1)]
        for pick in combinations(rows, d + k):
            grid = [[ring.coeff(j, col - i) if 0 <= col - i <= d else None
                     for col in range(1, d + k + 1)] for i, j in pick]
            p = permutation_det(ring, grid)
            if not p.is_zero:
                out.append(frozenset((tuple((v.name, e) for v, e in m.exps), c)
                                     for m, c in p.terms.items()))
    return out


def program_polys(text: str):
    return [frozenset((tuple(sorted(term["m"].items())), Fraction(term["c"])) for term in poly)
            for poly in json.loads(text)["generators"]]


GENS_KEY = "gens --d 2 --n 3 --format json"
ELIMINATION_KEYS = {(d, n): f"verify elimination --d {d} --n {n}" for d, n in ((2, 3), (3, 2))}


def main() -> int:
    found, texts = run.collect_digests(1, keep=(GENS_KEY, *ELIMINATION_KEYS.values()))
    if found["failures"] or found["repeats_differ"]:
        raise SystemExit(f"digest pass is not clean: {found['failures']} {found['repeats_differ']}")
    fixed = {k: v for k, v in found["jobs"].items() if "#" not in k}

    if Counter(program_polys(texts[GENS_KEY])) != Counter(oracle_minors(2, 3)):
        raise SystemExit(f"{GENS_KEY}: polynomials differ from the permutation-sum oracle")
    for (d, n), key in ELIMINATION_KEYS.items():
        if json.loads(texts[key])["witnesses"]["minors"] != len(oracle_minors(d, n)):
            raise SystemExit(f"{key}: minor count differs from the permutation-sum oracle")
    checked = [GENS_KEY, *ELIMINATION_KEYS.values()]

    doc = {"recorded_from": run.git_commit(), "oracle_checked": checked,
           "jobs": fixed, "generators": found["generators"]}
    with open(workloads.DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fixed)} digests to {os.path.relpath(workloads.DIGESTS_FILE, ROOT)}; "
          f"oracle-checked: {', '.join(checked)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
