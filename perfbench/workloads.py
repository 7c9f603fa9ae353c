"""Workload definitions: seeded job decks, input files and correctness checks.

A workload is a fixed deck of jobs (a multiset of CLI invocations). Each deck
is shuffled with a generator seeded from the workload name, the deck index
and ``--seed``, so the job list depends on the seed alone. Every deck of a
workload does the same work, which is what lets traced counts be reported
per deck and repeat exactly.

A run plays a number of decks set by ``--seconds`` and a fixed nominal deck
time (``deck_count``), never by how fast the program is. So every commit runs
the same multiset of jobs, and the median and the tail job fall at the same
ranks of it.

Why these decks: the multiplicities are chosen so that, at the deck counts of
a 28 s run, the job class holding the median and the class holding the
11th-largest job (the tail percentile with ten jobs beyond it) each have
jobs on both sides of that rank, so neither statistic sits on a boundary
between size classes:

- certify, 8 decks: the median is a (2,3) job, the tail the 11th of 16
  (3,3) jobs;
- eliminate, 22 decks: the median is a chart (2,3) job, the tail the 11th of
  44 elimination (2,3) jobs;
- generate, 8 decks: the 8 gens-json (3,4) jobs are the largest; the tail is
  the 3rd of the 16 jobs of about 0.2 s (gens-json and export-m2 at (3,3)),
  the median a (2,4) job;
- evaluate, 10 decks: the median is a (2,4) job, the tail the 11th of 20
  (3,4) jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("certify", "eliminate", "generate", "evaluate")

# Seed-independent jobs are checked against the digests recorded from the
# parent commit in this file; see record_digests.py.
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# Tuples are drawn from a seeded pool of this many decks; later decks reuse
# the pool cyclically, which is harmless because no state survives a job.
EVAL_POOL_DECKS = 8


@dataclass(frozen=True)
class EvalExpect:
    """Answer known by construction for one coefficient tuple."""

    planted: bool
    has_root: bool
    all_leading_zero: bool
    gcd_degree: int


@dataclass(frozen=True)
class Job:
    cls: str  # job class, e.g. "verify-groebner(3,3)"; sizes classes for stats
    argv: Tuple[str, ...]
    key: Optional[str] = None  # digest-table key (seed-independent jobs)
    expect: Optional[EvalExpect] = None  # eval jobs
    dn: Tuple[int, int] = (0, 0)


def _dn(d: int, n: int) -> List[str]:
    return ["--d", str(d), "--n", str(n)]


def _fixed(cls: str, argv: List[str], dn) -> Job:
    return Job(cls, tuple(argv), " ".join(argv), None, dn)


def verify_job(check: str, d: int, n: int) -> Job:
    return _fixed(f"verify-{check}({d},{n})", ["verify", check, *_dn(d, n)], (d, n))


def gens_job(d: int, n: int, fmt: str) -> Job:
    return _fixed(f"gens-{fmt}({d},{n})", ["gens", *_dn(d, n), "--format", fmt], (d, n))


def doc_name(d: int, n: int) -> str:
    return f"gens-d{d}-n{n}.json"


def export_job(workdir: str, d: int, n: int) -> Job:
    path = os.path.join(workdir, doc_name(d, n))
    # the key names the document, not the per-run path, so it is stable
    key = f"export --input {doc_name(d, n)} --format m2"
    return Job(f"export-m2({d},{n})", ("export", "--input", path, "--format", "m2"), key, None, (d, n))


# ---------------------------------------------------------------- decks

CERTIFY_DECK = [(2, ("groebner", 3, 3)), (1, ("groebner", 2, 4)),
                (2, ("groebner", 2, 3)), (2, ("groebner", 3, 2))]
ELIMINATE_DECK = [(2, ("elimination", 2, 2)), (2, ("elimination", 2, 3)),
                  (2, ("elimination", 3, 2)), (2, ("chart", 2, 3)), (2, ("chart", 3, 2))]
GENERATE_SIZES = [(2, 3), (2, 4), (3, 3)]  # every format
GENERATE_BIG = (3, 4)  # json only: the serialization-heavy case
EXPORT_SIZES = [(2, 3), (3, 3)]  # m2 from the json documents written at set-up
FORMATS = ("json", "m2", "singular", "text")
EVALUATE_DECK = [(4, (2, 3)), (4, (2, 4)), (4, (3, 3)), (2, (3, 4))]  # half planted

# Nominal wall time of one deck in seconds, measured once on the seed
# commit (x86_64, 2 vCPUs, Python 3.11) and then held fixed: it turns
# ``--seconds`` into a deck count, so a faster or slower program plays the
# same decks.
DECK_S = {"certify": 3.4, "eliminate": 1.25, "generate": 3.5, "evaluate": 2.8}


def deck_count(workload: str, seconds: float, minimum: int) -> int:
    """Decks in a run of about ``seconds`` at the nominal deck time."""
    return max(minimum, round(seconds / DECK_S[workload]))


def fixed_deck(workload: str, workdir: str) -> List[Job]:
    """The deck of a seed-independent workload, unshuffled."""
    if workload in ("certify", "eliminate"):
        spec = CERTIFY_DECK if workload == "certify" else ELIMINATE_DECK
        return [verify_job(*what) for count, what in spec for _ in range(count)]
    if workload == "generate":
        jobs = [gens_job(d, n, fmt) for d, n in GENERATE_SIZES for fmt in FORMATS]
        jobs.append(gens_job(*GENERATE_BIG, "json"))
        jobs.extend(export_job(workdir, d, n) for d, n in EXPORT_SIZES)
        return jobs
    raise ValueError(f"{workload} has no fixed deck")


def deck_rng(workload: str, seed: int, deck: int) -> random.Random:
    # string seeds go through SHA-512, so the stream ignores PYTHONHASHSEED
    return random.Random(f"perfbench:{workload}:{seed}:{deck}")


# ---------------------------------------------------------------- tuples

def _rational(rng: random.Random) -> Fraction:
    num = rng.randint(1, 20) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, 20))


def _factored_row(rng: random.Random, d: int, r: Fraction) -> List[Fraction]:
    """Coefficients of (x - r) q with random q of degree d-1."""
    q = [_rational(rng) for _ in range(d)]
    return [q[0]] + [q[j] - r * q[j - 1] for j in range(1, d)] + [-r * q[d - 1]]


def planted_rows(rng: random.Random, d: int, n: int) -> List[List[Fraction]]:
    """Every row vanishes at one shared random root r."""
    r = _rational(rng)
    return [_factored_row(rng, d, r) for _ in range(n)]


def random_rows(rng: random.Random, d: int, n: int) -> List[List[Fraction]]:
    """Every row vanishes at its own random root. The entries have the same
    size as planted ones, so both kinds cost the same to evaluate; whether
    the rows share a root is left to the gcd."""
    return [_factored_row(rng, d, _rational(rng)) for _ in range(n)]


def _trim(p: List[Fraction]) -> List[Fraction]:
    """Dense coefficients, leading first, without leading zeros."""
    idx = 0
    while idx < len(p) and p[idx] == 0:
        idx += 1
    return p[idx:]


def _rem(u: List[Fraction], v: List[Fraction]) -> List[Fraction]:
    u = list(u)
    while len(u) >= len(v):
        factor = u[0] / v[0]
        for idx in range(len(v)):
            u[idx] -= factor * v[idx]
        u = _trim(u)
    return u


def gcd_degree(rows: List[List[Fraction]]) -> int:
    """Degree of the gcd of the nonzero rows (Euclid over the rationals)."""
    g: List[Fraction] = []
    for row in rows:
        p = _trim(list(row))
        if not p:
            continue
        if not g:
            g = p
            continue
        a, b = g, p
        while b:
            a, b = b, _rem(a, b)
        g = a
    return max(len(g) - 1, 0)


def eval_expect(rows: List[List[Fraction]], planted: bool) -> EvalExpect:
    degree = gcd_degree(rows)
    if planted and degree < 1:
        raise AssertionError("planted tuple without a common root")
    return EvalExpect(planted, degree >= 1, all(row[0] == 0 for row in rows), degree)


def write_tuple(path: str, d: int, n: int, rows: List[List[Fraction]]) -> None:
    doc = {"d": d, "n": n, "values": [[str(v) for v in row] for row in rows]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------- job lists

class JobSource:
    """The seeded job list of one workload, with its inputs on disk."""

    def __init__(self, workload: str, seed: int, workdir: str, setup_inputs) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        if workload == "generate":
            for d, n in EXPORT_SIZES:
                setup_inputs(["gens", *_dn(d, n), "--format", "json",
                              "-o", os.path.join(workdir, doc_name(d, n))])
        self._pool = self._eval_pool() if workload == "evaluate" else None

    def _eval_pool(self) -> List[List[Job]]:
        pool = []
        for deck in range(EVAL_POOL_DECKS):
            rng = deck_rng(self.workload, self.seed, deck)
            jobs = []
            for count, (d, n) in EVALUATE_DECK:
                for idx in range(count):
                    planted = idx % 2 == 0
                    rows = (planted_rows if planted else random_rows)(rng, d, n)
                    path = os.path.join(self.workdir, f"tuple-{deck}-{d}{n}-{idx}.json")
                    write_tuple(path, d, n, rows)
                    kind = "planted" if planted else "random"
                    jobs.append(Job(f"eval-{kind}({d},{n})",
                                    ("eval", *_dn(d, n), "--coeffs", path),
                                    None, eval_expect(rows, planted), (d, n)))
            pool.append(jobs)
        return pool

    def deck(self, index: int) -> List[Job]:
        """Deck number ``index``: the same multiset of work every time,
        in a seeded order."""
        if self._pool is not None:
            jobs = list(self._pool[index % EVAL_POOL_DECKS])
        else:
            jobs = fixed_deck(self.workload, self.workdir)
        deck_rng(self.workload, self.seed, -1 - index).shuffle(jobs)
        return jobs

    def fingerprint(self, decks: int) -> str:
        """Digest of the first ``decks`` decks, with per-run paths removed."""
        h = hashlib.sha256()
        for index in range(decks):
            for job in self.deck(index):
                argv = [os.path.basename(a) if a.startswith(self.workdir) else a
                        for a in job.argv]
                h.update(json.dumps([argv, str(job.expect)]).encode())
        return h.hexdigest()


# ---------------------------------------------------------------- checks

def load_digests() -> Dict[str, object]:
    with open(DIGESTS_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(job: Job, rc: int, out: str, digests: Dict[str, str], sizes: Dict[str, int]) -> Optional[str]:
    """None when the job's output is correct, otherwise the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if job.key is not None:
        want = digests.get(job.key)
        if want is None:
            return "no recorded digest"
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != want:
            return "digest mismatch"
        if job.argv[0] == "verify" and json.loads(out)["status"] != "pass":
            return "verdict is not pass"
        return None
    doc = json.loads(out)
    e = job.expect
    root = doc["root_report"]
    got = (root["has_affine_common_root"], root["all_leading_zero"], root["gcd_degree"])
    if got != (e.has_root, e.all_leading_zero, e.gcd_degree):
        return f"root report {got} != {(e.has_root, e.all_leading_zero, e.gcd_degree)}"
    if doc["top_minors_all_vanish"] != (e.has_root or e.all_leading_zero):
        return "top minors verdict"
    if doc["biconditional_ok"] is not True:
        return "biconditional"
    if len(doc["generators"]) != sizes["%d,%d" % job.dn]:
        return "generator count"
    if e.planted and not all(g["vanishes"] for g in doc["generators"]):
        return "planted root does not annihilate every generator"
    return None
