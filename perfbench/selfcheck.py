"""Checks of the benchmark itself. Run from the repository root:

    python3 perfbench/selfcheck.py

1. The correctness pass (``run.py --digests``: every distinct job, each
   twice in one process) under PYTHONHASHSEED 0 and 1 gives identical
   digests, a repeated job gives byte-identical output, the seed-independent
   digests equal digests.json, and the job list depends on ``--seed`` alone
   (same fingerprint under both hash seeds, another for another seed).
2. For every workload, two traced runs of the same seed and different
   lengths (4 and 5 decks) report exactly the same per-deck counts, and the
   span self times add up to the untraced job time within the measured
   tracing overhead.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")
TRACE_DECKS = (4, 5)  # the shortest traced run (one deck per worker), and one deck more
SELF_TOLERANCE = 0.01  # share of job time allowed beyond the overhead: the harness's own time


def digest_pass(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, RUN, "--digests", "--seed", "1"], env=env,
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def traced(workload: str, decks: int, out: str) -> dict:
    # a traced run plays the decks of half its --seconds
    seconds = math.ceil(2 * decks * workloads.DECK_S[workload])
    subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "1",
                    "--seconds", str(seconds), "--trace", "1", "--out", out],
                   check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as fh:
        return json.loads(fh.readlines()[-1])


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    first, second = digest_pass("0"), digest_pass("1")
    expect(first == second, "correctness pass identical under PYTHONHASHSEED 0 and 1 "
           f"({len(first['jobs'])} job digests, job-list fingerprints included)")
    expect(not first["repeats_differ"], "every job repeated in one process gives identical output")
    expect(not first["failures"], f"every job passes its check {first['failures'][:3]}")
    recorded = workloads.load_digests()["jobs"]
    fixed = {k: v for k, v in first["jobs"].items() if "#" not in k}
    expect(all(recorded.get(k) == v for k, v in fixed.items()),
           f"{len(fixed)} seed-independent digests equal digests.json")
    expect(all(a != b for a, b in first["fingerprints"].values()),
           "another --seed gives another job list")

    out = os.path.join(run.ROOT, f".perfbench-selfcheck-{os.getpid()}.jsonl")
    try:
        for name in workloads.WORKLOADS:
            a, b = (traced(name, decks, out) for decks in TRACE_DECKS)
            counts_a = {k: a["metrics"][k]["value"] for k in tracing.EXACT_COUNTS}
            counts_b = {k: b["metrics"][k]["value"] for k in tracing.EXACT_COUNTS}
            differ = {k: (counts_a[k], counts_b[k]) for k in counts_a if counts_a[k] != counts_b[k]}
            lengths = (a["detail"]["decks"], b["detail"]["decks"])
            expect(not differ and lengths == TRACE_DECKS and a["correct"] and b["correct"],
                   f"{name}: per-deck counts repeat in traced runs of {lengths[0]} and "
                   f"{lengths[1]} decks {differ or ''}")
            for rec in (a, b):
                job_s = rec["metrics"]["trace.job_s"]["value"]
                self_sum = rec["detail"]["self_sum_s"]
                untraced = rec["detail"]["untraced_job_s"]
                overhead = rec["metrics"]["trace.overhead_frac"]["value"]
                expect(abs(self_sum - untraced) <= (abs(overhead) + SELF_TOLERANCE) * job_s,
                       f"{name}: self times ({self_sum:.4f} s/deck) match the untraced job "
                       f"time ({untraced:.4f} s/deck) within the overhead {overhead:+.4f}")
    finally:
        if os.path.exists(out):
            os.remove(out)
    print("all checks hold" if not problems else f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
