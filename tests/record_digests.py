"""Record tests/golden/digests.json: the stdout SHA-256 and exit code of
every command on a fixed grid, each run in process through cli.main.

Run from the repository root on the commit whose outputs are the reference:

    python3 tests/record_digests.py

The grid is (3,4) and (4,3) for every command below, plus leadterms and
verify groebner at (4,4). A case that reads a file names it in its key:
`eval --coeffs planted-seed-1.json` reads the output of `sample --seed 1
--planted` at the same size, and `export --input gens-d3-n4.json` the
output of `gens --d 3 --n 4 --format json`. tests/test_digests.py
recomputes every digest; a change to the table is a change to the output
bytes and needs a reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS_FILE = os.path.join(HERE, "golden", "digests.json")

STRETCH = ((3, 4), (4, 3))
FRONTIER = ((4, 4),)
FORMATS = ("json", "m2", "singular", "text")
ORDERS = ("diag", "degrevlex", "lex")
SEEDS = {"planted-seed-1.json": ("--seed", "1", "--planted"), "random-seed-2.json": ("--seed", "2")}


def _leadterms(dn: str) -> list:
    return [f"leadterms {dn} --order {order}{flag}" for order in ORDERS for flag in ("", " --k 2", " --reduced-only")]


def cases(sizes=STRETCH + FRONTIER) -> list:
    """The command lines of the grid at sizes, as strings, in table order."""
    out = []
    for d, n in sizes:
        dn = f"--d {d} --n {n}"
        if (d, n) in FRONTIER:
            out += [*_leadterms(dn), f"verify groebner {dn}"]
            continue
        out += [f"gens {dn} --format {fmt}" for fmt in FORMATS]
        out += _leadterms(dn)
        out += [f"walks {dn}", f"walks {dn} --reduced", f"components {dn}"]
        out += [f"verify {check} {dn}" for check in ("groebner", "elimination", "chart")]
        out += [f"eval {dn} --coeffs {name}" for name in SEEDS]
        out += [f"export --input gens-d{d}-n{n}.json --format {fmt}" for fmt in ("m2", "text")]
    return out


class _Digest(io.TextIOBase):
    """A text sink that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        return len(text)


class Runner:
    """Runs grid cases in process through cli.main. The files that the eval
    and export cases at one size read are written under folder once, by
    the first such case."""

    def __init__(self, folder: str):
        from resultantforge import cli

        self.cli, self.folder, self.paths = cli, folder, {}

    def _inputs(self, d: int, n: int) -> dict:
        paths, main = {}, self.cli.main
        for name, flags in SEEDS.items():
            paths[name] = os.path.join(self.folder, f"d{d}-n{n}-{name}")
            main(["sample", "--d", str(d), "--n", str(n), *flags, "-o", paths[name]])
        gens = f"gens-d{d}-n{n}.json"
        paths[gens] = os.path.join(self.folder, gens)
        main(["gens", "--d", str(d), "--n", str(n), "--format", "json", "-o", paths[gens]])
        return paths

    def __call__(self, case: str) -> dict:
        """{"exit": code, "sha256": hex} of one grid case."""
        argv = case.split()
        if argv[0] in ("eval", "export"):
            dn = tuple(map(int, re.search(r"(?:--d |gens-d)(\d+)(?: --n |-n)(\d+)", case).groups()))
            if dn not in self.paths:
                self.paths[dn] = self._inputs(*dn)
            argv = [self.paths[dn].get(a, a) for a in argv]
        sink = _Digest()
        with contextlib.redirect_stdout(sink):
            code = self.cli.main(argv)
        return {"exit": code, "sha256": sink.sha.hexdigest()}


def compute(selected) -> dict:
    """case -> digest, for each case of selected, in the order given."""
    with tempfile.TemporaryDirectory() as folder:
        run = Runner(folder)
        return {case: run(case) for case in selected}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    table = compute(cases())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    with open(DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump({"recorded_from": commit, "cases": table}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {os.path.relpath(DIGESTS_FILE, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
