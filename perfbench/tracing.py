"""In-memory spans around calls into the package's modules.

The program is not edited: for the traced run, public functions are
replaced at the place their caller binds them (for example the name
``is_groebner_basis`` in ``resultantforge.cli``) by a wrapper that records a
span, and are put back afterwards. Hot, cheap functions only get a call
count, which keeps the tracing overhead small.

A span is ``[name, parent index, start, end]``. Spans stay in a list until
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

# (owner of the binding under resultantforge, attribute, metric name, spanned).
# Spanned names get a span and a ".calls" count; the rest, hot and cheap,
# only a count.
BINDINGS = [
    ("cli", "is_groebner_basis", "groebner.is_groebner_basis", True),
    ("cli", "eliminate_x", "groebner.eliminate_x", True),
    ("cli", "ideal_equal", "groebner.ideal_equal", True),
    ("cli", "chart_equal", "groebner.chart_equal", True),
    ("cli", "enumerate_generators", "minors.enumerate_generators", True),
    ("cli", "generators_for_basis", "minors.generators_for_basis", True),
    ("cli", "membership_scan", "roots.membership_scan", True),
    ("exports", "export_ideal", "exports.export_ideal", True),  # cli calls exports.<name>
    ("exports", "from_json_doc", "exports.from_json_doc", True),
    ("groebner", "enumerate_generators", "minors.enumerate_generators", True),
    ("groebner", "top_minor_records", "minors.top_minor_records", True),
    ("groebner", "normal_form", "orders.normal_form", True),
    ("groebner", "s_polynomial", "groebner.s_polynomial", True),
    ("groebner", "buchberger", "groebner.buchberger", True),
    ("groebner", "is_groebner_basis", "groebner.is_groebner_basis", True),
    ("groebner", "ideal_equal", "groebner.ideal_equal", True),
    ("minors", "enumerate_walks", "walks.enumerate_walks", True),
    ("minors", "enumerate_reduced", "walks.enumerate_reduced", True),
    ("roots", "enumerate_generators", "minors.enumerate_generators", True),
    ("roots", "common_root_oracle", "roots.common_root_oracle", True),
    ("cli", "leading_term", "orders.leading_term.calls", False),
    ("groebner", "leading_term", "orders.leading_term.calls", False),
    ("orders", "leading_term", "orders.leading_term.calls", False),
    ("diagonal", "leading_term", "orders.leading_term.calls", False),
    ("poly.Polynomial", "evaluate", "poly.evaluate.calls", False),
]

def _measure_walks(counts: Counter, out) -> None:
    counts["walks.count"] += len(out)


def _measure_minors(counts: Counter, out) -> None:
    counts["minors.count"] += len(out)
    counts["minors.terms"] += sum(len(rec.poly.terms) for rec in out)


def _measure_normal_form(counts: Counter, out) -> None:
    if not out.is_zero:
        counts["groebner.nonzero_forms"] += 1


def _measure_buchberger(counts: Counter, out) -> None:
    counts["groebner.basis_out"] += len(out.certified_basis)


def _measure_export(counts: Counter, out) -> None:
    counts["exports.bytes"] += len(out)  # the formats are ASCII


MEASURES: Dict[str, Callable] = {
    "walks.enumerate_walks": _measure_walks,
    "walks.enumerate_reduced": _measure_walks,
    "minors.enumerate_generators": _measure_minors,
    "minors.generators_for_basis": _measure_minors,
    "minors.top_minor_records": _measure_minors,
    "orders.normal_form": _measure_normal_form,
    "groebner.buchberger": _measure_buchberger,
    "exports.export_ideal": _measure_export,
}


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = [-1]

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        measure = MEASURES.get(name)
        clock = time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            counts[calls] += 1
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                measure(counts, out)
            return out

        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every binding site for the duration of the block."""
        saved = []
        try:
            for owner_path, attr, name, spanned in BINDINGS:
                module, _, cls = owner_path.partition(".")
                owner = importlib.import_module("resultantforge." + module)
                if cls:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, (self.wrap if spanned else self.count)(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def job(self, fn: Callable) -> Callable:
        """Root span around one whole job: the CLI's own share."""
        return self.wrap(fn, "cli.main")

    def self_times(self) -> Dict[str, float]:
        """Self time summed per span name."""
        child: Dict[int, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for idx, (name, parent, start, end) in enumerate(self.spans):
            out[name] += end - start - child.get(idx, 0.0)
        return dict(out)

    def durations(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            out[name] += end - start
        return dict(out)


def raw_totals(tracer: Tracer) -> Dict[str, float]:
    """Per-layer totals over everything the tracer saw."""
    self_s = tracer.self_times()
    dur = tracer.durations()
    c = tracer.counts

    def total(prefix: str, table: Dict[str, float]) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    return {
        "walks.count": c["walks.count"],
        "walks.enumerate_s": total("walks.", dur),
        "minors.count": c["minors.count"],
        "minors.terms": c["minors.terms"],
        "minors.expand_s": total("minors.", self_s),
        "orders.normal_form.calls": c["orders.normal_form.calls"],
        "orders.normal_form_s": dur.get("orders.normal_form", 0.0),
        "orders.leading_term.calls": c["orders.leading_term.calls"],
        "groebner.s_polynomial.calls": c["groebner.s_polynomial.calls"],
        "groebner.s_polynomial_s": dur.get("groebner.s_polynomial", 0.0),
        "groebner.is_groebner_basis_self_s": self_s.get("groebner.is_groebner_basis", 0.0),
        "groebner.buchberger.calls": c["groebner.buchberger.calls"],
        "groebner.buchberger_self_s": self_s.get("groebner.buchberger", 0.0),
        "groebner.basis_out": c["groebner.basis_out"],
        "groebner.nonzero_forms": c["groebner.nonzero_forms"],
        "groebner.self_s": total("groebner.", self_s),
        "roots.tuples": c["roots.membership_scan.calls"],
        "roots.membership_scan_self_s": self_s.get("roots.membership_scan", 0.0),
        "roots.common_root_oracle_s": dur.get("roots.common_root_oracle", 0.0),
        "poly.evaluate.calls": c["poly.evaluate.calls"],
        "exports.bytes": c["exports.bytes"],
        "exports.export_ideal_s": dur.get("exports.export_ideal", 0.0),
        "exports.from_json_doc_s": dur.get("exports.from_json_doc", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.spans": len(tracer.spans),
        "trace.job_s": dur.get("cli.main", 0.0),
        "trace.self_sum_s": sum(self_s.values()),
    }


def per_deck(raw: Dict[str, float], decks: int) -> Dict[str, float]:
    """Totals (possibly summed over several workers) as per-layer metrics."""
    out = {k: v / decks for k, v in raw.items() if k != "trace.self_sum_s"}
    calls = raw["orders.normal_form.calls"]
    out["groebner.nonzero_ratio"] = raw["groebner.nonzero_forms"] / calls if calls else 0.0
    return out


# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("walks.count", "minors.count", "minors.terms", "groebner.s_polynomial.calls",
                "orders.normal_form.calls", "orders.leading_term.calls", "groebner.basis_out",
                "groebner.nonzero_forms", "roots.tuples", "poly.evaluate.calls", "exports.bytes",
                "trace.spans")

