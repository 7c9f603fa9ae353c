"""Closed-loop benchmark of resultantforge CLI jobs.

One client in one thread runs CLI jobs back to back, in process, through
``resultantforge.cli.main(argv)`` with stdout captured, and checks every
output. A run is a fixed number of decks (see workloads.deck_count), shared
by worker interpreters with fixed hash seeds, played one after another. Run
from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (tools in tracing.py) with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
DEFAULT_SECONDS = 28
JOB_CAP_S = 20.0  # hard per-job wall-clock cap; the slowest job today takes about 2.5 s
# The run is shared by one worker interpreter per hash seed, played one after
# another. String hashing moves the package's dict and set layouts, which
# changes job times by up to a third; a fixed set of seeds keeps that out of
# the run-to-run spread without betting on one layout. Each worker times its
# own set-up, and the median is reported.
HASH_SEEDS = (1, 2, 3, 4)
TAIL_BEYOND = 10  # the tail percentile is the highest with this many jobs beyond it


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class JobResult(NamedTuple):
    cls: str
    seconds: float
    error: Optional[str]


def import_program():
    sys.path.insert(0, SRC)
    from resultantforge import cli

    return cli


def execute(main: Callable, job: workloads.Job, digests: dict) -> JobResult:
    """Run one job under the hard cap and check its output.

    Garbage from earlier jobs is collected first, outside the timer, so each
    job starts from the clean heap a fresh CLI process would have."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(job.argv))
        seconds = time.perf_counter() - start
    except JobTimeout:
        return JobResult(job.cls, time.perf_counter() - start, "timeout")
    except Exception as exc:  # the job failed; the run goes on
        return JobResult(job.cls, time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        error = workloads.check(job, rc, out.getvalue(), digests["jobs"], digests["generators"])
    except (ValueError, KeyError, TypeError) as exc:
        error = f"unreadable output: {exc}"
    if error and err.getvalue():
        error += f" ({err.getvalue().strip()[:200]})"
    return JobResult(job.cls, seconds, error)


def setup_inputs(cli) -> Callable:
    def run(argv: List[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"set-up job {' '.join(argv)} exited {rc}")

    return run


@contextlib.contextmanager
def workdir():
    path = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git checkout. Git does
    not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": git_commit(),
        "run_seconds": args.seconds,
        "job_cap_s": JOB_CAP_S,
    }


def spawn(args, extra: List[str], hash_seed: int) -> str:
    """Run this script in a fresh interpreter with a fixed hash seed; its stdout."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(argv + extra, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout


def tail(times: List[float]):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[TAIL_BEYOND], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def summarize_classes(results: List[JobResult]) -> Dict[str, dict]:
    by_cls = defaultdict(list)
    for r in results:
        by_cls[r.cls].append(r.seconds)
    return {cls: {"jobs": len(v), "p50_s": statistics.median(v)} for cls, v in sorted(by_cls.items())}


def play(cli, source, digests, decks: range) -> dict:
    """Untraced decks."""
    results: List[JobResult] = []
    rates: List[float] = []
    for i in decks:
        jobs = [execute(cli.main, job, digests) for job in source.deck(i)]
        rates.append(len(jobs) / sum(r.seconds for r in jobs))
        results.extend(jobs)
    return {"jobs": results, "decks": len(decks), "deck_rates": rates}


def play_traced(cli, source, digests, decks: range) -> dict:
    """Each deck twice, untraced and traced. Which goes first alternates from
    deck to deck and from worker to worker (``decks.start`` is the worker
    index), so warm-up does not bias the overhead."""
    tracer = tracing.Tracer()
    untraced: List[JobResult] = []
    traced: List[JobResult] = []
    for turn, i in enumerate(decks, start=decks.start):
        jobs = source.deck(i)
        for with_trace in ((False, True) if turn % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed():
                    main = tracer.job(cli.main)
                    traced.extend(execute(main, job, digests) for job in jobs)
            else:
                untraced.extend(execute(cli.main, job, digests) for job in jobs)
    return {"jobs": untraced + traced, "decks": len(decks), "raw": tracing.raw_totals(tracer),
            "untraced_s": sum(r.seconds for r in untraced),
            "traced_s": sum(r.seconds for r in traced)}


def worker(args) -> int:
    """Decks ``worker``, ``worker + len(HASH_SEEDS)``, ... of the run in this
    interpreter; prints its raw results. Set-up is timed from the program's
    import until the first job is about to run."""
    digests = workloads.load_digests()
    signal.signal(signal.SIGALRM, _on_alarm)
    # a traced run plays every deck twice, so half as many decks
    seconds = args.seconds / 2 if args.trace else args.seconds
    total = workloads.deck_count(args.workload, seconds, minimum=len(HASH_SEEDS))
    decks = range(args.worker, total, len(HASH_SEEDS))
    start = time.perf_counter()
    cli = import_program()
    with workdir() as path:
        source = workloads.JobSource(args.workload, args.seed, path, setup_inputs(cli))
        setup_s = time.perf_counter() - start
        part = (play_traced if args.trace else play)(cli, source, digests, decks)
    part["setup_s"] = setup_s
    part["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(part))
    return 0


def run_workload(args) -> int:
    parts = [json.loads(spawn(args, ["--worker", str(k)], hs).splitlines()[-1])
             for k, hs in enumerate(HASH_SEEDS)]
    results = [JobResult(*job) for part in parts for job in part["jobs"]]
    decks = sum(part["decks"] for part in parts)
    failures = [r for r in results if r.error]
    detail = {"decks": decks, "jobs": len(results), "fail_frac": len(failures) / len(results),
              "failures": [f"{r.cls}: {r.error}" for r in failures[:20]],
              "classes": summarize_classes(results)}
    if args.trace:
        raw = {k: sum(part["raw"][k] for part in parts) for k in parts[0]["raw"]}
        metrics = tracing.per_deck(raw, decks)
        untraced_s = sum(part["untraced_s"] for part in parts)
        metrics["trace.overhead_frac"] = 1.0 - untraced_s / sum(part["traced_s"] for part in parts)
        detail.update(untraced_job_s=untraced_s / decks, self_sum_s=raw["trace.self_sum_s"] / decks)
    else:
        times = [r.seconds for r in results]
        tail_s, detail["tail_percentile"] = tail(times)
        metrics = {
            "jobs_per_s": statistics.median(rate for part in parts for rate in part["deck_rates"]),
            "job_s.p50": statistics.median(times),
            "job_s.tail": tail_s,
            "setup_s": statistics.median(part["setup_s"] for part in parts),
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        }
        detail["setup_samples_s"] = [part["setup_s"] for part in parts]
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    env = environment(args)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(env, sort_keys=True))
    for name, m in out.items():
        print(f"{args.workload:10s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:10s} {'fail_frac':36s} {detail['fail_frac']:>16.6g} ratio"
          f"   ({len(failures)} of {len(results)} jobs)")
    if "tail_percentile" in detail:
        print(f"{args.workload:10s} job_s.tail is p{detail['tail_percentile']:.2f} of {len(results)} jobs")
    for cls, c in detail["classes"].items():
        print(f"{args.workload:10s}   {cls:30s} {c['jobs']:5d} jobs  p50 {c['p50_s']:.6f} s")
    for line in detail["failures"]:
        print(f"{args.workload:10s} FAILED {line}")
    result = {"correct": not failures, "attempted": len(results), "failed": len(failures),
              "metrics": out}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      env=env, detail=detail)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table of every metric."""
    rows, total, failed = {}, 0, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total += result["attempted"]
        failed += result["failed"]
        result["metrics"]["fail_frac"] = {"value": result["failed"] / result["attempted"],
                                          "unit": "ratio"}
        for metric, m in result["metrics"].items():
            rows[f"{name}.{metric}"] = m
    print("\nworkload   metric                                          value unit")
    for key, m in rows.items():
        name, metric = key.split(".", 1)
        print(f"{name:10s} {metric:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": total, "failed": failed, "metrics": rows}))
    return 0


def collect_digests(seed: int, keep=()) -> Tuple[dict, Dict[str, str]]:
    """Every distinct job of every workload once, and once more to show that a
    repeat in the same process is byte-identical. Returns the stdout digest
    per job, generator counts per size and the job-list fingerprints of two
    seeds, and the stdout text of the jobs whose keys are in ``keep``."""
    cli = import_program()
    texts: Dict[str, str] = {}
    digests, sizes, fingerprints, repeats_differ, failures = {}, {}, {}, [], []
    with workdir() as path:
        for name in workloads.WORKLOADS:
            source = workloads.JobSource(name, seed, path, setup_inputs(cli))
            for idx, job in enumerate(source.deck(0)):
                outs = []
                for _ in range(2):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = cli.main(list(job.argv))
                    outs.append((rc, buf.getvalue()))
                rc, text = outs[0]
                key = job.key or f"{name}#{idx} {job.cls}"
                digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
                if key in keep:
                    texts[key] = text
                if outs[0] != outs[1]:
                    repeats_differ.append(key)
                if rc != 0:
                    failures.append(f"{key}: exit code {rc}")
                elif job.argv[0] == "gens" and job.argv[-1] == "json":
                    sizes["%d,%d" % job.dn] = len(json.loads(text)["generators"])
                elif job.expect is not None:
                    error = workloads.check(job, rc, text, {}, sizes)
                    if error:
                        failures.append(f"{key}: {error}")
            fingerprints[name] = [workloads.JobSource(name, s, path, lambda argv: None).fingerprint(3)
                                  for s in (seed, seed + 1)]
    return ({"jobs": digests, "generators": sizes, "fingerprints": fingerprints,
             "repeats_differ": repeats_differ, "failures": failures}, texts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="run length on the reference host; sets the number of decks")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record (with environment) to this JSONL file")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--digests", action="store_true",
                        help="print the output digest of every distinct job and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "resultantforge", "cli.py")):
        print(f"error: no program under {SRC}; run from a full checkout", file=sys.stderr)
        return 1
    if args.digests:
        print(json.dumps(collect_digests(args.seed)[0], sort_keys=True))
        return 0
    if args.worker is not None:
        return worker(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
