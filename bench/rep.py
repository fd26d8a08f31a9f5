"""One run of one workload in a fresh interpreter; prints one JSON line.

    python3 bench/rep.py --workload NAME --seed N --workdir DIR --launched T
                         [--trace] [--one-worker] [--setup-only]

``--launched`` is the ``time.monotonic()`` reading taken by the parent just
before it started this interpreter, so set-up time covers interpreter start,
``import cyclolog`` and input generation.  Each job calls
``cyclolog.cli.main(argv)`` in process with its stdout captured.  With
``--trace`` the layer functions are wrapped (see ``spans.py``) and the run
also reports per-layer counts and self times.  A speed probe runs before
every job and after the last (see ``run.at_nominal_speed``).  With
``--setup-only`` it stops when the first job is ready.  Files the jobs write,
such as the scan store, go under ``--workdir``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cyclolog.cli as cli  # noqa: E402
import mpmath  # noqa: E402

from spans import (  # noqa: E402
    LAYER_FUNCTIONS, RECOMPUTE_SPAN, STORE_VERIFY_SPAN, STORE_WRITE_SPAN, Tracer, lru_cache_entries,
)
from workloads import PLANS, SCAN_THREADS, JobResult, Plan, scan_plan  # noqa: E402


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children (scan workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _probe_once() -> float:
    """Seconds a fixed multiprecision computation takes now, the best of three tries.

    It is plain mpf arithmetic, which keeps no cache that a job could warm,
    and shares no code with cyclolog, so no change to the package moves it.
    The best of three ignores an interrupt that lands in one try.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        with mpmath.mp.workprec(320):
            a, b = mpmath.mpf(2) / 3, mpmath.mpf(5) / 7
            for _ in range(150):
                a, b = (a * b + 1) / (a + b), a - b / 3
        best = min(best, time.perf_counter() - start)
    return best


def speed_probe(cpus: List[int]) -> float:
    """The probe's mean time over ``cpus``, run on each in turn.

    On a virtual machine each CPU's speed drifts on its own, so the probe
    runs on the CPUs the next job will use.
    """
    if len(cpus) == 1:
        return _probe_once()
    mask = os.sched_getaffinity(0)
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(_probe_once())
    os.sched_setaffinity(0, mask)
    return sum(times) / len(times)


def run_jobs(plan: Plan, probes: List[float], cpus: List[int]) -> List[JobResult]:
    """Run the jobs back to back, with a speed probe into ``probes`` before each and after the last."""
    results: List[JobResult] = []
    for job in plan.jobs:
        probes.append(speed_probe(cpus))
        out, err = io.StringIO(), io.StringIO()
        argv: List[str] = []
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            argv = job(results) if callable(job) else job
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            error = None
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        cpu_seconds = _cpu_seconds() - cpu0
        if code not in (0, None) and err.getvalue():
            error = f"exit code {code}: {err.getvalue().strip()}"
        results.append(JobResult(argv, code, out.getvalue(), error, seconds, cpu_seconds))
    probes.append(speed_probe(cpus))
    return results


def layer_metrics(tracer: Tracer, plan: Plan, results: List[JobResult], rank_disagreements: int,
                  wall_s: float) -> dict:
    spans = tracer.summary()

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    seen, reused = set(), 0
    for q in plan.lseries_moduli:
        reused += q in seen
        seen.add(q)
    lll_ranks = sum(
        r.payload()["rank"] for r in results if r.code == 0 and r.argv[:1] == ["rank"]
    )
    store_bytes = os.path.getsize(plan.store) if plan.store and os.path.exists(plan.store) else 0
    # every span's count and self time; run.py keeps the ones BENCHMARK.json declares
    metrics: dict = {}
    for name in [*LAYER_FUNCTIONS, RECOMPUTE_SPAN]:
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    metrics.update({
        "kernel.recompute_ratio": ratio(calls(RECOMPUTE_SPAN), calls("kernel.classify_zero")),
        "lseries.table_reuse_share": ratio(reused, len(plan.lseries_moduli)),
        "scans.store.write_s": self_s(STORE_WRITE_SPAN),
        "scans.store.verify_s": self_s(STORE_VERIFY_SPAN),
        "scans.store.bytes": store_bytes,
        "dedekind.s_chi_evals_per_char": ratio(calls("dedekind.s_chi"), plan.even_characters),
        "intrel.lll_per_rank": ratio(calls("intrel.lll"), lll_ranks),
        "relations.rank_disagreements": rank_disagreements,
        "cache.entries": lru_cache_entries(),
        "trace.coverage": ratio(sum(s["self_s"] for s in spans.values()), wall_s),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--one-worker", action="store_true", help="scan with one worker process")
    parser.add_argument("--setup-only", action="store_true", help="stop when the first job is ready")
    args = parser.parse_args()

    if args.workload == "scan":
        plan = scan_plan(args.seed, args.workdir, 1 if args.one_worker else SCAN_THREADS)
    else:
        plan = PLANS[args.workload](args.seed, args.workdir)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": [_probe_once()]}))
        return 0
    # jobs of one process stay on one CPU, where the probe runs too;
    # a scan's workers use every CPU, so the probe runs on each
    cpus = sorted(os.sched_getaffinity(0))
    if args.workload != "scan" or args.one_worker:
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    probes: List[float] = []
    results = run_jobs(plan, probes, cpus)
    wall_s = sum(r.seconds for r in results)
    tracer.restore()
    outcome = plan.check(results)
    report = {
        "setup_s": setup_s,
        "job_wall_s": [r.seconds for r in results],
        "job_cpu_s": [r.cpu_seconds for r in results],
        "probe_s": probes,
        "peak_rss_mb": _peak_rss_mb(),
        "agree_bits_min": outcome.agree_bits_min,
        "attempted": len(results),
        "failures": [f"{' '.join(results[i].argv)[:120]}: {msg}"
                     for i, msg in sorted(outcome.failures.items())],
        "commands": [r.argv[0] if r.argv else None for r in results],
    }
    if args.trace:
        report["layers"] = layer_metrics(tracer, plan, results, outcome.rank_disagreements, wall_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
