"""The cyclolog benchmark: four fixed workloads of CLI jobs, every output checked.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every run of a workload starts a fresh
interpreter (``rep.py``), because a real ``cyclolog`` invocation pays the
per-modulus table cost each time.

``--trace 0`` repeats the workload in fresh interpreters for about
``--seconds`` seconds, sets up ``SETUP_SAMPLES`` more interpreters without
running jobs, and reports medians.  Times are reported at nominal host
speed: a short fixed computation that shares no code with cyclolog (the
speed probe) runs before and after every job, and each job's time is scaled
by the probe's nominal time over its measured time.  On the 2-vCPU virtual
machine this benchmark was built on, host speed drifts by up to a quarter
within a minute; the scaling cut the run-to-run spread of a workload's time
from 10-25% to 4-8%.  The times as measured are printed too.
``--trace 1`` runs the workload once untraced and once traced, and reports
the per-layer metrics; for ``scan`` the traced run uses one worker and is
preceded by an untraced one-worker run, which gives the parallel efficiency.

Without ``--workload`` every workload runs in turn.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it describe the environment, list any failed
job and print each metric by name with its unit.  The exit code is 1 if any
job fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import PLANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(PLANS)
# a run of one workload must end within 180 s; its interpreters share this limit
RUN_LIMIT_S = 165
MIN_REPS = 2
# set-up takes a fraction of a second, so a run sets up this many more times without jobs
SETUP_SAMPLES = 9


def declared(kind: str, values: Dict[str, float]) -> Dict[str, tuple]:
    """(value, unit) for each metric of ``kind`` that BENCHMARK.json declares, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec[kind]}


class BenchError(RuntimeError):
    pass


def run_rep(workload: str, seed: int, trace: bool = False, one_worker: bool = False,
            setup_only: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """One workload run in a fresh interpreter; returns the report ``rep.py`` printed."""
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--one-worker"] * one_worker + ["--setup-only"] * setup_only
    env = {k: v for k, v in os.environ.items() if k != "CYCLOLOG_PREC"}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        cmd += ["--workdir", workdir, "--launched", repr(time.monotonic())]
        # a session of its own, so a timeout also stops the scan's worker processes
        with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=max(1.0, timeout))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{workload} run did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} run exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit: Optional[str] = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() else ref[5:]
        else:
            commit = ref
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


# the speed probe's time (rep.speed_probe) at nominal host speed: about its
# median on a 2-vCPU 2.1 GHz Xeon VM with Python 3.11 and mpmath's python backend
PROBE_NOMINAL_S = 0.0025


def at_nominal_speed(rep: dict) -> dict:
    """Job times scaled to nominal host speed.

    Each job's time is multiplied by the nominal probe time over the mean of
    the probes taken just before and just after it.
    """
    probes = rep["probe_s"]
    factors = [PROBE_NOMINAL_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]
    return {key: [t * f for t, f in zip(rep[key], factors)] for key in ("job_wall_s", "job_cpu_s")}


def job_median_sum(reps: List[dict], key: str) -> float:
    """Sum over the job list of each job's median over the runs."""
    return sum(statistics.median(times) for times in zip(*(r[key] for r in reps)))


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    """Repeat the workload until the next run would end past ``seconds``.

    Returns the runs, the end-to-end metrics (times at nominal host speed,
    medians over the runs) and the times as measured, for display.
    """
    reps: List[dict] = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(workload, seed, timeout=deadline - time.monotonic()))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setups = [run_rep(workload, seed, setup_only=True, timeout=deadline - time.monotonic())
              for _ in range(SETUP_SAMPLES)]
    adjusted = [at_nominal_speed(r) for r in reps]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * PROBE_NOMINAL_S / r["probe_s"][0]
                                     for r in setups),
        "wall_s": job_median_sum(adjusted, "job_wall_s"),
        "cpu_s": job_median_sum(adjusted, "job_cpu_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "agree_bits_min": min(r["agree_bits_min"] for r in reps),
    }
    measured = {
        "measured.setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "measured.wall_s": (job_median_sum(reps, "job_wall_s"), "s"),
        "measured.cpu_s": (job_median_sum(reps, "job_cpu_s"), "s"),
        "runs": (len(reps), "count"),
    }
    return reps, declared("end_to_end", metrics), measured


def trace(workload: str, seed: int, deadline: float) -> tuple:
    """Untraced and traced runs; per-layer metrics with the trace's own overhead."""

    def rep(**kwargs) -> dict:
        return run_rep(workload, seed, timeout=deadline - time.monotonic(), **kwargs)

    def seconds(run: dict, command: Optional[str] = None) -> float:
        jobs = at_nominal_speed(run)["job_wall_s"]
        return sum(t for t, c in zip(jobs, run["commands"]) if command in (None, c))

    untraced = rep()
    reps = [untraced]
    if workload == "scan":
        untraced_1w = rep(one_worker=True)
        traced = rep(trace=True, one_worker=True)
        reps += [untraced_1w, traced]
        parallel_efficiency = seconds(untraced_1w, "scan") / (2 * seconds(untraced, "scan"))
        baseline = untraced_1w
    else:
        traced = rep(trace=True)
        reps.append(traced)
        parallel_efficiency = 0.0
        baseline = untraced
    layers = dict(traced["layers"])
    layers["scans.parallel_efficiency"] = parallel_efficiency
    layers["trace.overhead_ratio"] = seconds(traced) / seconds(baseline) - 1
    return reps, declared("per_layer", layers), {}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    if traced:
        reps, metrics, shown = trace(workload, seed, deadline)
    else:
        reps, metrics, shown = measure(workload, seed, seconds, deadline)
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    shown["error_rate"] = (len(failures) / attempted, "ratio")
    return attempted, failures, metrics, shown


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cyclolog" / "cli.py").is_file():
        print(f"error: no cyclolog sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment(args.seed)}), flush=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    attempted, failed = 0, 0
    combined: Dict[str, dict] = {}
    for workload in workloads:
        try:
            n, failures, metrics, shown = run_workload(workload, args.seed, args.seconds,
                                                       bool(args.trace))
        except (BenchError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        attempted += n
        failed += len(failures)
        for failure in failures:
            print(f"FAILED {workload}: {failure}")
        for name, (value, unit) in {**shown, **metrics}.items():
            print(f"{workload:12s} {name:32s} {value:.6g} {unit}")
        for name, (value, unit) in metrics.items():
            key = name if args.workload else f"{workload}.{name}"
            combined[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
