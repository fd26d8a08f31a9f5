"""The benchmark's four workloads: their job lists, output checks and route agreement.

A job is the argument list of one ``cyclolog`` invocation.  A workload is a
fixed list of jobs that run back to back in one process (a closed loop with
one client).  Each workload is chosen so that a different set of package
modules dominates its time:

* ``scan``: the sign-function scan at q = 15, twice on one store (``scans``).
* ``certificate``: independence certificates for the odd primes up to 101
  (``dedekind`` and ``characters``).
* ``lseries``: seeded integer functions for four moduli by the digamma,
  Fourier and direct routes (the per-modulus tables in ``lseries``).
* ``lattice``: constructed relations and lattice-search ranks (``relations``
  and ``intrel``).

Only the ``lseries`` functions depend on the seed; the program sees just the
generated ``--f`` values.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2
from typing import Callable, Dict, List, Optional, Sequence, Union

SCAN_Q = 15
SCAN_PREC = 192
SCAN_THREADS = 2
CERT_PREC = 128
CERT_MAX_PRIME = 101
LSERIES_MODULI = (120, 180, 240, 300)
LSERIES_PREC = 256
FUNCTIONS_PER_MODULUS = 3
LATTICE_MAX_MODULUS = 96
# q = 20, 30, 42 and 45 are kept on purpose: there the constructed rank is
# below the lattice-search rank, and the benchmark counts that defect.
RANK_MODULI = (20, 30, 36, 40, 42, 44, 45, 46)
RANK_PREC = 256


@dataclass
class JobResult:
    argv: List[str]
    code: Optional[int]
    stdout: str
    error: Optional[str]
    seconds: float
    cpu_seconds: float

    def payload(self) -> dict:
        """The JSON object the job printed (its last non-empty stdout line)."""
        lines = [line for line in self.stdout.splitlines() if line.strip()]
        if not lines:
            raise ValueError("job printed nothing")
        return json.loads(lines[-1])


Job = Union[List[str], Callable[[List[JobResult]], List[str]]]


@dataclass
class Outcome:
    """What the checks found: a failure message per failed job index, and the
    smallest agreement in bits between independent routes."""

    failures: Dict[int, str]
    agree_bits_min: float
    rank_disagreements: int = 0


@dataclass
class Plan:
    jobs: List[Job]
    check: Callable[[List[JobResult]], Outcome]
    # moduli of the lseries jobs in order, for the table-reuse share
    lseries_moduli: Sequence[int] = ()
    # total count of even characters over the certificate jobs
    even_characters: int = 0
    # the scan store both scan passes use
    store: Optional[str] = None


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def agree_bits(a: str, b: str, prec: int) -> float:
    """Bits to which two decimal renderings agree, relative to the larger, capped at prec."""
    x, y = Fraction(a), Fraction(b)
    scale = max(abs(x), abs(y))
    if x == y or scale == 0:
        return float(prec)
    return min(float(prec), -log2(abs(x - y) / scale))


def _check_jobs(results: List[JobResult], per_job: Callable[[int, JobResult, dict], Optional[str]]):
    """Run ``per_job`` on every job that exited 0 with a JSON payload; collect failures."""
    failures: Dict[int, str] = {}
    payloads: Dict[int, dict] = {}
    for i, res in enumerate(results):
        if res.error is not None:
            failures[i] = res.error
            continue
        if res.code != 0:
            failures[i] = f"exit code {res.code}"
            continue
        try:
            payloads[i] = res.payload()
        except ValueError as exc:
            failures[i] = f"unparseable output: {exc}"
            continue
        problem = per_job(i, res, payloads[i])
        if problem is not None:
            failures[i] = problem
    return failures, payloads


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def scan_plan(seed: int, workdir: str, threads: int = SCAN_THREADS) -> Plan:
    store = os.path.join(workdir, "scan-store.jsonl")
    scan_cmd = ["scan", "--q", str(SCAN_Q), "--prec", str(SCAN_PREC),
                "--threads", str(threads), "--store", store]

    def fourier_job(results: List[JobResult]) -> List[str]:
        signs = results[0].payload()["argmin_signs"]
        values = ",".join(str(s) for s in list(signs) + [0])
        return ["lseries", "--q", str(SCAN_Q), f"--f={values}", "--route", "fourier",
                "--prec", str(SCAN_PREC)]

    expected = comb(SCAN_Q - 1, (SCAN_Q - 1) // 2)

    def per_job(i: int, res: JobResult, payload: dict) -> Optional[str]:
        if i < 2 and payload.get("admissible_count") != expected:
            return f"admissible_count {payload.get('admissible_count')} != {expected}"
        return None

    def check(results: List[JobResult]) -> Outcome:
        failures, payloads = _check_jobs(results, per_job)
        agree = float(SCAN_PREC)
        if not failures:
            with open(store, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            if len(records) != expected:
                failures[1] = f"store holds {len(records)} records, expected {expected}"
            argmin = payloads[0]["argmin_signs"]
            if payloads[1]["argmin_signs"] != argmin:
                failures[1] = "the verify pass found another argmin"
            stored = next((r["L"] for r in records if r["signs"] == argmin), None)
            if stored is None:
                failures[2] = "argmin function missing from the store"
            else:
                agree = agree_bits(stored, payloads[2]["L"], SCAN_PREC)
                if agree < SCAN_PREC / 2:
                    failures[2] = f"stored L and fourier L agree to only {agree:.1f} bits"
        return Outcome(failures, agree)

    return Plan([scan_cmd, list(scan_cmd), fourier_job], check, store=store)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def certificate_plan(seed: int, workdir: str) -> Plan:
    primes = [p for p in range(3, CERT_MAX_PRIME + 1) if is_prime(p)]
    jobs = [["certificate", "--p", str(p), "--prec", str(CERT_PREC)] for p in primes]

    def per_job(i: int, res: JobResult, payload: dict) -> Optional[str]:
        if payload.get("rational_dependence_excluded") is not True:
            return "rational dependence not excluded"
        if payload.get("det_agree") is not True:
            return "determinant routes disagree"
        return None

    def check(results: List[JobResult]) -> Outcome:
        failures, payloads = _check_jobs(results, per_job)
        bits = [agree_bits(p["det_direct"], p["det_product"], CERT_PREC) for p in payloads.values()]
        return Outcome(failures, min(bits, default=0.0))

    # the even characters mod p are the characters of (Z/pZ)*/{+-1}
    return Plan(jobs, check, even_characters=sum((p - 1) // 2 for p in primes))


# ---------------------------------------------------------------------------
# lseries
# ---------------------------------------------------------------------------

def seeded_function(rng: random.Random, q: int) -> List[int]:
    """A nonzero integer function mod q with zero mean: f(a) = v(a) - v(pi(a))
    for random values v and a random permutation pi, so f(1) may be negative."""
    while True:
        v = [rng.randint(-9, 9) for _ in range(q)]
        perm = list(range(q))
        rng.shuffle(perm)
        f = [v[a] - v[perm[a]] for a in range(q)]
        if any(f):
            return f


def lseries_plan(seed: int, workdir: str) -> Plan:
    rng = random.Random(seed)
    jobs: List[Job] = []
    moduli: List[int] = []
    # per function: the job indices of its digamma, fourier and direct (or None) routes
    groups = []
    for q in LSERIES_MODULI:
        for n in range(FUNCTIONS_PER_MODULUS):
            values = ",".join(str(v) for v in seeded_function(rng, q))
            routes = ("digamma", "fourier", "direct") if n == 0 else ("digamma", "fourier")
            indices = []
            for route in routes:
                indices.append(len(jobs))
                jobs.append(["lseries", "--q", str(q), f"--f={values}", "--route", route,
                             "--prec", str(LSERIES_PREC)])
                moduli.append(q)
            groups.append(indices + [None] * (3 - len(indices)))

    def check(results: List[JobResult]) -> Outcome:
        failures, payloads = _check_jobs(results, lambda i, res, payload: None)
        bits: List[float] = []
        for dig, fou, direct in groups:
            if dig not in payloads or fou not in payloads:
                continue
            exact = payloads[dig]["L"]
            agree = agree_bits(exact, payloads[fou]["L"], LSERIES_PREC)
            bits.append(agree)
            if agree < LSERIES_PREC / 2:
                failures[fou] = f"digamma and fourier agree to only {agree:.1f} bits"
            if direct in payloads:
                miss = abs(Fraction(payloads[direct]["L"]) - Fraction(exact))
                if miss > Fraction(payloads[direct]["tail_bound"]):
                    failures[direct] = f"direct route misses by {float(miss):.3e}, beyond its tail_bound"
        return Outcome(failures, min(bits, default=0.0))

    return Plan(jobs, check, lseries_moduli=moduli)


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def lattice_plan(seed: int, workdir: str) -> Plan:
    composites = [q for q in range(6, LATTICE_MAX_MODULUS + 1) if not is_prime(q)]
    jobs: List[Job] = [["relations", "--q", str(q)] for q in composites]
    jobs += [["rank", "--q", str(q), "--prec", str(RANK_PREC)] for q in RANK_MODULI]

    def per_job(i: int, res: JobResult, payload: dict) -> Optional[str]:
        if payload["command"] == "relations":
            bad = [r["provenance"] for r in payload["relations"] if r["class"] != "Zero"]
            if bad:
                return f"relations not classified Zero: {bad}"
        return None

    def check(results: List[JobResult]) -> Outcome:
        failures, payloads = _check_jobs(results, per_job)
        bits = [
            -r["residual_bits"]
            for p in payloads.values() if p["command"] == "relations"
            for r in p["relations"] if r["residual_bits"] is not None
        ]
        constructed = {p["q"]: p["rank"] for p in payloads.values() if p["command"] == "relations"}
        searched = {p["q"]: p["rank"] for p in payloads.values() if p["command"] == "rank"}
        disagreements = sum(1 for q, r in searched.items() if constructed.get(q) != r)
        return Outcome(failures, float(min(bits, default=0)), disagreements)

    return Plan(jobs, check)


PLANS = {
    "scan": scan_plan,
    "certificate": certificate_plan,
    "lseries": lseries_plan,
    "lattice": lattice_plan,
}
