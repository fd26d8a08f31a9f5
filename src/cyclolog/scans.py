"""Exhaustive scans of +-1 periodic functions and their L(1, f) values.

A sign function mod q takes values in {-1, +1} off the multiples of q and
0 on them; convergence of sum f(n)/n forces the q-1 signs to balance, so
admissible functions exist only for odd q and number C(q-1, (q-1)/2).
The scan evaluates L(1, f) for every one of them, classifies each value,
and reports the minimum |L|.

Each scanned function also carries its cotangent and cosine sums: for
prime period, exactly one of "L is nonzero" / "all those trig sums
vanish" can hold, and :func:`dichotomy` decides which.  The functions
with vanishing L among odd algebraic-valued ones are spanned by the
classical kernel family built by :func:`bbw_function`; their L-values and
trig sums all classify Zero (numeric-only evidence, by construction).

Scans are embarrassingly parallel over sign vectors.  Worker processes
(not threads: the arithmetic context is process-global) emit one JSON
record per function, merged in enumeration order, so output bytes do not
depend on the worker count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from .characters import PeriodicFunction, is_prime
from .kernel import (
    NONZERO,
    Real,
    ZeroClass,
    classify_zero,
    dec_str,
    decimal_digits,
    working_prec,
)
from .lseries import NonConvergentSeriesError, l1_digamma_raw, trig_sums_raw
from .serialize import canonical_json


class DichotomyContradictionError(RuntimeError):
    """L(1,f) classified Zero while some trig sum classified NonZero.

    That combination is impossible for prime period; reaching it means a
    broken invariant, so the caller must abort, not continue.
    """


class InconclusiveClassificationError(RuntimeError):
    """A classification came back Indeterminate where a verdict was needed."""


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def admissible_count(q: int) -> int:
    """Number of zero-mean sign functions mod q: C(q-1, (q-1)/2), 0 for even q."""
    if q % 2 == 0:
        return 0
    return comb(q - 1, (q - 1) // 2)


def sign_function(q: int, signs: Sequence[int]) -> PeriodicFunction:
    """The sign vector (f(1), ..., f(q-1)) as a periodic function with f(q) = 0."""
    if len(signs) != q - 1 or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be q-1 values in {-1, +1}")
    return PeriodicFunction(q, tuple(Fraction(s) for s in signs) + (Fraction(0),))


def _signs_from_positions(q: int, positions: Tuple[int, ...]) -> Tuple[int, ...]:
    plus = set(positions)
    return tuple(1 if i in plus else -1 for i in range(q - 1))


def enumerate_sign_functions(q: int) -> Iterator[PeriodicFunction]:
    """All admissible sign functions mod q, in lexicographic order of the
    +1 position sets; empty for even q (parity obstruction)."""
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    if q % 2 == 0:
        return
    half = (q - 1) // 2
    for positions in combinations(range(q - 1), half):
        yield sign_function(q, _signs_from_positions(q, positions))


# ---------------------------------------------------------------------------
# trig sums and the nonzero-or-trivial dichotomy
# ---------------------------------------------------------------------------

def _classify_l(f: PeriodicFunction, prec: int) -> Tuple[mpmath.mpf, ZeroClass]:
    wp = working_prec(prec)
    value = l1_digamma_raw(f, wp)
    cls = classify_zero(Real(value, wp), prec, recompute=lambda w: l1_digamma_raw(f, w))
    return value, cls


BRANCH_L_NONZERO = "L_nonzero"
BRANCH_TRIG_VANISH = "trig_sums_vanish"


@dataclass(frozen=True)
class DichotomyVerdict:
    cot_sum: Real
    cos_sums: Dict[int, Real]
    l_value: Real
    branch: str
    l_class: ZeroClass
    trig_classes: Dict[str, ZeroClass]


def dichotomy(f: PeriodicFunction, prec: int = 128) -> DichotomyVerdict:
    """For prime period: decide "L(1,f) nonzero" vs "all trig sums vanish".

    Exactly one branch holds at the tested precision.  Observing both
    sides violated raises DichotomyContradictionError; an Indeterminate
    L-value raises InconclusiveClassificationError.
    """
    p = f.period
    if not is_prime(p) or p == 2:
        raise ValueError(f"period must be an odd prime, got {p}")
    if not f.has_zero_mean():
        raise NonConvergentSeriesError("sum f(a) over a period must vanish")
    wp = working_prec(prec)
    l_raw, l_class = _classify_l(f, prec)
    cot, cos_sums = trig_sums_raw(f, wp)

    def named(sums) -> Dict[str, mpmath.mpf]:
        return {"cot": sums[0], **{f"cos_{b}": v for b, v in sums[1].items()}}

    # one doubled-precision evaluation of every sum, made on first need
    doubled: Dict[int, Dict[str, mpmath.mpf]] = {}

    def witness(name: str, w: int) -> mpmath.mpf:
        if w not in doubled:
            doubled[w] = named(trig_sums_raw(f, w))
        return doubled[w][name]

    trig_classes: Dict[str, ZeroClass] = {
        name: classify_zero(Real(v, wp), prec, recompute=lambda w, name=name: witness(name, w))
        for name, v in named((cot, cos_sums)).items()
    }

    if l_class.is_nonzero:
        branch = BRANCH_L_NONZERO
    elif l_class.is_zero:
        offenders = [k for k, c in trig_classes.items() if c.is_nonzero]
        if offenders:
            raise DichotomyContradictionError(
                f"L(1,f) classified Zero but trig sums {offenders} classified NonZero "
                f"for period {p}; this contradicts the certified independence"
            )
        if any(c.is_indeterminate for c in trig_classes.values()):
            raise InconclusiveClassificationError(
                "L(1,f) is Zero but some trig sums are Indeterminate; raise precision"
            )
        branch = BRANCH_TRIG_VANISH
    else:
        raise InconclusiveClassificationError(
            "L(1,f) classified Indeterminate; raise precision"
        )
    with mp.workprec(prec):
        return DichotomyVerdict(
            cot_sum=Real(+cot, prec),
            cos_sums={b: Real(+v, prec) for b, v in cos_sums.items()},
            l_value=Real(+l_raw, prec),
            branch=branch,
            l_class=l_class,
            trig_classes=trig_classes,
        )


# ---------------------------------------------------------------------------
# kernel functions of f -> L(1, f) among odd algebraic-valued functions
# ---------------------------------------------------------------------------

def bbw_function(q: int, l: int, prec: int = 128) -> PeriodicFunction:
    """The classical odd kernel function f_l mod q, evaluated numerically.

    Odd q:  f_l(n) = (-1)^(n-1) (sin(n pi/q) / sin(pi/q))^l,   l = 3, 5, .., q-2.
    Even q: the same times cos(n pi/q)/cos(pi/q),              l = 3, 5, .., q-1.

    Values are Reals at working precision; f_l is odd by construction
    (the upper half mirrors the lower half exactly), so the L-vanishing
    evidence these functions provide is numeric, not symbolic.
    """
    if l % 2 == 0 or l < 3:
        raise ValueError(f"l must be odd and >= 3, got {l}")
    hi = q - 2 if q % 2 == 1 else q - 1
    if l > hi:
        raise ValueError(f"l must be <= {hi} for q = {q}, got {l}")
    wp = working_prec(prec)
    vals: List[Real] = [Real(mpmath.mpf(0), wp) for _ in range(q)]
    with mp.workprec(wp):
        s1 = mpmath.sinpi(mpmath.mpf(1) / q)
        c1 = mpmath.cospi(mpmath.mpf(1) / q) if q % 2 == 0 else None
        for n in range(1, (q + 1) // 2):
            v = (mpmath.sinpi(mpmath.mpf(n) / q) / s1) ** l
            if c1 is not None:
                v *= mpmath.cospi(mpmath.mpf(n) / q) / c1
            if n % 2 == 0:
                v = -v
            vals[n - 1] = Real(v, wp)
            vals[q - n - 1] = Real(-v, wp)
        # f(q/2) for even q has a cos(pi/2) factor; f(q) sits on a zero of sin
    return PeriodicFunction(q, tuple(vals))


# ---------------------------------------------------------------------------
# the scan itself
# ---------------------------------------------------------------------------

def _record_line(q: int, positions: Tuple[int, ...], prec: int) -> str:
    """One canonical JSON record for a sign vector; pure in (q, positions, prec)."""
    signs = _signs_from_positions(q, positions)
    f = sign_function(q, signs)
    wp = working_prec(prec)
    value, cls = _classify_l(f, prec)
    cot, cos_sums = trig_sums_raw(f, wp)
    digits = decimal_digits(prec)
    record = {
        "q": q,
        "signs": list(signs),
        "L": dec_str(value, digits),
        "prec": prec,
        "class": cls.tag,
        "cot_sum": dec_str(cot, digits),
        "cos_sums": [dec_str(cos_sums[b], digits) for b in sorted(cos_sums)],
    }
    return canonical_json(record)


def _record_line_star(args: Tuple[int, Tuple[int, ...], int]) -> str:
    return _record_line(*args)


@dataclass(frozen=True)
class ScanReport:
    q: int
    prec: int
    admissible_count: int
    min_abs_l: Optional[Real]
    argmin_signs: Optional[Tuple[int, ...]]
    class_counts: Dict[str, int]
    reason: Optional[str] = None
    records: Optional[Tuple[str, ...]] = None

    @property
    def all_nonzero(self) -> Optional[bool]:
        return None if self.reason is not None else set(self.class_counts) <= {NONZERO}

    def to_payload(self, include_records: bool = False) -> dict:
        if self.reason is not None:
            return {"q": self.q, "admissible_count": self.admissible_count, "reason": self.reason}
        payload = {
            "q": self.q,
            "prec": self.prec,
            "admissible_count": self.admissible_count,
            "min_abs_L": self.min_abs_l.to_decimal() if self.min_abs_l is not None else None,
            "argmin_signs": list(self.argmin_signs) if self.argmin_signs else None,
            "all_nonzero": self.all_nonzero,
        }
        if include_records and self.records is not None:
            payload["records"] = [json.loads(r) for r in self.records]
        return payload


SCAN_BOUND = 17  # desk scale: the count is a central binomial


def scan(
    q: int,
    prec: int = 192,
    workers: int = 1,
    store: Optional["ScanStore"] = None,
) -> ScanReport:
    """Evaluate and classify L(1, f) for every admissible sign function mod q.

    Deterministic for any worker count: records are produced per function
    by a pure function and merged in enumeration order.
    """
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    if q > SCAN_BOUND:
        raise ValueError(
            f"q = {q} exceeds the scan bound {SCAN_BOUND} "
            "(count grows as a central binomial)"
        )
    if q % 2 == 0:
        return ScanReport(
            q=q, prec=prec, admissible_count=0, min_abs_l=None,
            argmin_signs=None, class_counts={}, reason="parity",
        )
    half = (q - 1) // 2
    all_positions = list(combinations(range(q - 1), half))
    if workers > 1:
        args = [(q, pos, prec) for pos in all_positions]
        chunk = max(1, len(args) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            lines = list(pool.map(_record_line_star, args, chunksize=chunk))
    else:
        lines = [_record_line(q, pos, prec) for pos in all_positions]

    if store is not None:
        store.merge(lines)

    wp = working_prec(prec)
    min_abs: Optional[mpmath.mpf] = None
    argmin: Optional[Tuple[int, ...]] = None
    counts: Dict[str, int] = {}
    with mp.workprec(wp):
        for line in lines:
            rec = json.loads(line)
            val = abs(mpmath.mpf(rec["L"]))
            counts[rec["class"]] = counts.get(rec["class"], 0) + 1
            if min_abs is None or val < min_abs:
                min_abs = val
                argmin = tuple(rec["signs"])
    with mp.workprec(prec):
        min_real = Real(+min_abs, prec) if min_abs is not None else None
    return ScanReport(
        q=q,
        prec=prec,
        admissible_count=len(lines),
        min_abs_l=min_real,
        argmin_signs=argmin,
        class_counts=counts,
        records=tuple(lines),
    )


class ScanStoreDisagreement(RuntimeError):
    """A stored scan record differs from its recomputation."""


def _record_key(line: str) -> Tuple:
    rec = json.loads(line)
    return rec["q"], tuple(rec["signs"]), rec["prec"]


class ScanStore:
    """Append-only JSONL store of scan records; reruns verify, never duplicate."""

    def __init__(self, path: str):
        self.path = path

    def merge(self, lines: Sequence[str]) -> int:
        """Append unseen records.  A stored line that is not a record
        (named by its 1-based number) or that disagrees raises, writing nothing."""
        existing: Dict[Tuple, str] = {}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                for number, line in enumerate(fh, 1):
                    if line.strip():
                        try:
                            existing[_record_key(line)] = line.rstrip("\n")
                        except (ValueError, KeyError, TypeError) as exc:
                            raise ValueError(
                                f"scan store {self.path}, line {number} is not a scan record: {exc}"
                            ) from None
        unseen = []
        for line in lines:
            key = _record_key(line)
            if key not in existing:
                unseen.append(line)
            elif existing[key] != line:
                raise ScanStoreDisagreement(
                    f"scan store {self.path} disagrees with a recomputed record for "
                    "(q, signs, prec) = {}".format(key)
                )
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in unseen)
        return len(unseen)
