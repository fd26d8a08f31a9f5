"""Command-line surface: one subcommand per capability, JSON by default.

Every numeric field in JSON output is a decimal string accompanied by a
"prec_bits" field; outputs round-trip byte-identically through a JSON
parser.  Exit codes: 0 success, 1 argument/validation error (also a
scan store that cannot be opened or has an unreadable line), 2 divergent
series, 3 inconclusive (an Indeterminate classification, or a determinant
check that fails: an LU error estimate too large after its restarts, or a
character-factor product that is not real), 4 invariant violation
(dichotomy contradiction, nonzero pi coefficient, scan-store record
disagreement).

CYCLOLOG_PREC overrides the default 128-bit precision.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import __version__
from .characters import PeriodicFunction, enumerate_characters, unit_group_structure
from .dedekind import CERTIFICATE_NOTES, DeterminantError, determinant_check
from .intrel import PiCoefficientViolation, find_integer_relation, relation_lattice_rank
from .kernel import INDETERMINATE, PrecisionError, dec_str, decimal_digits, working_prec
from .lseries import (
    NonConvergentSeriesError,
    decompose_l1,
    l1,
    l1_direct_result,
)
from .relations import enumerate_relations, relation_record
from .scans import (
    DichotomyContradictionError,
    InconclusiveClassificationError,
    ScanStore,
    ScanStoreDisagreement,
    bbw_function,
    dichotomy,
    evaluate,
    scan,
)
from .serialize import canonical_json

MIN_CLI_PREC = 64
MAX_CLI_PREC = 4096
DEFAULT_STORE = "./cyclolog-scans.jsonl"
# "format" of the lseries, decompose and bbw payloads: 2 since each sum over
# the tables is rounded once, which moved their trailing digits
FORMAT = 2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGENT = 2
EXIT_INCONCLUSIVE = 3
EXIT_VIOLATION = 4


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _default_prec() -> int:
    env = os.environ.get("CYCLOLOG_PREC")
    if env is None:
        return 128
    try:
        return int(env)
    except ValueError:
        raise CliUsageError(f"CYCLOLOG_PREC must be an integer, got {env!r}")


def _check_cli_prec(prec: int) -> int:
    if not MIN_CLI_PREC <= prec <= MAX_CLI_PREC:
        raise CliUsageError(f"precision must lie in [{MIN_CLI_PREC}, {MAX_CLI_PREC}], got {prec}")
    return prec


def _parse_f(text: str, q: int) -> PeriodicFunction:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliUsageError(f"malformed f values {text!r}: {exc}")
    if len(values) != q:
        raise CliUsageError(f"expected {q} comma-separated values for f, got {len(values)}")
    return PeriodicFunction(q, tuple(values))


def _decomposition_payload(f: PeriodicFunction, prec: int) -> dict:
    vec = decompose_l1(f, prec)
    digits = decimal_digits(prec)
    return {
        "pi_coeff": dec_str(vec.pi_coeff, digits),
        "log2sin_coeffs": {str(b): dec_str(c, digits) for b, c in sorted(vec.log2sin_coeffs.items())},
        "log2_coeff": dec_str(vec.log2_coeff, digits),
        "value": dec_str(vec.value, digits),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code)
# ---------------------------------------------------------------------------

def _cmd_lseries(args) -> Tuple[dict, int]:
    f = _parse_f(args.f, args.q)
    payload: dict = {
        "command": "lseries",
        "format": FORMAT,
        "q": args.q,
        "f": [str(v) for v in f.values],
        "route": args.route,
        "prec_bits": args.prec,
        "convergent": True,
    }
    if args.route == "direct":
        res = l1_direct_result(f)
        payload["L"] = dec_str(res.value, decimal_digits(53))
        payload["n_terms"] = res.n_terms
        payload["tail_bound"] = f"{res.tail_bound:.3e}"
    else:
        payload["L"] = dec_str(l1(f, args.route, args.prec), decimal_digits(args.prec))
    payload["decomposition"] = _decomposition_payload(f, args.prec)
    return payload, EXIT_OK


def _cmd_decompose(args) -> Tuple[dict, int]:
    f = _parse_f(args.f, args.q)
    payload = {
        "command": "decompose",
        "format": FORMAT,
        "q": args.q,
        "f": [str(v) for v in f.values],
        "prec_bits": args.prec,
    }
    payload.update(_decomposition_payload(f, args.prec))
    return payload, EXIT_OK


def _cmd_relations(args) -> Tuple[dict, int]:
    rels, rank = enumerate_relations(args.q)
    records = [relation_record(rel, args.prec) for rel in rels]
    inconclusive = any(rec["class"] == INDETERMINATE for rec in records)
    payload = {
        "command": "relations",
        "q": args.q,
        "prec_bits": args.prec,
        "count": len(records),
        "rank": rank,
        "relations": records,
    }
    return payload, EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _factor_records(factors, digits: int) -> List[dict]:
    """One record per character factor S_chi of the determinant."""
    return [
        {
            "exponents": list(chi.exponents),
            "re": dec_str(val.re, digits),
            "im": dec_str(val.im, digits),
            "prec_bits": val.prec,
            "class": cls.tag,
        }
        for chi, val, cls in factors
    ]


def _cmd_dedekind(args) -> Tuple[dict, int]:
    check = determinant_check(args.p, args.prec)
    digits = decimal_digits(args.prec)
    payload = {
        "command": "dedekind",
        "p": args.p,
        "prec_bits": args.prec,
        "det_direct": dec_str(check.det_direct, digits),
        "det_product": dec_str(check.det_product, digits),
        "agree": check.agree,
        "s_chi": _factor_records(check.s_chi_values, digits),
    }
    return payload, EXIT_OK if check.conclusive else EXIT_INCONCLUSIVE


def _cmd_certificate(args) -> Tuple[dict, int]:
    check = determinant_check(args.p, args.prec)
    digits = decimal_digits(args.prec)
    payload = {
        "command": "certificate",
        "p": args.p,
        "prec_bits": args.prec,
        "factors": _factor_records(check.s_chi_values, digits),
        "det_direct": dec_str(check.det_direct, digits),
        "det_product": dec_str(check.det_product, digits),
        "det_agree": check.agree,
        "all_factors_nonzero": check.all_factors_nonzero,
        "rational_dependence_excluded": check.rational_dependence_excluded,
        "conclusive": check.conclusive,
        "notes": list(CERTIFICATE_NOTES),
    }
    return payload, EXIT_OK if check.conclusive else EXIT_INCONCLUSIVE


def _checked_store(path: str) -> ScanStore:
    """The scan store at ``path``, checked before any evaluation: an existing
    file must be readable and writable, a new one must have a writable directory."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "is a directory"
    elif os.path.exists(path):
        problem = None if os.access(path, os.R_OK | os.W_OK) else "is not readable and writable"
    elif not os.path.isdir(parent):
        problem = f"is in a directory that does not exist ({parent})"
    else:
        problem = None if os.access(parent, os.W_OK | os.X_OK) else f"cannot be created in {parent}"
    if problem is not None:
        raise CliUsageError(f"scan store {path} {problem}")
    return ScanStore(path)


def _cmd_scan(args) -> Tuple[dict, int]:
    if args.threads < 1:
        raise CliUsageError(f"--threads must be >= 1, got {args.threads}")
    store = _checked_store(args.store) if args.store else None
    report = scan(args.q, args.prec, workers=args.threads, store=store)
    payload = {"command": "scan", **report.to_payload(include_records=args.per_function)}
    return payload, EXIT_INCONCLUSIVE if INDETERMINATE in report.class_counts else EXIT_OK


def _cmd_classify(args) -> Tuple[dict, int]:
    f = _parse_f(args.f, args.p)
    verdict = dichotomy(f, args.prec)
    digits = decimal_digits(args.prec)
    payload = {
        "command": "classify",
        "p": args.p,
        "f": [str(v) for v in f.values],
        "prec_bits": args.prec,
        "branch": verdict.branch,
        "L": dec_str(verdict.l_value, digits),
        "l_class": verdict.l_class.tag,
        "cot_sum": dec_str(verdict.cot_sum, digits),
        "cos_sums": {str(b): dec_str(v, digits) for b, v in sorted(verdict.cos_sums.items())},
        "trig_classes": {k: c.tag for k, c in sorted(verdict.trig_classes.items())},
    }
    return payload, EXIT_OK


def _cmd_bbw(args) -> Tuple[dict, int]:
    f = bbw_function(args.q, args.l, args.prec)
    value, cls, cot, cos_sums = evaluate(f, args.prec)
    digits, wp = decimal_digits(args.prec), working_prec(args.prec)
    payload = {
        "command": "bbw",
        "format": FORMAT,
        "q": args.q,
        "l": args.l,
        "prec_bits": args.prec,
        "values": [dec_str(f.value_mpf(a, wp), digits) for a in range(1, args.q + 1)],
        "L": dec_str(value, digits),
        "l_class": cls.tag,
        "cot_sum": dec_str(cot, digits),
        "cos_sums": {str(b): dec_str(v, digits) for b, v in sorted(cos_sums.items())},
    }
    return payload, EXIT_INCONCLUSIVE if cls.is_indeterminate else EXIT_OK


def _cmd_intrel(args) -> Tuple[dict, int]:
    result = find_integer_relation(args.q, args.bound, args.prec)
    slots = result.basis.slots
    found = None
    if result.found is not None:
        found = {str(slot): c for slot, c in zip(slots, result.found) if c != 0}
    payload = {
        "command": "intrel",
        "q": args.q,
        "slots": [str(s) for s in slots],
        "verdict": result.verdict,
        "found": found,
        "residual": dec_str(result.residual, decimal_digits(result.prec)),
        "coeff_bound": result.coeff_bound,
        "prec_bits": result.prec,
    }
    return payload, EXIT_OK


def _cmd_rank(args) -> Tuple[dict, int]:
    result = relation_lattice_rank(args.q, args.bound, args.prec)
    payload = {
        "command": "rank",
        "q": args.q,
        "coeff_bound": args.bound,
        "prec_bits": args.prec,
        "rank": result.rank,
        "slots": [str(s) for s in result.basis.slots],
        "generators": [
            {str(slot): c for slot, c in zip(result.basis.slots, gen) if c != 0}
            for gen in result.generators
        ],
    }
    return payload, EXIT_OK


def _cmd_characters(args) -> Tuple[dict, int]:
    st = unit_group_structure(args.q)
    chars = enumerate_characters(args.q, even_only=args.even_only)
    payload = {
        "command": "characters",
        "q": args.q,
        "generators": list(st.generators),
        "orders": list(st.orders),
        "count": len(chars),
        "characters": [
            {
                "exponents": list(ch.exponents),
                "order": ch.order,
                "even": ch.is_even,
                "principal": ch.is_principal,
            }
            for ch in chars
        ],
    }
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="cyclolog", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cyclolog {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--prec", type=int, default=None, help="target precision in bits")
        p.add_argument("--output", choices=("json", "text"), default="json")

    p = sub.add_parser("lseries", help="L(1,f) for a rational periodic function")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", type=str, required=True, help="comma-separated rational values f(1..q)")
    p.add_argument("--route", choices=("digamma", "fourier", "direct"), default="digamma")
    common(p)
    p.set_defaults(handler=_cmd_lseries)

    p = sub.add_parser("decompose", help="L(1,f) over the log-sine basis")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", type=str, required=True)
    common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("relations", help="constructed rational relations for composite q")
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("dedekind", help="determinant check for an odd prime")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_dedekind)

    p = sub.add_parser("certificate", help="independence certificate for an odd prime")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_certificate)

    p = sub.add_parser("scan", help="exhaustive sign-function scan")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--store", type=str, default=DEFAULT_STORE, help="JSONL scan store path ('' disables)")
    p.add_argument("--per-function", action="store_true", help="include per-function records")
    common(p)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("classify", help="nonzero-L vs trivial-relation dichotomy (prime period)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--f", type=str, required=True)
    common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("bbw", help="kernel function f_l and its L-value (zero unless q is even and l = q-1)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_bbw)

    p = sub.add_parser("intrel", help="integer-relation search over the modulus-q log basis")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**6)
    common(p)
    p.set_defaults(handler=_cmd_intrel)

    p = sub.add_parser("rank", help="empirical relation-lattice rank for modulus q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**6)
    common(p)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("characters", help="unit-group structure and characters mod q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--even-only", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_characters)

    return parser


def _render_text(payload: dict, indent: int = 0) -> List[str]:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.extend(_render_text(item, indent + 1))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _emit(payload: dict, mode: str) -> None:
    if mode == "text":
        print("\n".join(_render_text(payload)))
    else:
        print(canonical_json(payload))


def _join_f_values(argv: List[str]) -> List[str]:
    """Rewrite ``--f VALUES`` as ``--f=VALUES``: argparse would read a value
    that starts with a minus sign, such as -1,1,0, as an unknown option."""
    out: List[str] = []
    for tok in argv:
        if out and out[-1] == "--f":
            out[-1] = f"--f={tok}"
        else:
            out.append(tok)
    return out


_parser: Optional[_Parser] = None


def _get_parser() -> _Parser:
    """The parser, built on first use and reused by later calls in the process."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    return _parser


def main(argv: Optional[List[str]] = None) -> int:
    mode = "json"
    try:
        args = _get_parser().parse_args(_join_f_values(sys.argv[1:] if argv is None else argv))
        mode = args.output
        if args.prec is None:
            args.prec = _default_prec()
        _check_cli_prec(args.prec)
        payload, code = args.handler(args)
    except NonConvergentSeriesError as exc:
        _emit({"error": str(exc)}, mode)
        return EXIT_DIVERGENT
    except (InconclusiveClassificationError, DeterminantError) as exc:
        _emit({"error": str(exc)}, mode)
        return EXIT_INCONCLUSIVE
    except (DichotomyContradictionError, PiCoefficientViolation, ScanStoreDisagreement) as exc:
        _emit({"error": str(exc)}, mode)
        return EXIT_VIOLATION
    except (CliUsageError, PrecisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(payload, mode)
    return code


if __name__ == "__main__":
    sys.exit(main())
