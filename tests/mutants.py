"""Mutation gate for the exactness code: every mutant must be killed.

    python3 tests/mutants.py

Each mutant names a snippet of one file under ``src/cyclolog`` that occurs
there exactly once, its replacement, and the test node ids that must fail
with it.  The runner first runs every named test against an unmutated copy
of ``src`` (each must pass there, or a failure would prove nothing), then,
one mutant at a time, copies ``src`` to a temporary directory, applies the
replacement and runs only that mutant's tests against the copy.  It exits 1
if a mutant survives (its tests pass) or no longer applies (its snippet is
not found exactly once, so a refactor that moves the code updates the
mutant).  pytest does not collect this file, whose name does not match
``test_*.py``.  A change that adds an exactness guard adds its mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
# mutants run at once, each in its own pytest process
JOBS = 2


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/cyclolog
    snippet: str
    replacement: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "weighted_sums: a denominator d > 1 without the exponent shift",
        "tables.py",
        "raw = mpf_shift(from_rational(total, d, wp, round_nearest), exp)",
        "raw = from_rational(total, d, wp, round_nearest)",
        ("tests/test_weighted_sum.py::test_fraction_valued_function_sums_like_fsum",),
    ),
    Mutant(
        "weighted_sums: the integer branch rounds to floor",
        "tables.py",
        "raw = from_man_exp(total, exp, wp, round_nearest)",
        'raw = from_man_exp(total, exp, wp, "f")',
        ("tests/test_weighted_sum.py::test_seeded_integer_functions_sum_like_fsum[12-1]",),
    ),
    Mutant(
        "weighted_sums: the unit loop rounds at wp - 1",
        "tables.py",
        "out.append(mp.make_mpf(from_man_exp(total, exp, wp, round_nearest)))",
        "out.append(mp.make_mpf(from_man_exp(total, exp, wp - 1, round_nearest)))",
        ("tests/test_weighted_sum.py::test_every_sign_function_sums_like_fsum[7-64]",),
    ),
    Mutant(
        "aligned tables: mantissas shifted one bit too far",
        "tables.py",
        "(-man if sign else man) << (e - exp)",
        "(-man if sign else man) << (e - exp + 1)",
        ("tests/test_weighted_sum.py::test_aligned_entries_equal_the_table_entries[7-96]",),
    ),
    Mutant(
        "psi: the doubling of the log-sines dropped",
        "tables.py",
        "cos_log_exp = cos_exp + log_exp + 1",
        "cos_log_exp = cos_exp + log_exp",
        ("tests/test_tables.py::test_psi_equals_the_per_a_assembly[7-96]",),
    ),
    Mutant(
        "psi: the sign of log 2 flipped",
        "tables.py",
        "total += log2 if a % 2 == 0 else -log2",
        "total += -log2 if a % 2 == 0 else log2",
        ("tests/test_tables.py::test_psi_equals_the_per_a_assembly[8-96]",),
    ),
    Mutant(
        "s_chi_raw: the real part rounded at wp - 1",
        "dedekind.py",
        "mp.make_mpf(from_man_exp(re, cos_exp + log_exp, wp, round_nearest))",
        "mp.make_mpf(from_man_exp(re, cos_exp + log_exp, wp - 1, round_nearest))",
        ("tests/test_dedekind.py::test_s_chi_matches_the_fraction_exponent_reference[192]",),
    ),
    Mutant(
        "LU: the update shifted by s - 1",
        "dedekind.py",
        "x - ((factor * y) >> s)",
        "x - ((factor * y) >> (s - 1))",
        ("tests/test_dedekind.py::test_fixed_point_lu_agrees_with_the_mpf_lu_within_its_estimate[96]",),
    ),
    Mutant(
        "LU: the estimate claims every bit",
        "dedekind.py",
        "accurate_bits = -float(mpmath.log(estimate, 2))",
        "accurate_bits = float(wp)",
        ("tests/test_dedekind.py::test_a_pivot_at_the_last_bit_ends_in_the_capped_error",),
    ),
    Mutant(
        "Fourier transform: the mirror's minus sign dropped",
        "characters.py",
        "out[k] = (re, -im)",
        "out[k] = (re, im)",
        ("tests/test_characters.py::test_transform_is_the_exact_table_sums_over_q[signs-q13-128]",),
    ),
    Mutant(
        "has_zero_mean: f(q) left out of the period sum",
        "characters.py",
        "return sum(self.exact_values[0]) == 0",
        "return sum(self.exact_values[0][:-1]) == 0",
        ("tests/test_lseries.py::test_decompose_handles_nonzero_value_at_q",),
    ),
    Mutant(
        "bbw_function: the mirror slot written without its minus sign",
        "scans.py",
        "vals[q - n - 1] = -vals[n - 1]",
        "vals[q - n - 1] = vals[n - 1]",
        (
            "tests/test_scan.py::test_bbw_values_are_exact_and_odd[64]",
            "tests/test_scan.py::test_bbw_antisymmetry_exact",
        ),
    ),
    Mutant(
        "direct route: the sum divided by q + 1",
        "lseries.py",
        "value = mpmath.fsum(terms) / q",
        "value = mpmath.fsum(terms) / (q + 1)",
        ("tests/test_cli.py::test_lseries_direct_route_reports_tail_bound",),
    ),
    Mutant(
        "fold: k not folded to [1, q/2]",
        "kernel.py",
        "return min(k, q - k)",
        "return k",
        ("tests/test_relations.py::test_fold_examples",),
    ),
    Mutant(
        "relation search: the pi-coefficient guard dropped",
        "intrel.py",
        "if found is not None and found[pi_index]:",
        "if False:",
        ("tests/test_intrel.py::test_search_guards_the_pi_coefficient",),
    ),
    Mutant(
        "scan store: a disagreeing record accepted",
        "scans.py",
        "elif existing[key] != line:",
        "elif False:",
        ("tests/test_scan.py::test_store_detects_disagreement",),
    ),
)


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run_tests(src: Path, tests) -> subprocess.CompletedProcess:
    """Run the tests with ``cyclolog`` imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def apply(mutant: Mutant, src: Path) -> str:
    """Apply the mutant to the copy; the empty string, or why it does not apply."""
    path = src / "cyclolog" / mutant.path
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        return f"its snippet occurs {count} times in {mutant.path}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return ""


def verdict(mutant: Mutant) -> str:
    """"killed", or why the mutant fails the gate."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        problem = apply(mutant, src)
        if problem:
            return problem
        run = run_tests(src, mutant.tests)
    if run.returncode == 0:
        return "SURVIVED: its tests pass"
    if run.returncode != 1:
        return f"its tests did not run (pytest exit {run.returncode}):\n{run.stdout[-1500:]}{run.stderr[-1500:]}"
    return "killed"


def baseline() -> str:
    """The empty string when every named test passes on an unmutated copy
    that is the one imported, else the failure."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        env = dict(os.environ, PYTHONPATH=str(src))
        where = subprocess.run(
            [sys.executable, "-c", "import cyclolog; print(cyclolog.__file__)"],
            env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            return f"the copy is not the cyclolog imported: {where or 'import failed'}"
        run = run_tests(src, sorted({t for m in MUTANTS for t in m.tests}))
    if run.returncode != 0:
        return f"pytest exit {run.returncode} on the unmutated copy:\n{run.stdout[-3000:]}{run.stderr[-1500:]}"
    return ""


def main() -> int:
    start = time.monotonic()
    problem = baseline()
    if problem:
        print(f"baseline: {problem}")
        return 1
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        verdicts = list(pool.map(verdict, MUTANTS))
    for mutant, result in zip(MUTANTS, verdicts):
        head, *rest = result.splitlines()
        print(f"{mutant.name}: {head}")
        for line in rest:
            print("  " + line)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.monotonic() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
