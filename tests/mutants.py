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
        "table sums: a denominator d > 1 without the exponent shift",
        "tables.py",
        "return mp.make_mpf(mpf_shift(from_rational(total, d, wp, round_nearest), exp))",
        "return mp.make_mpf(from_rational(total, d, wp, round_nearest))",
        ("tests/test_weighted_sum.py::test_fraction_valued_function_sums_like_fsum",),
    ),
    Mutant(
        "table sums: the integer branch rounds to floor",
        "tables.py",
        "return mp.make_mpf(from_man_exp(total, exp, wp, round_nearest))",
        'return mp.make_mpf(from_man_exp(total, exp, wp, "f"))',
        ("tests/test_weighted_sum.py::test_seeded_integer_functions_sum_like_fsum[12-1]",),
    ),
    Mutant(
        "weighted_sum: the sum rounded at wp - 1",
        "tables.py",
        "return _rounded(sum(map(mul, nums, entries)), exp, d, self.wp)",
        "return _rounded(sum(map(mul, nums, entries)), exp, d, self.wp - 1)",
        ("tests/test_weighted_sum.py::test_every_sign_function_sums_like_fsum[7-64]",),
    ),
    Mutant(
        "harmonic_sums: the bias times sum n_a left out of the correction",
        "tables.py",
        "total -= (sum(nums) - 1) *",
        "total -= (0 - 1) *",
        ("tests/test_harmonic_sums.py::test_every_slot_equals_the_oracle_on_small_moduli[5-64]",),
    ),
    Mutant(
        "harmonic_sums: the slot width without the bits of sum |n_a|",
        "tables.py",
        " + sum(map(abs, nums)).bit_length() + 8) // 8",
        " + 8) // 8",
        ("tests/test_harmonic_sums.py::test_a_wide_function_keeps_its_guard_bits[20]",),
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
        "psi: the cos row sliced from a + 1",
        "tables.py",
        "cycle[a : a * r + 1 : a]",
        "cycle[a + 1 : a * r + 1 : a]",
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
        "s_chi_raw: every factor rounded at wp - 1 (the harmonic sums' slots)",
        "tables.py",
        '_rounded(int.from_bytes(packed[i : i + width], "big") - bias, exp, d, self.wp)',
        '_rounded(int.from_bytes(packed[i : i + width], "big") - bias, exp, d, self.wp - 1)',
        ("tests/test_dedekind.py::test_s_chi_matches_the_fraction_exponent_reference[192]",),
    ),
    Mutant(
        "s_chi_raw: the dlog reindex read as a 0-based column",
        "dedekind.py",
        "weights[(dlog[a][0] - 1) % r] = t",
        "weights[dlog[a][0] % r] = t",
        ("tests/test_dedekind.py::test_s_chi_matches_the_fraction_exponent_reference[192]",),
    ),
    Mutant(
        "s_chi_raw: the principal slot not rotated to the front",
        "dedekind.py",
        "zip(re[-1:] + re[:-1], im[-1:] + im[:-1])",
        "zip(re, im)",
        ("tests/test_dedekind.py::test_s_chi_raw_lists_every_even_factor_in_exponent_order[13]",),
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
        "out[k] = (real, mp.make_mpf(mpf_neg(imag)))",
        "out[k] = (real, mp.make_mpf(imag))",
        ("tests/test_characters.py::test_transform_is_the_exact_table_sums_over_q[signs-q13-128]",),
    ),
    Mutant(
        "Fourier transform: the a = q column dropped from the rows",
        "characters.py",
        "tab.harmonic_sums(family, f.exact_values, len(half))",
        "tab.harmonic_sums(family, (f.exact_values[0][:-1], f.exact_values[1]), len(half))",
        ("tests/test_characters.py::test_transform_is_the_exact_table_sums_over_q[integers-q30-128]",),
    ),
    Mutant(
        "Fourier route: re accumulated with mpf_add",
        "lseries.py",
        "re = mpf_sub(re, ",
        "re = mpf_add(re, ",
        ("tests/test_lseries.py::test_fourier_loop_keeps_the_bits_of_the_workprec_loop[128-integers]",),
    ),
    Mutant(
        "value text: the int fast path drops a leading minus",
        "characters.py",
        "int(v) if isinstance(v, str)",
        'int(v.lstrip("-")) if isinstance(v, str)',
        ("tests/test_cli.py::test_value_text_keeps_the_value_or_the_error_of_its_fraction_reading[-12]",),
    ),
    Mutant(
        "tables: the angle memo keyed by a mod q, so a root with 2j >= q reads the angle 2j - q",
        "tables.py",
        """        cs = self._angles.get(a)
        if cs is None:
            cs = self._angles[a] = _cos_sin_pi(a, self.q, self.wp)""",
        """        cs = self._angles.get(a % self.q)
        if cs is None:
            cs = self._angles[a % self.q] = _cos_sin_pi(a, self.q, self.wp)""",
        ("tests/test_tables.py::test_every_family_keeps_the_bits_of_its_per_family_builder[7-96]",),
    ),
    Mutant(
        "tables: sin reads the angle 2j + 1, half a step past its root",
        "tables.py",
        "return tuple(mp.make_mpf(self.angle(2 * j)[1]) for j in range(self.q))",
        "return tuple(mp.make_mpf(self.angle(2 * j + 1)[1]) for j in range(self.q))",
        ("tests/test_tables.py::test_every_family_keeps_the_bits_of_its_per_family_builder[7-96]",),
    ),
    Mutant(
        "unit_root: the angle num mod den, not 2 (num mod den), so the root of e^(pi i num/den)",
        "characters.py",
        "tables(den, wp).angle(2 * (num % den))",
        "tables(den, wp).angle(num % den)",
        ("tests/test_tables.py::test_unit_root_equals_direct_cospi_sinpi[64]",),
    ),
    Mutant(
        "bbw: the kernel values read the angle 2n of the q entry, so sin(2 n pi/q)",
        "scans.py",
        "c, s = map(mp.make_mpf, tab.angle(n))",
        "c, s = map(mp.make_mpf, tab.angle(2 * n))",
        ("tests/test_tables.py::test_bbw_values_equal_direct_cospi_sinpi[64]",),
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
        "decompose_l1: the alternating sum leaves out a = q",
        "lseries.py",
        "enumerate(nums, 1)) if q % 2 == 0",
        "enumerate(nums[:-1], 1)) if q % 2 == 0",
        ("tests/test_lseries.py::test_decompose_handles_nonzero_value_at_q",),
    ),
    Mutant(
        "lseries.l1: L rounded to prec - 1 bits",
        "lseries.py",
        "    return Real(v, prec)\n",
        "    return Real(v, prec - 1)\n",
        ("tests/test_agreement.py::test_decompose_prints_the_lseries_l[9-64]",),
    ),
    Mutant(
        "Fourier route: the sign of the hi * arg term flipped",
        "lseries.py",
        "re = mpf_sub(re, mpf_sub(mpf_mul(hr, lg",
        "re = mpf_sub(re, mpf_add(mpf_mul(hr, lg",
        ("tests/test_lseries.py::test_route_agreement_random_sample",),
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
        "radius rule: the > rad comparison flipped",
        "kernel.py",
        "return mpf_gt(mag, rad) and",
        "return mpf_gt(rad, mag) and",
        ("tests/test_kernel.py::test_classify_radius_decides_without_calling_recompute",),
    ),
    # the next two drop the same guard: classify_zero's test and the scan's
    # each catch it on their own
    Mutant(
        "radius rule: the > rad guard dropped, as classify_zero sees it",
        "kernel.py",
        "return mpf_gt(mag, rad) and",
        "return",
        ("tests/test_kernel.py::test_classify_radius_that_cannot_decide_falls_back_to_recompute",),
    ),
    Mutant(
        "radius rule: the > rad guard dropped, as the batched scan sees it",
        "kernel.py",
        "return mpf_gt(mag, rad) and",
        "return",
        ("tests/test_scan.py::test_a_radius_that_cannot_decide_sends_every_record_to_escalation",),
    ),
    Mutant(
        "escalation: one more recompute than the budget",
        "kernel.py",
        "escalation == MAX_ESCALATIONS",
        "escalation == MAX_ESCALATIONS + 1",
        ("tests/test_kernel.py::test_classify_escalates_at_most_max_escalations_times[None]",),
    ),
    Mutant(
        "escalation: the last escalated ball left unclassified",
        "kernel.py",
        "range(MAX_ESCALATIONS + 1)",
        "range(MAX_ESCALATIONS)",
        ("tests/test_kernel.py::test_classify_the_ball_of_the_last_escalation_decides",),
    ),
    Mutant(
        "escalation: the dead band escalates",
        "kernel.py",
        "or not mpf_gt(mag, from_man_exp(1, -(target // 2))):",
        "or False:",
        ("tests/test_kernel.py::test_classify_never_escalates_from_the_dead_band",),
    ),
    Mutant(
        "escalation: an escalated ball decides NonZero whatever its radius",
        "kernel.py",
        "if x.rad is not None and radius_decides_nonzero(",
        "if escalation or x.rad is not None and radius_decides_nonzero(",
        (
            "tests/test_kernel.py::test_an_escalated_ball_is_classified_by_its_own_radius",
            "tests/test_kernel.py::test_classify_undecided_radius_and_disagreeing_recompute_is_indeterminate",
        ),
    ),
    Mutant(
        "escalation: the bits by which the radius holds 0 left out of w",
        "kernel.py",
        "max(0, math.ceil(_log2(x.rad) - _log2(residual.mpf)))",
        "0",
        (
            "tests/test_kernel.py::test_classify_radius_that_cannot_decide_falls_back_to_recompute",
            "tests/test_radius.py::test_an_undecided_l_radius_escalates_to_a_rigorous_nonzero[e80-128]",
        ),
    ),
    Mutant(
        "Real: the rounding to prec left out of the radius",
        "kernel.py",
        "if rad is not None and (converted or rounded != value):",
        "if False:",
        ("tests/test_kernel.py::test_a_real_built_by_rounding_adds_its_rounding_to_the_radius",),
    ),
    Mutant(
        "half_ulp: a quarter ulp",
        "kernel.py",
        "from_man_exp(1, exp + bc - 1 - prec)",
        "from_man_exp(1, exp + bc - 2 - prec)",
        ("tests/test_kernel.py::test_half_ulp_bounds_every_rounding_to_nearest[53]",),
    ),
    Mutant(
        "L ball: sum |f| left out of the psi sum's radius",
        "lseries.py",
        "tab.rule(psi=f.abs_sum)",
        "tab.rule(psi=1)",
        (
            "tests/test_radius.py::test_evaluate_radius_is_the_documented_bound[wide-q6-128]",
            "tests/test_radius.py::test_every_radius_of_a_sum_encloses_its_4wp_evaluation[wide-q6-64]",
        ),
    ),
    Mutant(
        "batched scan: every undecided record tagged NonZero",
        "scans.py",
        "tag = classify_zero(ball, prec, lambda w: l1_digamma_raw(sign_function(q, signs), w)).tag",
        "tag = NONZERO",
        (
            "tests/test_cli.py::test_scan_indeterminate_exits_3_whatever_the_serializer[canonical]",
            "tests/test_scan.py::test_a_radius_that_cannot_decide_sends_every_record_to_escalation",
        ),
    ),
    Mutant(
        "relation verdict: the rule's share left out of the residual radius",
        "relations.py",
        "tab.rule(log_basis_values=sum(map(abs, rel.coeffs)))",
        "tab.rule()",
        ("tests/test_radius.py::test_a_broken_relation_is_a_rigorous_nonzero_from_its_ball_at_wp[128-q60-moved-coefficient]",),
    ),
    Mutant(
        "batched scan: sum |f| left out of the L radius",
        "scans.py",
        "share = tab.rule(psi=q - 1)",
        "share = tab.rule(psi=1)",
        ("tests/test_scan.py::test_the_batch_applies_the_rule_to_the_radius_evaluate_gives",),
    ),
    Mutant(
        "batched scan: the share formed with weight q - 2",
        "scans.py",
        "share = tab.rule(psi=q - 1)",
        "share = tab.rule(psi=q - 2)",
        ("tests/test_scan.py::test_the_batch_applies_the_rule_to_the_radius_evaluate_gives",),
    ),
    Mutant(
        "eps_psi: taken at twice the working precision",
        "tables.py",
        "return _pow2(2 * self.q.bit_length() + 6 - self.wp)",
        "return _pow2(2 * self.q.bit_length() + 6 - 2 * self.wp)",
        ("tests/test_radius.py::test_every_entry_is_within_its_eps_of_a_4wp_evaluation[12-96]",),
    ),
    Mutant(
        "S_chi radius: the log-sine entry errors left out",
        "dedekind.py",
        "tab.rule(cos=sum(map(abs, logs)) * Fraction(2) ** exp, log_sines=len(logs))",
        "tab.rule(cos=sum(map(abs, logs)) * Fraction(2) ** exp)",
        ("tests/test_radius.py::test_s_chi_radius_is_the_documented_bound[13-128]",),
    ),
    Mutant(
        "summation rule: the 1/2 ulp of the rounded sum left out",
        "tables.py",
        "return mpf_add(share, half_ulp_raw(value, self.wp), RADIUS_PREC, round_ceiling)",
        "return share",
        (
            "tests/test_radius.py::test_the_rule_radius_is_the_documented_bound[psi-64]",
            "tests/test_radius.py::test_s_chi_radius_is_the_documented_bound[13-128]",
        ),
    ),
    Mutant(
        "summation rule: each weight rounded down before it scales its eps",
        "tables.py",
        "from_rational(weight.numerator, weight.denominator, RADIUS_PREC, round_ceiling)",
        'from_rational(weight.numerator, weight.denominator, RADIUS_PREC, "f")',
        ("tests/test_kernel.py::test_radius_arithmetic_rounds_up_to_its_precision",),
    ),
    Mutant(
        "summation rule: the log basis values charged the roots' eps",
        "tables.py",
        '"log_basis_values": "eps_log_sines",',
        '"log_basis_values": "eps_roots",',
        ("tests/test_radius.py::test_the_rule_radius_is_the_documented_bound[log_basis_values-64]",),
    ),
    Mutant(
        "ball division: the 1/2 ulp of the quotient left out",
        "kernel.py",
        "return quotient, mpf_add(share, half_ulp_raw(quotient, wp), RADIUS_PREC, round_ceiling)",
        "return quotient, share",
        (
            "tests/test_kernel.py::test_the_division_ball_encloses_every_exact_quotient",
            "tests/test_radius.py::test_evaluate_radius_is_the_documented_bound[signs-q7-128]",
        ),
    ),
    Mutant(
        "ball hypot: the ulp of the magnitude left out",
        "kernel.py",
        "return mag, mpf_add(rad, half_ulp_raw(mag, wp - 1), RADIUS_PREC, round_ceiling)",
        "return mag, rad",
        (
            "tests/test_kernel.py::test_the_hypot_ball_encloses_every_exact_magnitude",
            "tests/test_radius.py::test_s_chi_radius_is_the_documented_bound[13-128]",
        ),
    ),
    Mutant(
        "scan store: a parsed line of a recomputed key accepted",
        "scans.py",
        "disagrees = key in keys",
        "disagrees = False",
        (
            "tests/test_scan.py::test_store_detects_disagreement",
            "tests/test_scan.py::test_store_rejects_a_tampered_copy_of_a_key_wherever_it_stands[before]",
            "tests/test_scan.py::test_store_rejects_a_tampered_copy_of_a_key_wherever_it_stands[after]",
        ),
    ),
    Mutant(
        "scan store: a byte-equal stored line not counted as stored",
        "scans.py",
        "seen.add(recomputed[line])",
        "pass",
        ("tests/test_scan.py::test_store_verifies_instead_of_duplicating",),
    ),
    Mutant(
        "scan store: a record appended onto a last line without its newline",
        "scans.py",
        "if torn and unseen:",
        "if False:",
        ("tests/test_scan.py::test_store_starts_a_record_on_a_fresh_line_after_a_torn_last_line",),
    ),
    Mutant(
        "scan store: torn-line repair applied to a line that ends in a newline",
        "scans.py",
        "if torn:  # only the last line lacks its newline",
        "if True:",
        (
            "tests/test_scan.py::test_store_still_rejects_a_cut_line_that_ends_in_a_newline[last]",
            "tests/test_scan.py::test_store_still_rejects_a_cut_line_that_ends_in_a_newline[followed-by-a-line]",
        ),
    ),
    Mutant(
        "scan store: a parsed line read with its lone surrogates, so a byte that is not UTF-8 passes",
        "scans.py",
        "rec = json.loads(raw.decode(\"utf-8\"))",
        "rec = json.loads(line)",
        ("tests/test_scan.py::test_store_names_a_line_that_is_not_utf8[inside-a-string]",),
    ),
    Mutant(
        "scan render memo bypassed",
        "scans.py",
        "if n not in texts:",
        "if True:",
        ("tests/test_scan.py::test_scan_renders_each_distinct_cos_sum_once_per_range",),
    ),
    Mutant(
        "scan render memo keyed by |n|",
        "scans.py",
        "        if n not in texts:\n"
        "            text = dec_str(mp.make_mpf(from_man_exp(n, cos_exp, wp, round_nearest)), digits)\n"
        "            texts[n] = text, _negated(text)\n"
        "        return texts[n]",
        "        if abs(n) not in texts:\n"
        "            text = dec_str(mp.make_mpf(from_man_exp(n, cos_exp, wp, round_nearest)), digits)\n"
        "            texts[abs(n)] = text, _negated(text)\n"
        "        return texts[abs(n)]",
        ("tests/test_scan.py::test_batched_scan_equals_the_per_function_evaluation[5-64-1]",),
    ),
    Mutant(
        "scan pairs: the complement rows joined in forward order",
        "scans.py",
        "[twin for _, twin in reversed(pairs)]",
        "[twin for _, twin in pairs]",
        ("tests/test_scan.py::test_every_row_a_scan_emits_is_the_evaluation_of_its_own_signs[64-radius]",),
    ),
    Mutant(
        "scan pairs: the complement's cot text left unnegated",
        "scans.py",
        "_negated(l_text), _negated(cot_text), twin_cos)",
        "_negated(l_text), cot_text, twin_cos)",
        ("tests/test_scan.py::test_every_row_a_scan_emits_is_the_evaluation_of_its_own_signs[64-radius]",),
    ),
    Mutant(
        "scan pairs: the complement's cos texts are the function's, not their negations",
        "scans.py",
        "_negated(l_text), _negated(cot_text), twin_cos)",
        "_negated(l_text), _negated(cot_text), cos_texts)",
        ("tests/test_scan.py::test_every_row_a_scan_emits_is_the_evaluation_of_its_own_signs[64-radius]",),
    ),
    Mutant(
        "scan walk: a step reports its first changed index one too deep, so that depth's sums stay stale",
        "scans.py",
        "yield depth, positions, signs",
        "yield depth + 1, positions, signs",
        (
            "tests/test_scan.py::test_the_rank_walk_equals_the_reference_loop[7-64]",
            "tests/test_scan.py::test_the_unranked_walk_is_the_combinations_order_from_every_start[5]",
        ),
    ),
    Mutant(
        "scan L radius: one radius per binade of the psi sum alone, whatever the binade of L",
        "scans.py",
        "key = (total[2] + total[3], raw[2] + raw[3]) if total[1] else None",
        "key = total[2] + total[3] if total[1] else None",
        ("tests/test_scan.py::test_one_radius_per_binade_is_the_radius_of_l1_ball_raw[64-tables]",),
    ),
    Mutant(
        "scan L radius: a zero psi sum keyed with the binade at exponent 0",
        "scans.py",
        "key = (total[2] + total[3], raw[2] + raw[3]) if total[1] else None",
        "key = total[2] + total[3]",
        ("tests/test_scan.py::test_the_radius_memo_keeps_a_zero_sum_apart_from_the_binade_at_exponent_0[True]",),
    ),
    Mutant(
        "scan pairs: a zero text negated to -0.0",
        "scans.py",
        'if text == "0.0":\n        return text',
        'if text == "0.0":\n        return "-0.0"',
        ("tests/test_scan.py::test_a_negated_text_is_the_text_of_the_negated_value",),
    ),
    Mutant(
        "scan workers: the pair threshold ignored, so a request for two forks at any q",
        "scans.py",
        "min(workers, _usable_cpus()) if half >= 2 * MIN_PAIRS_PER_WORKER else 1",
        "min(workers, _usable_cpus())",
        ("tests/test_scan.py::test_only_q19_is_large_enough_to_fork[15-2-pool_sizes0]",),
    ),
    Mutant(
        "scan workers: capped at one worker per MIN_PAIRS_PER_WORKER pairs as well as at the CPUs",
        "scans.py",
        "min(workers, _usable_cpus()) if half >= 2 * MIN_PAIRS_PER_WORKER else 1",
        "max(1, min(workers, _usable_cpus(), half // MIN_PAIRS_PER_WORKER))",
        ("tests/test_scan.py::test_only_q19_is_large_enough_to_fork[19-8-pool_sizes3]",),
    ),
    Mutant(
        "scan ranges: the last worker's range stops one pair short",
        "scans.py",
        "bounds = [half * k // workers for k in range(workers + 1)]",
        "bounds = [half * k // workers - (k == workers) for k in range(workers + 1)]",
        ("tests/test_scan.py::test_workers_fork_only_when_a_split_in_two_reaches_the_threshold[17-2-pool_sizes0]",),
    ),
    Mutant(
        "scan workers: capped at the machine's CPU count, not the affinity set",
        "scans.py",
        "return len(os.sched_getaffinity(0))",
        "return os.cpu_count() or 1",
        ("tests/test_scan.py::test_scan_workers_are_capped_at_the_affinity_set[one]",),
    ),
    Mutant(
        "dec_str: a 5 on the rounding digit rounds down",
        "kernel.py",
        'text[digits] in "56789"',
        'text[digits] in "6789"',
        (
            "tests/test_kernel.py::test_dec_str_carry_and_fixed_point_window[2.5-1-3.0]",
            "tests/test_kernel.py::test_dec_str_carry_and_fixed_point_window[99.5-2-1.0e+2]",
        ),
    ),
    Mutant(
        "dec_str: the carry through every digit keeps the exponent",
        "kernel.py",
        'text = "1"\n            exponent += 1',
        'text = "1"',
        (
            "tests/test_kernel.py::test_dec_str_carry_and_fixed_point_window[9.9996-4-10.0]",
            "tests/test_kernel.py::test_dec_str_carry_and_fixed_point_window[999.96-3-1.0e+3]",
        ),
    ),
    Mutant(
        "scan record template: the L and prec fields swapped",
        "scans.py",
        '"L":"{l_text}","prec":{prec},',
        '"prec":{prec},"L":"{l_text}",',
        ("tests/test_scan.py::test_the_record_template_is_canonical_json[64]",),
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
