"""Error radii: the tables' per-entry bounds, the 1-ulp assumption they rest
on, the summation rule that turns them into the radius of a sum, the balls
the scan, the dichotomy and the determinant check compose from it, the
verdicts those radii reach against the doubled-precision recompute they
replace, and the precision escalation that decides where a radius cannot."""

import json
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from mpmath import iv, mp
from mpmath.libmp import to_rational

from cyclolog.characters import PeriodicFunction, enumerate_characters, is_prime
from cyclolog.dedekind import determinant_check, s_chi_raw
from cyclolog.kernel import Real, classify_zero, const_raw, half_ulp_raw, working_prec
from cyclolog.lseries import l1_digamma_raw, trig_sums_raw
from cyclolog.relations import LogBasis, RelationVector, enumerate_relations, linear_form_raw, verify_relation
from cyclolog.scans import bbw_function, dichotomy, evaluate, scan, sign_function
from cyclolog.tables import Tables, tables

from oracles import relation_residual_reference, witness_verdict


def exact(x) -> Fraction:
    """An mpf (or a raw mpf tuple) as the Fraction it equals."""
    return Fraction(*to_rational(getattr(x, "_mpf_", x)))


def half_ulp(x: mpmath.mpf, wp: int) -> Fraction:
    """Half an ulp of x at wp bits, exactly."""
    return exact(half_ulp_raw(x._mpf_, wp))


def magnitude(raw, wp: int) -> mpmath.mpf:
    """|re + i im| of an S_chi pair, by mpmath.hypot at wp."""
    with mp.workprec(wp):
        return mpmath.hypot(*raw)


# ---------------------------------------------------------------------------
# the per-entry bounds of the table families
# ---------------------------------------------------------------------------

FAMILIES = (
    ("log_sines", "eps_log_sines"),
    ("cos", "eps_roots"),
    ("sin", "eps_roots"),
    ("cot", "eps_cot"),
    ("psi", "eps_psi"),
)


@pytest.mark.parametrize("wp", (96, 192, 320))
@pytest.mark.parametrize("q", (3, 4, 12, 15, 101, 300))
def test_every_entry_is_within_its_eps_of_a_4wp_evaluation(q, wp):
    # the 4 wp entry is itself within its own eps of the exact value
    tab, ref = Tables(q, wp), Tables(q, 4 * wp)
    for family, eps in FAMILIES:
        bound = exact(getattr(tab, eps)) + exact(getattr(ref, eps))
        for got, want in zip(getattr(tab, family), getattr(ref, family)):
            assert abs(exact(got) - exact(want)) <= bound, (family, q, wp)


@pytest.mark.parametrize("wp", (96, 192, 320))
def test_one_ulp_assumption_holds_against_interval_arithmetic(wp, monkeypatch):
    # every call the tables make to log, sinpi and cospi for q <= 30, and pi,
    # euler and log q, is within 2^(1 - wp) |Y| of the enclosure of its exact
    # value Y at its mpf argument, computed by mpmath.iv at wp + 64 bits
    def within(y, enclosure):
        lo, hi = map(exact, enclosure._mpi_)
        assert lo <= hi and (lo > 0 or hi < 0), enclosure
        y, smallest = exact(y), min(abs(lo), abs(hi))
        assert max(abs(y - lo), abs(y - hi)) <= Fraction(2) ** (1 - wp) * smallest

    monkeypatch.setattr(iv, "prec", wp + 64)
    with mp.workprec(wp):
        within(const_raw("pi", wp), iv.pi)
        within(const_raw("euler_gamma", wp), iv.euler)
        for q in range(2, 31):
            within(mpmath.log(q), iv.log(q))
            args = {mpmath.mpf(k) / q for k in range(1, q)} | {mpmath.mpf(2 * j) / q for j in range(q)}
            for t in args:
                # sin pi t vanishes exactly at integers, cos pi t at half-integers,
                # and there sinpi and cospi return 0 exactly
                if mpmath.isint(t):
                    assert mpmath.sinpi(t) == 0
                else:
                    within(mpmath.sinpi(t), iv.sin(iv.pi * t))
                if mpmath.isint(t + 0.5):
                    assert mpmath.cospi(t) == 0
                else:
                    within(mpmath.cospi(t), iv.cos(iv.pi * t))
            for k in range(1, q // 2 + 1):
                two_sin = 2 * mpmath.sinpi(mpmath.mpf(k) / q)
                if two_sin != 1:  # log 1 = 0 is returned exactly
                    within(mpmath.log(two_sin), iv.log(two_sin))
                else:
                    assert mpmath.log(two_sin) == 0


# ---------------------------------------------------------------------------
# the radii attached to sums
# ---------------------------------------------------------------------------

@pytest.fixture
def balls(monkeypatch):
    """Every Real that ``scans`` and ``dedekind`` hand to ``classify_zero``, in order."""
    import cyclolog.dedekind as dedekind
    import cyclolog.scans as scans

    seen = []

    def capture(x, target, recompute=None):
        seen.append(x)
        return classify_zero(x, target, recompute)

    for module in (scans, dedekind):
        monkeypatch.setattr(module, "classify_zero", capture)
    return seen


SIGNS = sign_function(7, (1, 1, 1, -1, -1, -1))
FRACTIONS = PeriodicFunction.from_rationals(7, ["1/3", "-5/12", "0", "1/4", "-1/6", "0", "0"])
# L(1, g) = 0 exactly for g = (1, -3, 0, 3, -1, 0) mod 6 (odd, with
# 3 g(1) + g(2) = 0), so L(1, 10^30 g + h) = L(1, h) for h = (1, -1, 0, 1, -1, 0),
# while the error of the psi sum grows with sum |f| ~ 2^103: a radius without
# sum |f| misses it
WIDE = PeriodicFunction.from_rationals(
    6, [10**30 * g + h for g, h in zip((1, -3, 0, 3, -1, 0), (1, -1, 0, 1, -1, 0))]
)
FUNCTIONS = pytest.mark.parametrize(
    "f", [SIGNS, FRACTIONS, WIDE, bbw_function(9, 5)], ids=["signs-q7", "fractions-q7", "wide-q6", "bbw-q9-l5"]
)


@pytest.mark.parametrize("prec", (64, 128, 256))
@FUNCTIONS
def test_evaluate_radius_is_the_documented_bound(f, prec, balls):
    # (sum |f| eps_psi + 1/2 ulp(total)) / q + 1/2 ulp(L): the psi sum's
    # ball divided by -q; the radius rounds each step up to 32 bits, so it
    # exceeds the exact bound by less than 2^-28 of it
    q, wp = f.period, working_prec(prec)
    value = l1_digamma_raw(f, wp).mpf
    total = tables(q, wp).weighted_sum("psi", f.exact_values)
    bound = (f.abs_sum * exact(tables(q, wp).eps_psi) + half_ulp(total, wp)) / q + half_ulp(value, wp)
    evaluate(f, prec)
    (x,) = balls
    assert x.mpf == value
    assert bound <= exact(x.rad) <= bound * (1 + Fraction(1, 2**28))


@pytest.mark.parametrize(
    "f",
    [SIGNS, FRACTIONS, bbw_function(9, 5), bbw_function(8, 7)],
    ids=["signs-q7", "fractions-q7", "bbw-q9-l5", "bbw-q8-l7"],
)
def test_evaluate_forms_one_radius(f, monkeypatch):
    # L's ball is formed once a call: the verdict comes from the ball whose
    # value evaluate returns (Zero for bbw-q9-l5, NonZero by the radius else)
    radius = Tables.radius
    widths = []

    def counting(self, value, share):
        widths.append(self.wp)
        return radius(self, value, share)

    monkeypatch.setattr(Tables, "radius", counting)
    evaluate(f, 128)
    assert widths == [working_prec(128)]


@pytest.mark.parametrize("prec", (64, 128))
@FUNCTIONS
def test_every_radius_of_a_sum_encloses_its_4wp_evaluation(f, prec, balls):
    # L from evaluate; L, the cot sum and every cos sum from dichotomy (odd
    # prime periods only)
    q, wp = f.period, working_prec(prec)
    evaluate(f, prec)
    sums = [l1_digamma_raw(f, 4 * wp).mpf]
    if is_prime(q):
        dichotomy(f, prec)
        cot, cos_sums = trig_sums_raw(f, 4 * wp)
        sums += [sums[0], cot, *cos_sums.values()]
    assert len(balls) == len(sums)
    for x, again in zip(balls, sums):
        assert abs(exact(x.mpf) - exact(again)) <= exact(x.rad)
    # the rule's ball of each family on its own: the psi and cot sums, every
    # cos and sin row over f, and the log basis values under integer
    # coefficients (f's numerators, a relation vector over the basis)
    tab, ref = tables(q, wp), tables(q, 4 * wp)
    weights = f.exact_values
    rule = [(family, tab.weighted_sum(family, weights), ref.weighted_sum(family, weights)) for family in ("psi", "cot")]
    for family in ("cos", "sin"):
        rows = zip(tab.harmonic_sums(family, weights, q), ref.harmonic_sums(family, weights, q))
        rule += [(family, v, again) for v, again in rows]
    coeffs = weights[0][: len(tab.log_basis_values)]
    rule.append(("log_basis_values", tab.weighted_sum("log_basis_values", (coeffs, 1)),
                 linear_form_raw(coeffs, ref.log_basis_values, 4 * wp)))
    for family, v, again in rule:
        weight = sum(map(abs, coeffs)) if family == "log_basis_values" else f.abs_sum
        rad = tab.radius(v._mpf_, tab.rule(**{family: weight}))
        assert abs(exact(v) - exact(again)) <= exact(rad), family


# the eps each family's sums are charged, as the tables' docstrings derive them
DOCUMENTED_EPS = {
    "psi": "eps_psi",
    "cot": "eps_cot",
    "cos": "eps_roots",
    "sin": "eps_roots",
    "log_sines": "eps_log_sines",
    "log_basis_values": "eps_log_sines",
}


@pytest.mark.parametrize("prec", (64, 128))
@pytest.mark.parametrize("family", sorted(DOCUMENTED_EPS))
def test_the_rule_radius_is_the_documented_bound(family, prec):
    # weight * eps_family + 1/2 ulp(value, wp), each of three steps rounded
    # up to 32 bits, for a sum over each family at q = 12
    wp = working_prec(prec)
    tab = tables(12, wp)
    weight = Fraction(123, 7)
    for value in (mpmath.mpf(0), mpmath.mpf(1) / 3, -mpmath.mpf(2) ** 40 / 3):
        value = Real(value, wp).mpf
        bound = weight * exact(getattr(tab, DOCUMENTED_EPS[family])) + half_ulp(value, wp)
        assert bound <= exact(tab.radius(value._mpf_, tab.rule(**{family: weight}))) <= bound * (1 + Fraction(1, 2**28))


@pytest.mark.parametrize("prec", (64, 128))
@pytest.mark.parametrize("p", (3, 13, 53))
def test_s_chi_radius_is_the_documented_bound(p, prec, balls):
    # each component: sum_a (|t_a| eps_root + eps_log) + 1/2 ulp; |S_chi|: the
    # two component radii plus 1 ulp, each step rounded up to 32 bits
    wp = working_prec(prec)
    logs = tables(p, wp).log_sines
    terms = sum(map(abs, map(exact, logs))) * exact(tables((p - 1) // 2, wp).eps_roots)
    terms += len(logs) * exact(tables(p, wp).eps_log_sines)
    determinant_check(p, prec)
    chars = enumerate_characters(p, even_only=True)
    assert len(balls) == len(chars)
    factors = s_chi_raw(p, wp)
    for x, chi in zip(balls, chars):
        re, im = factors[chi.exponents[0] // 2]
        bound = 2 * terms + half_ulp(re, wp) + half_ulp(im, wp) + 2 * half_ulp(x.mpf, wp)
        assert bound <= exact(x.rad) <= bound * (1 + Fraction(1, 2**27))


@pytest.mark.parametrize("prec", (64, 128))
@pytest.mark.parametrize("p", (3, 5, 13, 53))
def test_every_factor_radius_encloses_its_4wp_magnitude(p, prec, balls):
    wp = working_prec(prec)
    determinant_check(p, prec)
    chars = enumerate_characters(p, even_only=True)
    assert len(balls) == len(chars)
    factors = s_chi_raw(p, 4 * wp)
    for x, chi in zip(balls, chars):
        again = magnitude(factors[chi.exponents[0] // 2], 4 * wp)
        assert abs(exact(x.mpf) - exact(again)) <= exact(x.rad)
        assert exact(x.rad) < Fraction(2) ** -(wp - 16)


# ---------------------------------------------------------------------------
# radius verdicts against the recompute verdicts they replace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13, 15, 17))
def test_radius_verdicts_equal_recompute_verdicts_on_every_sign_function(q):
    prec = 192  # the scan's precision
    for positions in combinations(range(q - 1), (q - 1) // 2):
        plus = set(positions)
        f = sign_function(q, tuple(1 if i in plus else -1 for i in range(q - 1)))
        value, cls, _, _ = evaluate(f, prec)
        assert cls.is_nonzero and cls.rigorous, (q, positions)
        assert witness_verdict(value, prec, lambda w: l1_digamma_raw(f, w).mpf) == cls.tag


P13 = (1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, -1, 0)


@pytest.mark.parametrize(
    "f",
    [
        *(bbw_function(q, l) for q in (5, 7, 9) for l in range(3, q - 1, 2)),
        PeriodicFunction.from_rationals(13, P13),
        PeriodicFunction.from_rationals(7, [1, -1, 1, -1, 1, -1, 0]),
    ],
)
def test_radius_verdicts_equal_recompute_verdicts_on_the_acceptance_functions(f):
    # the kernel functions of acceptance criterion 8 (L Zero), and the
    # dichotomy's trig sums, some NonZero and some Zero
    prec, wp = 128, working_prec(128)
    value, cls, cot, cos_sums = evaluate(f, prec)
    assert witness_verdict(value, prec, lambda w: l1_digamma_raw(f, w).mpf) == cls.tag
    if is_prime(f.period):
        verdict = dichotomy(f, prec)
        sums = {"cot": cot, **{f"cos_{b}": v for b, v in cos_sums.items()}}
        doubled = trig_sums_raw(f, 2 * wp)
        doubled = {"cot": doubled[0], **{f"cos_{b}": v for b, v in doubled[1].items()}}
        for name, v in sums.items():
            got = verdict.trig_classes[name]
            assert witness_verdict(v, prec, lambda w, name=name: doubled[name]) == got.tag, name
            assert got.rigorous == got.is_nonzero


@pytest.mark.parametrize("prec", (64, 128, 256))
def test_radius_verdicts_equal_recompute_verdicts_on_every_certificate(prec):
    wp = working_prec(prec)
    for p in filter(is_prime, range(3, 102)):
        # the witness recomputes at 2 wp
        factors = {w: s_chi_raw(p, w) for w in (wp, 2 * wp)}
        for chi, _, cls in determinant_check(p, prec).s_chi_values:
            assert cls.is_nonzero and cls.rigorous, (p, chi.exponents)
            e = chi.exponents[0] // 2
            mag = magnitude(factors[wp][e], wp)
            assert witness_verdict(mag, prec, lambda w: magnitude(factors[w][e], w)) == cls.tag


def test_scan_and_determinant_check_build_no_doubled_precision_tables(monkeypatch):
    import cyclolog.tables as tables_module

    built = []

    class Recording(Tables):
        def __init__(self, q, wp):
            built.append(wp)
            super().__init__(q, wp)

    monkeypatch.setattr(tables_module, "Tables", Recording)
    tables.cache_clear()
    try:
        scan(7, 128)
        assert built and set(built) == {working_prec(128)}
        built.clear()
        determinant_check(13)
        assert built and set(built) == {working_prec(128)}
    finally:
        tables.cache_clear()


# ---------------------------------------------------------------------------
# precision escalation: where a radius cannot decide, a ball at more bits does
# ---------------------------------------------------------------------------

@pytest.fixture
def chains(monkeypatch):
    """Per ``classify_zero`` call in ``scans`` and ``relations``, the first
    Real and every ball its callback returned, in order."""
    import cyclolog.relations as relations
    import cyclolog.scans as scans

    seen = []

    def capture(x, target, recompute=None):
        chain = [x]
        seen.append(chain)

        def recording(w):
            chain.append(recompute(w))
            return chain[-1]

        return classify_zero(x, target, recording if recompute else None)

    for module in (scans, relations):
        monkeypatch.setattr(module, "classify_zero", capture)
    return seen


def wide(e: int) -> PeriodicFunction:
    """10^e g + h mod 6, with L(1, g) = 0 exactly (see WIDE)."""
    return PeriodicFunction.from_rationals(
        6, [10**e * g + h for g, h in zip((1, -3, 0, 3, -1, 0), (1, -1, 0, 1, -1, 0))]
    )


@pytest.mark.parametrize(
    "e,prec,steps", [(40, 64, [173]), (60, 128, [239]), (80, 128, [240, 285])], ids=["e40-64", "e60-128", "e80-128"]
)
def test_an_undecided_l_radius_escalates_to_a_rigorous_nonzero(e, prec, steps, chains):
    # each of these is Indeterminate at wp: the radius holds 0, so L is
    # re-evaluated as a ball at the precisions the escalation rule names
    f = wide(e)
    _, cls, _, _ = evaluate(f, prec)
    ((first, *escalated),) = chains
    assert first.prec == working_prec(prec) and not abs(first.mpf) > first.rad
    assert [x.prec for x in escalated] == steps
    assert cls.is_nonzero and cls.rigorous
    last = escalated[-1]
    assert cls.margin_bits == pytest.approx(float(mpmath.log(abs(last.mpf) / last.rad, 2)))
    again = l1_digamma_raw(f, 4 * last.prec).mpf
    assert abs(exact(last.mpf) - exact(again)) <= exact(last.rad)


def test_the_dichotomy_escalates_the_cos_sums_of_a_wide_function(capsys):
    # f = 10^40 g + h mod 7: the cos sums' radii hold 0 at wp, and one
    # escalation each decides them NonZero; classify exits 0
    from cyclolog.cli import main

    g, h = (1, 2, 3, -3, -2, -1, 0), (1, -1, 1, 1, -1, -1, 0)
    values = ",".join(str(10**40 * a + b) for a, b in zip(g, h))
    assert main(["classify", "--p", "7", "--prec", "64", f"--f={values}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trig_classes"] == {"cos_1": "NonZero", "cos_2": "NonZero", "cos_3": "NonZero", "cot": "NonZero"}


def moved(rel, slot_index: int):
    """``rel`` with the coefficient at ``slot_index`` moved by 1."""
    coeffs = list(rel.coeffs)
    coeffs[slot_index] += 1
    return RelationVector(rel.basis, tuple(coeffs), "moved")


def broken_relations():
    single = RelationVector(LogBasis.for_modulus(5), (1, 0, 0), "single")
    rels, _ = enumerate_relations(60)
    # slot 10 is log(2 sin(pi/6)) = 0, which moving its coefficient would not change
    rel = next(r for r in rels if r.coeffs[0] and r.basis.slots[0] == 1)
    return [single, moved(rel, 0)]


@pytest.mark.parametrize("rel", broken_relations(), ids=["q5-single-log-sine", "q60-moved-coefficient"])
@pytest.mark.parametrize("prec", (64, 128))
def test_a_broken_relation_is_a_rigorous_nonzero_from_its_ball_at_wp(rel, prec, chains):
    cls = verify_relation(rel, prec)
    ((ball,),) = chains  # no escalation
    assert ball.prec == working_prec(prec)
    assert cls.is_nonzero and cls.rigorous
    again = relation_residual_reference(rel, 4 * ball.prec)
    assert abs(exact(ball.mpf) - exact(again)) <= exact(ball.rad) < Fraction(2) ** (16 - ball.prec)


def test_a_holding_relation_is_zero_from_its_ball_at_wp(chains):
    for rel in enumerate_relations(60)[0]:
        assert verify_relation(rel).is_zero
    assert all(len(chain) == 1 and chain[0].prec == working_prec(128) and chain[0].rad > 0 for chain in chains)
