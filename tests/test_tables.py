"""The shared (q, wp) tables: every field equals the direct evaluation it
replaced bit for bit, the cache stays bounded, a doubled-precision
recompute gets its own entry, and CLI and demo stdout is pinned by SHA-256."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from cyclolog.characters import unit_root
from cyclolog.cli import main
from cyclolog.dedekind import determinant_check
from cyclolog.kernel import const_raw, log_2sin_raw, working_prec
from cyclolog.lseries import digamma_raw
from cyclolog.relations import LOG2_SLOT, PI_SLOT, LogBasis
from cyclolog.scans import bbw_function, evaluate, sign_function
from cyclolog.tables import Tables, tables
from oracles import (
    bbw_values_reference,
    digamma_reference,
    digamma_terms,
    exact_sum_reference,
    unit_root_reference,
    within_ulps,
)

MODULI = (2, 3, 4, 7, 12, 15, 30)
PRECISIONS = (96, 192, 320)


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", MODULI)
def test_log_sines_equal_log_2sin_raw(q, wp):
    tab = Tables(q, wp)
    assert tab.log_sines == tuple(log_2sin_raw(k, q, wp) for k in range(1, q // 2 + 1))
    # the relation basis reads its slot values, in slot order, from this entry
    named = {PI_SLOT: "pi", LOG2_SLOT: "log2"}
    assert tab.log_basis_values == tuple(
        const_raw(named[s], wp) if s in named else log_2sin_raw(s, q, wp)
        for s in LogBasis.for_modulus(q).slots
    )
    for k in (*range(1, q), -1, q + 1, 3 * q - 2):
        if k % q:
            assert tab.log_sine(k) == log_2sin_raw(k, q, wp)


def test_log_sine_rejects_multiples_of_q():
    with pytest.raises(ValueError):
        Tables(6, 96).log_sine(12)


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", MODULI)
def test_roots_and_cot_equal_cospi_sinpi(q, wp):
    tab = Tables(q, wp)
    with mp.workprec(wp):
        roots = tuple(
            (mpmath.cospi(mpmath.mpf(2 * j) / q), mpmath.sinpi(mpmath.mpf(2 * j) / q))
            for j in range(q)
        )
        cot = tuple(
            mpmath.cospi(mpmath.mpf(a) / q) / mpmath.sinpi(mpmath.mpf(a) / q)
            for a in range(1, q)
        )
    assert tab.roots == roots
    assert tab.cot == cot


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("n", (1, 2, 4, 6, 12, 52, 100))
def test_roots_equal_unit_root_at_every_reduced_exponent(n, wp):
    # S_chi and L(1, chi) read chi's values as roots[k], k = t (p - 1) the character index
    roots = Tables(n, wp).roots
    for j in range(n):
        t = Fraction(j, n)
        assert roots[j] == unit_root(t.numerator, t.denominator, wp)


@pytest.mark.parametrize("wp", (64, 128, 192))
def test_unit_root_equals_direct_cospi_sinpi(wp):
    for den in range(1, 40):
        for num in range(-den, 2 * den):
            got = unit_root(num, den, wp)
            want = unit_root_reference(num, den, wp)
            assert [x._mpf_ for x in got] == [x._mpf_ for x in want], (num, den)


@pytest.mark.parametrize("prec", (64, 128, 192))
def test_bbw_values_equal_direct_cospi_sinpi(prec):
    for q in range(3, 41):
        for l in range(3, (q - 2 if q % 2 else q - 1) + 1, 2):
            f = bbw_function(q, l, prec)
            got = [f.value_mpf(a, working_prec(prec))._mpf_ for a in range(1, q + 1)]
            assert got == [v._mpf_ for v in bbw_values_reference(q, l, prec)], (q, l)


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", (*range(2, 41), 120, 180, 240, 300))
def test_psi_equals_the_per_a_assembly(q, wp):
    # each entry is the exact sum of Gauss's terms rounded once, at wp and
    # 2 wp; at wp the chain over mpfs, which rounds each of its at most
    # q/2 + 3 products and partial sums, stays within q + 4 ulps of it
    for w in (wp, 2 * wp):
        psi = Tables(q, w).psi
        for a in range(1, q):
            terms = digamma_terms(a, q, w)
            expected = exact_sum_reference(terms, w)._mpf_
            assert psi[a - 1]._mpf_ == expected
            assert digamma_raw(a, q, w)._mpf_ == expected
            if w == wp:
                assert within_ulps(psi[a - 1], digamma_reference(a, q, w), terms, w, q + 4)
        with mp.workprec(w):
            assert psi[q - 1] == -const_raw("euler_gamma", w)


def test_cache_stays_within_its_bound():
    tables.cache_clear()
    bound = tables.cache_info().maxsize
    assert bound is not None
    for prec in range(64, 64 + 8 * 2 * bound, 8):
        assert all(cls.is_nonzero for _, _, cls in determinant_check(11, prec).s_chi_values)
        assert tables.cache_info().currsize <= bound
    assert tables.cache_info().currsize == bound


def test_doubled_precision_recompute_reads_its_own_entry():
    tables.cache_clear()
    q, prec = 7, 128
    wp = working_prec(prec)
    f = sign_function(q, (1, 1, 1, -1, -1, -1))
    _, cls, _, _ = evaluate(f, prec)
    assert cls.is_nonzero  # so the recompute witness ran
    misses = tables.cache_info().misses
    first, witness = tables(q, wp), tables(q, 2 * wp)
    assert tables.cache_info().misses == misses  # both entries were already there
    assert first is not witness
    assert witness.wp == 2 * wp
    assert "psi" in vars(witness)  # the witness's psi values came from its own entry
    assert first.psi != witness.psi


GOLDEN_F120 = ",".join(str((a % 5) - 2 + (a % 3) - 1) for a in range(1, 121))
GOLDEN_F300 = ",".join(str((a % 5) - 2 + (a % 3) - 1 + 2 * (a % 2) - 1) for a in range(1, 301))
GOLDEN_F60 = ",".join(("1/3", "-5/12", "0", "1/4", "-1/6", "0")[a % 6] for a in range(1, 61))
# zero mean with f(20) = -1, so decompose folds the -(f(q)/q) log q term
GOLDEN_F20 = ",".join(str((a % 5) - 2 + (a % 4 == 0) - (a % 4 == 2)) for a in range(1, 21))
# zero mean, values +-10^100 and +-10^-100: its products span far more than
# 2 wp bits, where rounding each product and summing by mpf_sum may drop terms
GOLDEN_F12_WIDE = ",".join(
    ("1e100", "-1e-100", "0", "-1e100", "2e-100", "-1e-100")[a % 6] for a in range(1, 13)
)

# SHA-256 of stdout: the first six recorded before the routes shared one
# tables layer, the next four before each quantity was evaluated once per
# precision, the next three before relations were built once per class,
# the next two before the Fourier transform summed integers, the next five
# before a Real rounded itself on construction, the next one before scan
# records were folded without being parsed again, the next four before the
# certificate became properties of the determinant check, the next two
# before the relation search took a modulus, the last two before the psi
# table and the sums of functions outside {-1, 0, 1} ran on integers; the
# lseries, decompose and bbw entries were re-pinned when every sum over the
# tables was rounded once and their payloads gained "format": 2
SCAN_Q11_STDOUT = "e3848497130b614e07dcd604fe2a0aea4f91b9135da8b01aa436a787280e142d"
# SHA-256 of the store after two `scan --q 11 --threads 1 --store PATH` runs,
# recorded with the last GOLDEN entry
SCAN_Q11_STORE = "4432606b6d0d10c43f01ee00ceb516fb4a7ee1d193904b18267e54baf3d591b6"

GOLDEN = [
    ("scan-q11", ["scan", "--q", "11", "--per-function", "--threads", "1", "--store", ""],
     "decb488728b52558b9ced5e1298c4ba92143ba6568c5e4bba81207e13355e42c"),
    ("lseries-q120-digamma", ["lseries", "--q", "120", f"--f={GOLDEN_F120}"],
     "3b2009a62a860c8fca3bc986f2bcee9163fb2036a36c25bb26d204723c480237"),
    ("lseries-q120-fourier", ["lseries", "--q", "120", f"--f={GOLDEN_F120}", "--route", "fourier"],
     "7da5e9d6f8174e8f94450377d7a4a9cca9eba11324865fb0abddc4164c9a52be"),
    ("certificate-p53", ["certificate", "--p", "53"],
     "e3184ed7f6c63c9684d16222ff3ba7d440298a937249fff84a24771c9570e8c2"),
    ("relations-q30", ["relations", "--q", "30"],
     "02b541b3753ac11fa6c709c6fc96737e360c90e9e6b4f390b8af72ba03334384"),
    ("bbw-q9-l5", ["bbw", "--q", "9", "--l", "5"],
     "f714b9661c348f4fd9dc2e860dea88468ab3442a5efd742643e434190d694ff7"),
    ("classify-p13", ["classify", "--p", "13", "--f", "1,1,-1,1,-1,-1,1,-1,1,1,-1,-1,0"],
     "e4aa0584c4aa9bfa291047b92eb223922f19fc0eef2b2f0876975fc14c2dda98"),
    ("dedekind-p53", ["dedekind", "--p", "53"],
     "c0549f719b21eccb2f084dea45701cf4fffce203186978898fa332549969a44b"),
    ("intrel-q8", ["intrel", "--q", "8"],
     "43ebd75d8fd6528c693629170a4e1beac05b6a0b3dd9d27277222796443389f3"),
    ("rank-q20", ["rank", "--q", "20", "--prec", "256"],
     "13945eba122787881efd250b14e2ba650bdaaea283bc21c429e7ddcceaf2895e"),
    ("relations-q60", ["relations", "--q", "60"],
     "5a667a1f7358090e160035b429cca04d0b58cda0f9c683341785245457aa9ea2"),
    ("relations-q96", ["relations", "--q", "96"],
     "4e3a95b1fa3dae0e7a7772c82fc25a846779634f858b60151a9a9785e4c9d81b"),
    ("relations-q48-text", ["relations", "--q", "48", "--output", "text"],
     "ea81dd356b10dc429f01b7d3343fc55f2f08c9f4e561e0c127b512da11b243a2"),
    ("lseries-q300-fourier", ["lseries", "--q", "300", f"--f={GOLDEN_F300}", "--route", "fourier"],
     "6359f3d7f0ecaac9854d68d83e217064231bd21a5b1270762cddb54cbff147c7"),
    ("lseries-q60-fractions-fourier",
     ["lseries", "--q", "60", f"--f={GOLDEN_F60}", "--route", "fourier"],
     "a6923a70866744ad111fe9e71835976f605cd1e16557084fdc4af81c7946b664"),
    ("bbw-q8-l3", ["bbw", "--q", "8", "--l", "3"],
     "41a3b03946e929e10fac6573e80f6d0bb0477db2bf474394f4706329d80175b0"),
    ("lseries-q120-direct", ["lseries", "--q", "120", f"--f={GOLDEN_F120}", "--route", "direct"],
     "441c3625198b3964d8695adccc1aec9965569ae2aa0e0028fda3e1ef51088ef4"),
    ("intrel-q7", ["intrel", "--q", "7"],
     "609f70e4b943275473e5e702d9be04184ad0596d496febec5a6014b6b910471e"),
    ("decompose-q20", ["decompose", "--q", "20", f"--f={GOLDEN_F20}"],
     "2bbc8120cca76a3428bc17c368c411c21ecbe8d1bba17cd07e6ce3b01300c3bb"),
    ("certificate-p101", ["certificate", "--p", "101"],
     "d1a2505cbad179431a10800ec87ca40a3dea974951435d7fea8871050afc3f1b"),
    ("scan-q11-threads2", ["scan", "--q", "11", "--threads", "2", "--store", ""],
     SCAN_Q11_STDOUT),
    ("characters-q48", ["characters", "--q", "48"],
     "2ebedb03a84bedf66312f1c21d105dfbec53ece4ddb5b0e35439edce166b4407"),
    ("characters-q13-even", ["characters", "--q", "13", "--even-only"],
     "19c808136d27b6c30e6c682d43a747149b2b054f2225a4dfa975d87934226f6d"),
    ("dedekind-p13-text", ["dedekind", "--p", "13", "--output", "text"],
     "e8c7da2d45ca41a94c843a1c415555106cea47ecadb2fcdb7e5dbb1bb60ae713"),
    ("certificate-p3", ["certificate", "--p", "3"],
     "87c99de9320ea0a0c0f29c12e7a723e2a81fb36225d9e1328a29de48d6c2d8c0"),
    ("intrel-q2", ["intrel", "--q", "2"],
     "31482ba2c8b4a7f224048098fce72d23273e2df1e32497dbac76b8ec48baa5db"),
    ("intrel-q12-text", ["intrel", "--q", "12", "--output", "text"],
     "dcc998e0c39df687df154be9fff4bcd6b04c042f84c88288e28b0292830bd636"),
    ("lseries-q300-digamma", ["lseries", "--q", "300", f"--f={GOLDEN_F300}"],
     "2772aae5be397f08b5b5a3736829b5da2335e7259278eacaf41906b502600100"),
    ("decompose-q12-wide", ["decompose", "--q", "12", f"--f={GOLDEN_F12_WIDE}"],
     "c26f963d75c4efc87948bd7e58c0fcfd50b1169819bba0794a379506c2d9b19f"),
]

ROOT = Path(__file__).resolve().parent.parent
# SHA-256 of each demo's stdout, recorded with the certificate GOLDEN entries;
# demo 05's again when its warm-up search moved onto the q = 4 basis, and
# demos 02 and 04 when every sum over the tables was rounded once and the
# direct route left float64
DEMO_STDOUT = {
    "00_precision_kernel.py": "fa68d0ea283b9fd07f884705a7c0f835ac8e793234584a8eea86e13e31fcb61a",
    "01_log_sine_relations.py": "ae0eac76f2938f5655c601e103f9f4237d60edcf7024b56207e7eea8c70b8b72",
    "02_l_values_three_routes.py": "ac5e21477a19d97fedb48af2d251cb73b380efa85c8a45766e48c958efbbd3c4",
    "03_prime_certificates.py": "f5713a49991767345c7f4752d1e830027b81c9551f888c32b20bf9f3126372d8",
    "04_sign_scan.py": "c43dc2524972e92b83d68164972acf1a02739e5cc2bb36b4576ce4c48847bb95",
    "05_integer_relations.py": "8eed0ddac16e4a10b060a610c7c0d9d4e39ecf41cf05107be5ba44950af59725",
}


@pytest.mark.parametrize("argv,digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_stdout(argv, digest, capsys, monkeypatch):
    monkeypatch.delenv("CYCLOLOG_PREC", raising=False)
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_golden_scan_store_bytes(tmp_path, capsys, monkeypatch):
    # the second run verifies every record against the store and appends nothing
    monkeypatch.delenv("CYCLOLOG_PREC", raising=False)
    store = tmp_path / "scans.jsonl"
    for _ in range(2):
        assert main(["scan", "--q", "11", "--threads", "1", "--store", str(store)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCAN_Q11_STDOUT
    assert hashlib.sha256(store.read_bytes()).hexdigest() == SCAN_Q11_STORE


@pytest.mark.parametrize("demo,digest", sorted(DEMO_STDOUT.items()))
def test_demo_stdout(demo, digest, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True, timeout=300
    )
    assert run.returncode == 0, run.stderr.decode()[-2000:]
    assert hashlib.sha256(run.stdout).hexdigest() == digest
