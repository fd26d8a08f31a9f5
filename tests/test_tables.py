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
from mpmath.libmp import to_fixed

from cyclolog.characters import unit_root
from cyclolog.cli import main
from cyclolog.dedekind import determinant_check
from cyclolog.kernel import const_raw, log_2sin_raw, working_prec
from cyclolog.lseries import digamma_raw
from cyclolog.relations import LOG2_SLOT, PI_SLOT, LogBasis
from cyclolog.scans import bbw_function, evaluate, sign_function
from cyclolog.tables import Tables, tables
from oracles import bbw_values_reference, digamma_reference, unit_root_reference

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
            got = [v.mpf._mpf_ for v in bbw_function(q, l, prec).values]
            assert got == [v._mpf_ for v in bbw_values_reference(q, l, prec)], (q, l)


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", MODULI)
def test_fixed_roots_are_the_roots_scaled_by_2_to_the_wp(q, wp):
    tab = Tables(q, wp)
    assert tab.fixed_roots == tuple(
        (to_fixed(c._mpf_, wp), to_fixed(s._mpf_, wp)) for c, s in tab.roots
    )
    with mp.workprec(wp + 8):
        for (c, s), (fc, fs) in zip(tab.roots, tab.fixed_roots):
            assert abs(mpmath.mpf((fc, -wp)) - c) < mpmath.mpf(2) ** -wp
            assert abs(mpmath.mpf((fs, -wp)) - s) < mpmath.mpf(2) ** -wp


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", MODULI)
def test_fixed_log_sines_are_the_log_sines_scaled_by_2_to_the_wp(q, wp):
    tab = Tables(q, wp)
    assert tab.fixed_log_sines == tuple(to_fixed(t._mpf_, wp) for t in tab.log_sines)
    with mp.workprec(wp + 8):
        for t, ft in zip(tab.log_sines, tab.fixed_log_sines):
            assert abs(mpmath.mpf((ft, -wp)) - t) < mpmath.mpf(2) ** -wp


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", (*range(2, 41), 120, 180, 240, 300))
def test_psi_equals_the_per_a_assembly(q, wp):
    # the integer chain against the same chain over mpfs, entry by entry
    psi = Tables(q, wp).psi
    for a in range(1, q):
        expected = digamma_reference(a, q, wp)._mpf_
        assert psi[a - 1]._mpf_ == expected
        assert digamma_raw(a, q, wp)._mpf_ == expected
    with mp.workprec(wp):
        assert psi[q - 1] == -const_raw("euler_gamma", wp)


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
# 2 wp bits, so its sums go through mpf_sum, which may drop terms
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
# table and the sums of functions outside {-1, 0, 1} ran on integers
SCAN_Q11_STDOUT = "e3848497130b614e07dcd604fe2a0aea4f91b9135da8b01aa436a787280e142d"
# SHA-256 of the store after two `scan --q 11 --threads 1 --store PATH` runs,
# recorded with the last GOLDEN entry
SCAN_Q11_STORE = "4432606b6d0d10c43f01ee00ceb516fb4a7ee1d193904b18267e54baf3d591b6"

GOLDEN = [
    ("scan-q11", ["scan", "--q", "11", "--per-function", "--threads", "1", "--store", ""],
     "decb488728b52558b9ced5e1298c4ba92143ba6568c5e4bba81207e13355e42c"),
    ("lseries-q120-digamma", ["lseries", "--q", "120", f"--f={GOLDEN_F120}"],
     "7a629bbc65971a2246181a9777babc0a23f85bcb619209300ce941fd3948ce46"),
    ("lseries-q120-fourier", ["lseries", "--q", "120", f"--f={GOLDEN_F120}", "--route", "fourier"],
     "0392d492a9c16be25e7a11dc97ba818b2d031482b64a1563d66b9041cbddebe0"),
    ("certificate-p53", ["certificate", "--p", "53"],
     "e3184ed7f6c63c9684d16222ff3ba7d440298a937249fff84a24771c9570e8c2"),
    ("relations-q30", ["relations", "--q", "30"],
     "02b541b3753ac11fa6c709c6fc96737e360c90e9e6b4f390b8af72ba03334384"),
    ("bbw-q9-l5", ["bbw", "--q", "9", "--l", "5"],
     "0e631f74effbf99f4a7dd2c45d34916a98f8d83cbc0777359185e3bf1a07f9f2"),
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
     "7235b834f3623ec0151a9f4348283ebb69a6584fe6f2cbb490b078d68c0a0017"),
    ("lseries-q60-fractions-fourier",
     ["lseries", "--q", "60", f"--f={GOLDEN_F60}", "--route", "fourier"],
     "cd07fa36b53340690c7cf4c85a274359229ac252c548466d9b9eecdc0ec57d72"),
    ("bbw-q8-l3", ["bbw", "--q", "8", "--l", "3"],
     "4260226fb5f31d5ebe3d4946f22c4b116b9fa39f27ba478a2b9433bdcf230842"),
    ("lseries-q120-direct", ["lseries", "--q", "120", f"--f={GOLDEN_F120}", "--route", "direct"],
     "fd71aefa68cd4096b18c68dcab1e98c5658798a30156fc11c1b758d39a51c017"),
    ("intrel-q7", ["intrel", "--q", "7"],
     "609f70e4b943275473e5e702d9be04184ad0596d496febec5a6014b6b910471e"),
    ("decompose-q20", ["decompose", "--q", "20", f"--f={GOLDEN_F20}"],
     "af0477444039a2ae0c29d2c4dcfcc153cddee7960717efc5bb7797227b465705"),
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
     "2d6ff50e704d29f8cef2a37750e7e717780e86260d47ddee884dd4ca3a7ce07b"),
    ("decompose-q12-wide", ["decompose", "--q", "12", f"--f={GOLDEN_F12_WIDE}"],
     "64e5a8661072c80256062eceabb11e2ebd14905681b70ce5bb3ee86166d97b4e"),
]

ROOT = Path(__file__).resolve().parent.parent
# SHA-256 of each demo's stdout, recorded with the certificate GOLDEN entries;
# demo 05's again when its warm-up search moved onto the q = 4 basis
DEMO_STDOUT = {
    "00_precision_kernel.py": "fa68d0ea283b9fd07f884705a7c0f835ac8e793234584a8eea86e13e31fcb61a",
    "01_log_sine_relations.py": "ae0eac76f2938f5655c601e103f9f4237d60edcf7024b56207e7eea8c70b8b72",
    "02_l_values_three_routes.py": "f644db6606056d381a2727d8344f9c2f52354a3cebf2f0dacd7bf4166679d74d",
    "03_prime_certificates.py": "f5713a49991767345c7f4752d1e830027b81c9551f888c32b20bf9f3126372d8",
    "04_sign_scan.py": "713dd7fdde6227b227670ecd5ee2aebc1570d41a79d5ecc5853bc5fc29368e3e",
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
