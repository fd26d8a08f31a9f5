"""The shared (q, wp) tables: every field equals the direct evaluation it
replaced bit for bit, the cache stays bounded, a doubled-precision
recompute gets its own entry, and CLI stdout is pinned by SHA-256."""

import hashlib
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import to_fixed

from cyclolog.characters import enumerate_characters, unit_root
from cyclolog.cli import main
from cyclolog.dedekind import classify_s_chi
from cyclolog.kernel import const_raw, log_2sin_raw, working_prec
from cyclolog.lseries import digamma_raw
from cyclolog.scans import _classify_l, sign_function
from cyclolog.tables import Tables, tables

MODULI = (2, 3, 4, 7, 12, 15, 30)
PRECISIONS = (96, 192, 320)


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", MODULI)
def test_log_sines_equal_log_2sin_raw(q, wp):
    tab = Tables(q, wp)
    assert tab.log_sines == tuple(log_2sin_raw(k, q, wp) for k in range(1, q // 2 + 1))
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
    # S_chi and L(1, chi) read chi's values as roots[t * (p - 1)]
    roots = Tables(n, wp).roots
    for j in range(n):
        t = Fraction(j, n)
        assert roots[j] == unit_root(t.numerator, t.denominator, wp)


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


def _digamma_reference(a, q, wp):
    """psi(a/q) assembled term by term from direct evaluations (Gauss's theorem)."""
    with mp.workprec(wp):
        total = -const_raw("euler_gamma", wp) - mpmath.log(q)
        t = mpmath.mpf(a) / q
        total -= const_raw("pi", wp) / 2 * (mpmath.cospi(t) / mpmath.sinpi(t))
        for b in range(1, (q - 1) // 2 + 1):
            c = mpmath.cospi(mpmath.mpf(2 * ((a * b) % q)) / q)
            total += c * 2 * log_2sin_raw(b, q, wp)
        if q % 2 == 0:
            parity = const_raw("log2", wp)
            total += parity if a % 2 == 0 else -parity
    return total


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", MODULI)
def test_psi_equals_the_per_a_assembly(q, wp):
    psi = Tables(q, wp).psi
    for a in range(1, q):
        expected = _digamma_reference(a, q, wp)
        assert psi[a - 1] == expected
        assert digamma_raw(a, q, wp) == expected
    with mp.workprec(wp):
        assert psi[q - 1] == -const_raw("euler_gamma", wp)


def test_cache_stays_within_its_bound():
    tables.cache_clear()
    bound = tables.cache_info().maxsize
    assert bound is not None
    chi = enumerate_characters(11, even_only=True)[1]
    for prec in range(64, 64 + 8 * 2 * bound, 8):
        assert classify_s_chi(chi, prec).is_nonzero
        assert tables.cache_info().currsize <= bound
    assert tables.cache_info().currsize == bound


def test_doubled_precision_recompute_reads_its_own_entry():
    tables.cache_clear()
    q, prec = 7, 128
    wp = working_prec(prec)
    f = sign_function(q, (1, 1, 1, -1, -1, -1))
    _, cls = _classify_l(f, prec)
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

# SHA-256 of stdout: the first six recorded before the routes shared one
# tables layer, the next four before each quantity was evaluated once per
# precision, the next three before relations were built once per class,
# the last two before the Fourier transform summed integers
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
     "1f183ee2535835f91890ebfde49fc7115ab3deae06b9f617c00c23cf9e2fa132"),
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
]


@pytest.mark.parametrize("argv,digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_stdout(argv, digest, capsys, monkeypatch):
    monkeypatch.delenv("CYCLOLOG_PREC", raising=False)
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
