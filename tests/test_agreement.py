"""Cross-command agreement: where two commands print one quantity, they
print the same text.

The quantity here is L(1, f) for every sign function f mod q with
f(q) = 0, q in {7, 9, 11, 13}, at prec 64 and 128, as ``lseries`` prints it
on its default digamma route.  Each row compares one other field with it,
byte for byte: ``lseries`` on the Fourier route, the ``decompose`` value
(and the decomposition ``lseries`` embeds), ``classify`` (prime q only) and
the records of ``scan --per-function``; and the L of ``bbw`` against
``lseries.l1`` of the same kernel function.  Every command is run through
``cli.main``, so each row reads the bytes the command prints.

``scan`` and ``bbw`` render L from the working-precision value, while
``lseries`` rounds it to prec first, so the last digit can differ
(ROADMAP item 20).  Each parameter that differs today is a strict xfail
naming that item, so the fix reports each one until its mark goes.
"""

import contextlib
import io
import json
from functools import lru_cache
from itertools import combinations

import pytest

from cyclolog import cli
from cyclolog.kernel import dec_str, decimal_digits
from cyclolog.lseries import l1
from cyclolog.scans import bbw_function

QS = (7, 9, 11, 13)
PRECS = (64, 128)
ITEM_20 = "ROADMAP item 20: scan and bbw render L at wp, lseries rounds to prec first"


def printed(*argv):
    """The JSON payload a command prints, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    assert code == 0, (argv, out.getvalue())
    return json.loads(out.getvalue())


@lru_cache(maxsize=None)
def sign_vectors(q):
    """(f(1), .., f(q - 1)) of every sign function with f(q) = 0, in rank order."""
    return [
        tuple(1 if i in plus else -1 for i in range(q - 1))
        for plus in map(set, combinations(range(q - 1), (q - 1) // 2))
    ]


def f_text(signs):
    return ",".join(map(str, (*signs, 0)))


@lru_cache(maxsize=None)
def lseries_payloads(q, prec):
    """The default ``lseries`` payload of every sign function mod q."""
    return [printed("lseries", "--q", q, "--f", f_text(s), "--prec", prec) for s in sign_vectors(q)]


def assert_prints_the_lseries_l(q, prec, texts):
    """``texts``, one per sign function in rank order, are the L texts of
    ``lseries``, byte for byte."""
    want = [payload["L"] for payload in lseries_payloads(q, prec)]
    assert len(texts) == len(want)
    differ = [(s, got, text) for s, got, text in zip(sign_vectors(q), texts, want) if got != text]
    assert not differ, f"{len(differ)} of {len(want)} differ, first {differ[0]}"


GRID = [(q, prec) for q in QS for prec in PRECS]


@pytest.mark.parametrize("q,prec", GRID)
def test_the_fourier_route_prints_the_digamma_l(q, prec):
    texts = [
        printed("lseries", "--q", q, "--f", f_text(s), "--prec", prec, "--route", "fourier")["L"]
        for s in sign_vectors(q)
    ]
    assert_prints_the_lseries_l(q, prec, texts)


@pytest.mark.parametrize("q,prec", GRID)
def test_decompose_prints_the_lseries_l(q, prec):
    texts = [printed("decompose", "--q", q, "--f", f_text(s), "--prec", prec)["value"] for s in sign_vectors(q)]
    assert_prints_the_lseries_l(q, prec, texts)
    embedded = [payload["decomposition"]["value"] for payload in lseries_payloads(q, prec)]
    assert_prints_the_lseries_l(q, prec, embedded)


@pytest.mark.parametrize("q,prec", [(q, prec) for q, prec in GRID if q != 9])
def test_classify_prints_the_lseries_l(q, prec):
    texts = [printed("classify", "--p", q, "--f", f_text(s), "--prec", prec)["L"] for s in sign_vectors(q)]
    assert_prints_the_lseries_l(q, prec, texts)


# the scan renders L from its wp value on 4 and 2 of 70 functions at q = 9
# (prec 64 and 128), 14 and 10 of 252 at q = 11, 84 and 28 of 924 at q = 13
@pytest.mark.parametrize("q,prec", [
    pytest.param(q, prec, marks=pytest.mark.xfail(strict=True, reason=ITEM_20)) if q > 7 else (q, prec)
    for q, prec in GRID
])
def test_scan_records_print_the_lseries_l(q, prec):
    payload = printed("scan", "--q", q, "--prec", prec, "--threads", 1, "--store", "", "--per-function")
    texts = {tuple(record["signs"]): record["L"] for record in payload["records"]}
    assert_prints_the_lseries_l(q, prec, [texts[s] for s in sign_vectors(q)])


# (q, l, prec) whose bbw L differs from lseries.l1's in its last digit
BBW_DIFFER = {(9, 5, 128), (9, 7, 128), (12, 5, 128)}


@pytest.mark.parametrize("q,l,prec", [
    pytest.param(q, l, prec, marks=pytest.mark.xfail(strict=True, reason=ITEM_20))
    if (q, l, prec) in BBW_DIFFER else (q, l, prec)
    for q in range(4, 16)
    for l in range(3, q - 1 if q % 2 else q, 2)
    for prec in PRECS
])
def test_bbw_prints_the_l1_of_its_function(q, l, prec):
    want = dec_str(l1(bbw_function(q, l, prec), "digamma", prec), decimal_digits(prec))
    assert printed("bbw", "--q", q, "--l", l, "--prec", prec)["L"] == want
