"""CLI surface: exit codes, JSON schemas, round-trip stability, precision
agreement across --prec doublings, and the environment override."""

import json

import pytest

from cyclolog.cli import main
from cyclolog.serialize import canonical_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# lseries / decompose
# ---------------------------------------------------------------------------

def test_lseries_q3(capsys):
    code, payload = run_json(capsys, "lseries", "--q", "3", "--f", "1,-1,0")
    assert code == 0
    assert payload["L"].startswith("0.604599788078072616")
    assert payload["convergent"] is True
    assert payload["decomposition"]["pi_coeff"].startswith("0.1924500897")


def test_lseries_divergent_exits_2(capsys):
    code, out, err = run_cli(capsys, "lseries", "--q", "3", "--f", "1,1,0")
    assert code == 2
    assert "series diverges" in out
    assert "2" in json.loads(out)["error"]


def test_lseries_malformed_csv_exits_1(capsys):
    code, out, err = run_cli(capsys, "lseries", "--q", "3", "--f", "1,spam,0")
    assert code == 1
    assert "malformed" in err


def test_lseries_wrong_arity_exits_1(capsys):
    code, out, err = run_cli(capsys, "lseries", "--q", "3", "--f", "1,-1")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("lseries", "--q", "3", "--f", "-1,1,0"),
        ("decompose", "--q", "4", "--f", "-1,0,1,0"),
        ("classify", "--p", "5", "--f", "-1,1,1,-1,0"),
    ],
)
def test_f_values_with_leading_minus_parse_in_both_spellings(capsys, argv):
    spaced = run_cli(capsys, *argv)
    joined = run_cli(capsys, *argv[:-2], f"--f={argv[-1]}")
    assert spaced[0] == joined[0] == 0, spaced[2]
    assert spaced[1] == joined[1]


def test_lseries_fourier_route_matches_digamma(capsys):
    _, p1 = run_json(capsys, "lseries", "--q", "5", "--f", "1,-1,-1,1,0")
    _, p2 = run_json(capsys, "lseries", "--q", "5", "--f", "1,-1,-1,1,0", "--route", "fourier")
    assert p1["L"][:30] == p2["L"][:30]


def test_lseries_direct_route_reports_tail_bound(capsys):
    code, payload = run_json(
        capsys, "lseries", "--q", "3", "--f", "1,-1,0", "--route", "direct"
    )
    assert code == 0
    assert float(payload["tail_bound"]) < 1e-5
    assert abs(float(payload["L"]) - 0.6045997880780726) < float(payload["tail_bound"]) + 1e-10


def test_decompose_command(capsys):
    code, payload = run_json(capsys, "decompose", "--q", "4", "--f", "1,0,-1,0")
    assert code == 0
    assert payload["pi_coeff"].startswith("0.25")
    assert payload["value"].startswith("0.785398163397448")


# ---------------------------------------------------------------------------
# relations / dedekind / certificate
# ---------------------------------------------------------------------------

def test_relations_q8(capsys):
    code, payload = run_json(capsys, "relations", "--q", "8")
    assert code == 0
    assert payload["count"] == 2 and payload["rank"] == 2
    assert all(rec["class"] == "Zero" for rec in payload["relations"])


def test_relations_evaluate_each_residual_once(capsys, monkeypatch):
    from cyclolog.kernel import working_prec
    from cyclolog.relations import RelationVector

    precisions = []
    original = RelationVector.residual_raw

    def counting(self, wp):
        precisions.append(wp)
        return original(self, wp)

    monkeypatch.setattr(RelationVector, "residual_raw", counting)
    code, payload = run_json(capsys, "relations", "--q", "30")
    assert code == 0
    assert all(rec["class"] == "Zero" for rec in payload["relations"])  # no witness needed
    assert precisions == [working_prec(128)] * payload["count"]


def test_dedekind_p5(capsys):
    code, payload = run_json(capsys, "dedekind", "--p", "5")
    assert code == 0
    assert payload["det_direct"].startswith("-0.3872402775812658")
    assert payload["det_product"].startswith("-0.3872402775812658")
    assert payload["agree"] is True
    assert {e["class"] for e in payload["s_chi"]} == {"NonZero"}


def test_certificate_p7(capsys):
    code, payload = run_json(capsys, "certificate", "--p", "7")
    assert code == 0
    assert payload["conclusive"] is True
    assert payload["rational_dependence_excluded"] is True
    assert len(payload["factors"]) == 3


# ---------------------------------------------------------------------------
# scan / classify / bbw
# ---------------------------------------------------------------------------

def test_scan_q6_parity(capsys):
    code, payload = run_json(capsys, "scan", "--q", "6", "--store", "")
    assert code == 0
    assert payload == {"command": "scan", "q": 6, "admissible_count": 0, "reason": "parity"}


def test_scan_q5_writes_store(capsys, tmp_path):
    store = tmp_path / "s.jsonl"
    code, payload = run_json(capsys, "scan", "--q", "5", "--store", str(store), "--threads", "1")
    assert code == 0
    assert payload["admissible_count"] == 6
    assert payload["all_nonzero"] is True
    lines = store.read_text().splitlines()
    assert len(lines) == 6
    assert json.loads(lines[0])["q"] == 5


def test_scan_torn_store_line_exits_1_and_leaves_the_store(capsys, tmp_path):
    store = tmp_path / "s.jsonl"
    assert run_cli(capsys, "scan", "--q", "5", "--store", str(store), "--threads", "1")[0] == 0
    torn = store.read_text() + '{"q":5,"signs":[1,'
    store.write_text(torn)
    code, out, err = run_cli(capsys, "scan", "--q", "5", "--store", str(store), "--threads", "1")
    assert code == 1
    assert out == ""
    assert str(store) in err and "line 7" in err
    assert store.read_text() == torn


def test_scan_tampered_store_exits_4_naming_the_store(capsys, tmp_path):
    store = tmp_path / "s.jsonl"
    assert run_cli(capsys, "scan", "--q", "5", "--store", str(store), "--threads", "1")[0] == 0
    lines = store.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["L"] = "0.125"
    lines[2] = canonical_json(rec)
    tampered = "\n".join(lines) + "\n"
    store.write_text(tampered)
    code, payload = run_json(capsys, "scan", "--q", "5", "--store", str(store), "--threads", "1")
    assert code == 4
    assert str(store) in payload["error"] and "disagrees" in payload["error"]
    assert store.read_text() == tampered


@pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")], ids=["canonical", "spaced"])
def test_scan_indeterminate_exits_3_whatever_the_serializer(capsys, monkeypatch, separators):
    import cyclolog.scans as scans_mod
    from cyclolog.kernel import INDETERMINATE, Real, ZeroClass

    def gray(f, prec):
        value = scans_mod.l1_digamma_raw(f, scans_mod.working_prec(prec))
        return value, ZeroClass(INDETERMINATE, Real(abs(value), prec))

    monkeypatch.setattr(scans_mod, "_classify_l", gray)
    monkeypatch.setattr(scans_mod, "canonical_json", lambda obj: json.dumps(obj, separators=separators))
    code, payload = run_json(capsys, "scan", "--q", "5", "--store", "", "--threads", "1")
    assert code == 3
    assert payload["all_nonzero"] is False


def test_classify_command(capsys):
    code, payload = run_json(capsys, "classify", "--p", "5", "--f", "1,-1,-1,1,0")
    assert code == 0
    assert payload["branch"] == "L_nonzero"
    assert payload["cos_sums"]["1"].startswith("2.2360679")


def test_bbw_command(capsys):
    code, payload = run_json(capsys, "bbw", "--q", "5", "--l", "3")
    assert code == 0
    assert payload["l_class"] == "Zero"
    assert payload["cot_sum"].startswith(("0.0", "-0.0", "1.0e-", "-1.0e-")) or "e-" in payload["cot_sum"]


def test_bbw_invalid_l_exits_1(capsys):
    code, out, err = run_cli(capsys, "bbw", "--q", "5", "--l", "4")
    assert code == 1


# ---------------------------------------------------------------------------
# intrel / rank / characters
# ---------------------------------------------------------------------------

def test_intrel_q8(capsys):
    code, payload = run_json(capsys, "intrel", "--q", "8", "--prec", "256")
    assert code == 0
    assert payload["verdict"] == "Found"
    assert payload["found"]  # some nonzero relation over the slots


def test_intrel_q7_none_below_bound(capsys):
    code, payload = run_json(
        capsys, "intrel", "--q", "7", "--bound", "1000000", "--prec", "512"
    )
    assert code == 0
    assert payload["verdict"] == "NoneBelowBound"
    assert payload["found"] is None
    assert payload["coeff_bound"] == 1000000 and payload["prec_bits"] == 512


def test_rank_q8(capsys):
    code, payload = run_json(capsys, "rank", "--q", "8", "--prec", "256")
    assert code == 0
    assert payload["rank"] == 2
    assert len(payload["generators"]) == 2


def test_characters_q5(capsys):
    code, payload = run_json(capsys, "characters", "--q", "5")
    assert code == 0
    assert payload["count"] == 4
    assert sum(ch["even"] for ch in payload["characters"]) == 2
    assert sum(ch["principal"] for ch in payload["characters"]) == 1


def test_characters_even_only(capsys):
    code, payload = run_json(capsys, "characters", "--q", "13", "--even-only")
    assert code == 0
    assert payload["count"] == 6


# ---------------------------------------------------------------------------
# output conventions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("lseries", "--q", "3", "--f", "1,-1,0"),
        ("relations", "--q", "8"),
        ("dedekind", "--p", "5"),
        ("scan", "--q", "6", "--store", ""),
        ("characters", "--q", "8"),
        ("rank", "--q", "8", "--prec", "256"),
    ],
)
def test_json_round_trip_byte_identical(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    reparsed = canonical_json(json.loads(out))
    assert reparsed == out.rstrip("\n")


def test_no_binary_floats_in_json(capsys):
    _, out, _ = run_cli(capsys, "dedekind", "--p", "5")
    def walk(obj):
        if isinstance(obj, float):
            raise AssertionError("binary float leaked into JSON")
        if isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        if isinstance(obj, list):
            for v in obj:
                walk(v)
    walk(json.loads(out))


def test_prec_doubling_agrees_on_leading_digits(capsys):
    _, p1 = run_json(capsys, "lseries", "--q", "3", "--f", "1,-1,0", "--prec", "128")
    _, p2 = run_json(capsys, "lseries", "--q", "3", "--f", "1,-1,0", "--prec", "256")
    # (128-16) bits is ~33 decimal digits
    assert p1["L"][:33] == p2["L"][:33]


def test_text_output_mode(capsys):
    code, out, err = run_cli(capsys, "lseries", "--q", "3", "--f", "1,-1,0", "--output", "text")
    assert code == 0
    assert "L: 0.604599788" in out


def test_env_precision_override(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOLOG_PREC", "192")
    code, payload = run_json(capsys, "lseries", "--q", "3", "--f", "1,-1,0")
    assert code == 0
    assert payload["prec_bits"] == 192


def test_env_precision_invalid_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOLOG_PREC", "many")
    code, out, err = run_cli(capsys, "lseries", "--q", "3", "--f", "1,-1,0")
    assert code == 1


def test_prec_out_of_range_exits_1(capsys):
    code, out, err = run_cli(capsys, "lseries", "--q", "3", "--f", "1,-1,0", "--prec", "32")
    assert code == 1
    code, out, err = run_cli(capsys, "lseries", "--q", "3", "--f", "1,-1,0", "--prec", "8192")
    assert code == 1


def test_unknown_command_exits_1(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_invariant_violation_exits_4(capsys, monkeypatch):
    import cyclolog.cli as cli_mod
    from cyclolog.scans import DichotomyContradictionError

    def exploding(f, prec):
        raise DichotomyContradictionError("forced for exit-code coverage")

    monkeypatch.setattr(cli_mod, "dichotomy", exploding)
    code, out, err = run_cli(capsys, "classify", "--p", "5", "--f", "1,-1,-1,1,0")
    assert code == 4
    assert "error" in json.loads(out)


def test_inconclusive_exits_3(capsys, monkeypatch):
    import cyclolog.cli as cli_mod
    from cyclolog.scans import InconclusiveClassificationError

    def gray(f, prec):
        raise InconclusiveClassificationError("forced for exit-code coverage")

    monkeypatch.setattr(cli_mod, "dichotomy", gray)
    code, out, err = run_cli(capsys, "classify", "--p", "5", "--f", "1,-1,-1,1,0")
    assert code == 3
