import dataclasses
import json
import math
import re

import pytest

from char2kit import acceptance, crosscorr, curves, expsums, gf2m, zeta
from char2kit.acceptance import KNOWN_WEIGHTS, sum_rows
from char2kit.cli import build_parser, main
from char2kit.curves import catalog_curve
from char2kit.zeta import catalog_lpoly
from oracles import NaiveField, naive_projective_count

# y^3 + x^3 + xyz + z^3: cubic in y, so only the generic counter counts it.
Y_CUBIC = ((0, 3, 0), (3, 0, 0), (1, 1, 1), (0, 0, 3))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def results_by_name(payload):
    return {r["name"]: r for r in payload["results"]}


def test_expsum_kloosterman(capsys):
    code, payload = run_json(capsys, "expsum", "--m", "7", "--sum", "K")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["K_7"]["observed"] == -13
    assert rows["K_7"]["verdict"] == "recorded"


def test_expsum_kp_checked_against_k(capsys):
    code, payload = run_json(capsys, "expsum", "--m", "7", "--k", "3", "--sum", "Kp")
    assert code == 0
    row = results_by_name(payload)["K'_7 = K_7 (k=3)"]
    assert row["observed"] == row["expected"] == -13
    assert row["verdict"] == "pass"


def test_expsum_kp_open_at_k4_recorded(capsys):
    # Conjecture 2 is open at k = 4 even where gcd(k, m) = 1, as in `conjectures`.
    code, payload = run_json(capsys, "expsum", "--m", "7", "--k", "4", "--sum", "Kp")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["K'_7(k=4)"]["verdict"] == rows["K'_7 = K_7 (k=4)"]["verdict"] == "recorded"
    assert rows["K'_7(k=4)"]["observed"] == -13
    assert rows["K'_7 = K_7 (k=4)"]["observed"] == "-13 vs -13"


def test_expsum_kp_gcd_above_one_recorded(capsys):
    # gcd(3, 6) = 3: K'_6 = 3 is not K_6 = -9; the zeta route still checks it
    code, payload = run_json(capsys, "expsum", "--m", "6", "--k", "3", "--sum", "Kp")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["K'_6(k=3)"]["verdict"] == rows["K'_6 = K_6 (k=3)"]["verdict"] == "recorded"
    assert rows["K'_6(k=3)"]["observed"] == 3
    assert rows["K'_6 = K_6 (k=3)"]["observed"] == "3 vs -9"
    row = rows["K'_6(k=3) = 2 - S_m - P_m(z1)"]
    assert row["observed"] == row["expected"] == 3
    assert row["verdict"] == "pass"


ZETA_ROWS_AT_24 = [
    (("--sum", "K"), "K_24 = -P_m(z2)"),
    (("--sum", "G", "--k", "1"), "G_24 = -P_m(z4)"),
    (("--sum", "G", "--k", "3"), "G_24^(3) = -P_m(z3)"),
    (("--sum", "Kp", "--k", "3"), "K'_24(k=3) = 2 - S_m - P_m(z1)"),
]


@pytest.mark.parametrize("argv, name", ZETA_ROWS_AT_24)
def test_expsum_k_and_g_checked_against_zeta_above_c8(capsys, argv, name):
    # m = 24 = MAX_M is past verify-all's default --max-m 18: every entry of
    # the table of zeta routes still checks its sum
    code, payload = run_json(capsys, "expsum", "--m", "24", *argv)
    assert code == 0
    row = results_by_name(payload)[name]
    assert row["observed"] == row["expected"]
    assert row["verdict"] == "pass"


def test_the_zeta_routes_are_the_four_identities():
    assert [label.format(m=24) for *_, label in acceptance.ZETA_ROUTES] == [name for _, name in ZETA_ROWS_AT_24]


def test_swapping_z3_and_z4_in_the_table_fails_c8_and_expsum(capsys, monkeypatch):
    # C8 and `expsum` read the one table.  z3 = z4 * l3prime, so the swap
    # shows where P_m(l3prime) is not 0: at m = 3 (12) and 9 (-96), not at 6.
    swap = {"z3": "z4", "z4": "z3"}
    monkeypatch.setattr(acceptance, "ZETA_ROUTES", tuple((name, k, swap.get(lpoly, lpoly), label)
                                                         for name, k, lpoly, label in acceptance.ZETA_ROUTES))
    failed = [name for name, observed, expected in acceptance.CRITERIA["C8"](9, 1) if observed != expected]
    assert failed == [row for m in (3, 9) for row in (f"G_{m} = -P_m(z4)", f"G_{m}^(3) = -P_m(z3)")]
    code, payload = run_json(capsys, "expsum", "--m", "9", "--sum", "G", "--k", "1")
    assert code == 1
    assert results_by_name(payload)["G_9 = -P_m(z4)"]["verdict"] == "fail"


def test_expsum_g_checked_against_gcd_where_proved(capsys):
    # k = 2 is proved for every m: G_7^(2) = G_7^(1).  At m = 8, gcd(2, 8) = 2
    # = k, so G_8^(2) is checked against G_8^(6), as C2 checks it; past k = 5,
    # where C2 checks nothing, the identity is recorded.
    code, payload = run_json(capsys, "expsum", "--m", "7", "--k", "2", "--sum", "G")
    assert code == 0
    row = results_by_name(payload)["G_7^(2) = G_7^(1)"]
    assert row["observed"] == row["expected"] == -41
    assert row["verdict"] == "pass"
    code, payload = run_json(capsys, "expsum", "--m", "8", "--k", "2", "--sum", "G")
    assert code == 0
    assert [(r["name"], r["verdict"]) for r in payload["results"]] == [
        ("G_8^(2)", "recorded"), ("G_8^(2) = G_8^(6)", "pass"), ("trace_zero_count", "recorded")]
    assert payload["results"][1]["observed"] == payload["results"][1]["expected"] == -1
    code, payload = run_json(capsys, "expsum", "--m", "7", "--k", "6", "--sum", "G")
    assert code == 0
    row = results_by_name(payload)["G_7^(6) = G_7^(1)"]
    assert (row["observed"], row["verdict"]) == ("-41 vs -41", "recorded")


def test_expsum_c_closed_form(capsys):
    code, payload = run_json(capsys, "expsum", "--m", "7", "--k", "3", "--sum", "C")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["C_7(k=3) closed form"]["expected"] == 16
    assert rows["C_7(k=3)"]["observed"] == 16
    assert list(rows) == ["C_7(k=3)", "C_7(k=3) closed form", "trace_zero_count"]


def test_expsum_c_closed_form_at_even_m(capsys):
    # m = 8, k = 1: d = 1 and q = 8 = 0 mod 4, so C_8 = -(-1)^2 2^(4+1) = -32
    code, payload = run_json(capsys, "expsum", "--m", "8", "--k", "1", "--sum", "C")
    assert code == 0
    rows = results_by_name(payload)
    assert (rows["C_8(k=1)"]["observed"], rows["C_8(k=1)"]["verdict"]) == (-32, "recorded")
    row = rows["C_8(k=1) closed form"]
    assert row["observed"] == row["expected"] == -32
    assert row["verdict"] == "pass"
    assert list(rows) == ["C_8(k=1)", "C_8(k=1) closed form", "trace_zero_count"]


def test_conjectures_sweep(capsys):
    code, payload = run_json(capsys, "conjectures", "--m-range", "1:9", "--k-range", "1:4")
    assert code == 0
    verdicts = {r["verdict"] for r in payload["results"]}
    assert "fail" not in verdicts
    # unproved combinations are recorded, not asserted
    rows = results_by_name(payload)
    assert rows["K'_9 = K_9 (k=4)"]["verdict"] == "recorded"
    assert rows["K'_7 = K_7 (k=3)"]["verdict"] == "pass"
    # G^(k) is checked where C2 checks it: against G^(gcd(k, m)), proved at
    # k = 2, 3 and an observed fact at k = 4, 5, and against G^(m - k) at k | m
    assert rows["G_7^(3) = G_7^(1)"]["verdict"] == "pass"
    assert rows["G_7^(2) = G_7^(1)"]["verdict"] == "pass"
    assert rows["G_7^(4) = G_7^(1)"]["verdict"] == "pass"
    assert rows["G_9^(3) = G_9^(6)"]["verdict"] == "pass"
    # a pair at one exponent residue has no row: G_8^(4) would read G_8^(4)
    assert not any(name.startswith("G_8^(4) ") for name in rows)


def checked_triples(payload):
    return [(r["name"], r["observed"], r["expected"]) for r in payload["results"] if r["verdict"] != "recorded"]


def test_conjectures_and_expsum_check_the_same_domains(capsys):
    # `expsum` and `conjectures` check at (m, k) exactly the rows that
    # acceptance.sum_rows builds there, which C1, C2, C3 and C8 also yield;
    # the G and K' identities that no criterion checks there are recorded.
    kinds = set()
    for m in range(1, 13):
        for k in range(1, 7):
            _, payload = run_json(capsys, "conjectures", "--m-range", str(m), "--k-range", str(k))
            assert checked_triples(payload) == [row for name in ("G", "Kp")
                                                for checks, row in sum_rows(name, m, k) if checks], (m, k)
            kinds |= {(r["name"][0], r["verdict"]) for r in payload["results"]}
            for name in ("K", "C", "G", "Kp"):
                _, payload = run_json(capsys, "expsum", "--m", str(m), "--k", str(k), "--sum", name)
                assert checked_triples(payload) == [row for checks, row in sum_rows(name, m, k) if checks], (m, k, name)
    assert kinds == {("A", "pass"), ("G", "pass"), ("G", "recorded"), ("K", "pass"), ("K", "recorded")}


def test_corrdist_with_k(capsys):
    code, payload = run_json(capsys, "corrdist", "--m", "7", "--k", "3")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["C_d(tau)=-1"]["observed"] == 63
    assert rows["multiplicity N0"]["verdict"] == "pass"
    assert rows["second moment"]["expected"] == 2**14 - 2**7 - 1


def test_corrdist_with_explicit_d(capsys):
    code, payload = run_json(capsys, "corrdist", "--m", "7", "--d", "106")
    assert code == 0
    assert results_by_name(payload)["C_d(tau)=15"]["observed"] == 36


def test_corrdist_m3_lone_large_value(capsys):
    # C = 7 once and -1 six times: |7 + 1| = 2^((m+3)/2), so the lone value is N2, not N1
    code, payload = run_json(capsys, "corrdist", "--m", "3", "--k", "1")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["multiplicity N2"]["observed"] == rows["multiplicity N2"]["expected"] == 1
    assert rows["multiplicity N1"]["observed"] == 0
    assert all(r["verdict"] != "fail" for r in payload["results"])


@pytest.mark.parametrize("m,k", [(3, 1), (9, 2), (13, 1)])
def test_corrdist_one_sixth_bound_is_an_exact_row(capsys, m, k):
    # N2 <= N0/6 with its exact slack: 2^(m-1) - 1, less 3*2^((m-3)/2) when 3 | m
    code, payload = run_json(capsys, "corrdist", "--m", str(m), "--k", str(k))
    assert code == 0
    row = results_by_name(payload)["N0 - 6*N2"]
    assert row["verdict"] == "pass"
    assert row["expected"] == 2 ** (m - 1) - 1 - (3 * 2 ** ((m - 3) // 2) if m % 3 == 0 else 0)
    assert not any("ratio" in r["name"] for r in payload["results"])


def test_corrdist_requires_exactly_one_of_k_d(capsys):
    for argv in (("corrdist", "--m", "7"), ("corrdist", "--m", "7", "--k", "1", "--d", "5")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err and "--k" in err and "--d" in err, argv


def test_a1_subcommand(capsys):
    # one row at every odd m with gcd(k, m) = 1: the derivative count against the formula
    for m, k, a1 in ((7, 3, 0), (11, 1, 2112), (13, 1, 8736)):
        code, payload = run_json(capsys, "a1", "--m", str(m), "--k", str(k))
        assert code == 0
        assert [(r["name"], r["observed"], r["expected"], r["verdict"]) for r in payload["results"]] == [
            (f"A1 count = formula (m={m},k={k})", a1, a1, "pass")]


@pytest.mark.parametrize("m,k", [(14, 1), (15, 3)])
def test_a1_refuses_before_building_a_field(capsys, monkeypatch, m, k):
    # even m, and gcd(k, m) > 1 where the decimation itself exists (m = 15, k = 3)
    gf2m.get_field.cache_clear()  # a cached field would hide a refusal that comes after get_field
    builds = []
    monkeypatch.setattr(gf2m.Field, "_exp_by_frobenius", lambda field: builds.append(field.m))
    code, out, err = run(capsys, "a1", "--m", str(m), "--k", str(k))
    assert (code, out, builds) == (2, "", [])
    assert f"error: A_1 requires odd m and gcd(k, m) = 1, not m={m}, k={k}" in err


def test_weights_known_distribution(capsys):
    code, payload = run_json(capsys, "weights", "--m", "7", "--k", "3")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["A_64"]["observed"] == 8255
    assert rows["A_64"]["verdict"] == "pass"
    assert rows["weight set"]["verdict"] == "pass"


def test_weights_unknown_m_recorded(capsys):
    # Without KNOWN_WEIGHTS the weights are recorded; the structure is checked.
    for m, k in ((5, 1), (9, 2)):
        code, payload = run_json(capsys, "weights", "--m", str(m), "--k", str(k))
        assert code == 0
        rows = results_by_name(payload)
        assert all(r["verdict"] == "recorded" for n, r in rows.items() if n.startswith("A_"))
        checked = [r["name"] for r in payload["results"] if r["verdict"] == "pass"]
        assert checked == ["total words", "zero words", "b != 0 classes of 2^m - 1 words"] + [
            f"b = 1 {n}" for n in ("sum of multiplicities", "first moment", "second moment")] + [
            f"b = 1 multiplicity {n}" for n in ("N0", "N1", "N-1", "N2", "N-2")] + [
            "b = 1 N0 - 6*N2"]
    assert rows["b = 1 multiplicity N0"]["observed"] == 2**8 - 1 + 480 // 16
    # even m: no theorem-1 rows, and where 2^k + 1 shares a factor with 2^m - 1
    # no class rows either: the two power moments check the words instead
    code, payload = run_json(capsys, "weights", "--m", "10", "--k", "1")
    assert code == 0
    assert [r["name"] for r in payload["results"] if r["verdict"] != "recorded"] == [
        "total words", "zero words", "sum of w A_w", "sum of w^2 A_w"]


@pytest.mark.parametrize("m,k", [(6, 1), (8, 1), (8, 3)])
def test_weights_without_the_class_reduction_weigh_every_word(capsys, m, k):
    # gcd(2^k + 1, 2^m - 1) = 3 here, so no b != 0 reduces to b = 1: each of
    # the three classes of b has its own transform, with no option to ask for
    # it.  KNOWN_WEIGHTS holds the naive oracle's distributions (see
    # test_crosscorr::test_known_weights_match_the_naive_oracle).
    assert math.gcd((1 << k) + 1, (1 << m) - 1) > 1
    code, payload = run_json(capsys, "weights", "--m", str(m), "--k", str(k))
    assert code == 0
    observed = {int(r["name"][2:]): r["observed"] for r in payload["results"] if r["name"].startswith("A_")}
    assert observed == KNOWN_WEIGHTS[m]
    rows = results_by_name(payload)
    assert rows["sum of w A_w"]["verdict"] == rows["sum of w^2 A_w"]["verdict"] == "pass"
    assert payload["params"] == {"m": m, "k": k}


@pytest.mark.parametrize("m", [8, 10])
def test_a_sign_flipped_class_fails_a_weights_row(capsys, monkeypatch, m):
    # F -> -F at b = alpha (class c = 1 of 3) sends each weight w of that class
    # to 2^m - w.  The first power moment fails; at m = 8 so do the pinned
    # weights, and at m = 10 none is pinned.
    walsh = crosscorr.walsh_spectrum

    def flipped(field, e1, e2=1, c=0):
        W = walsh(field, e1, e2, c)
        return -W if c == 1 else W

    monkeypatch.setattr(crosscorr, "walsh_spectrum", flipped)
    code, payload = run_json(capsys, "weights", "--m", str(m), "--k", "1")
    assert code == 1
    failed = [r["name"] for r in payload["results"] if r["verdict"] == "fail"]
    assert "sum of w A_w" in failed
    assert any(name.startswith("A_") for name in failed) == (m == 8)


def test_weights_theorem1_rows_fail_on_wrong_a1(capsys, monkeypatch):
    _a1_off_by(monkeypatch, 96)
    code, out, _ = run(capsys, "weights", "--m", "9", "--k", "1")
    assert code == 1
    assert "b = 1 multiplicity N2" in out and "fail" in out


def test_curvecount_catalog(capsys):
    code, payload = run_json(capsys, "curvecount", "--curve", "kloosterman", "--s", "6")
    assert code == 0
    rows = results_by_name(payload)
    assert all(rows[f"N_{s}"]["verdict"] == "pass" for s in range(1, 7))
    code, payload = run_json(capsys, "curvecount", "--curve", "p4", "--s", "4")
    assert code == 0
    assert results_by_name(payload)["N_1"]["observed"] == 3


def y_cubic_file(tmp_path):
    path = tmp_path / "cubic.curve"
    path.write_text("".join(f"{a} {b} {c}\n" for a, b, c in Y_CUBIC))
    return str(path)


def test_curvecount_counts_a_curve_cubic_in_y_by_the_generic_counter(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("count_projective_points", "count_projective_points_fast"):
        counter = getattr(curves, name)
        monkeypatch.setattr(curves, name, lambda P, s, name=name, counter=counter:
                            calls.append(name) or counter(P, s))
    code, payload = run_json(capsys, "curvecount", "--curve", y_cubic_file(tmp_path), "--s", "3")
    assert code == 0
    assert [r["observed"] for r in payload["results"]] == [
        naive_projective_count(Y_CUBIC, NaiveField(s, gf2m.get_field(s).reduction)) for s in (1, 2, 3)]
    assert calls == ["count_projective_points"] * 3


def test_curvecount_rejects_s_before_counting(tmp_path, capsys, monkeypatch):
    # The generic counter's cap relates --s to the curve, so the subcommand
    # refuses it, still before any count.
    calls = []
    for name in ("count_projective_points", "count_projective_points_fast"):
        monkeypatch.setattr(curves, name, lambda P, s, name=name: calls.append((name, s)) or 0)
    for curve, s in (("kloosterman", "21"), (y_cubic_file(tmp_path), "13")):
        code, _, err = run(capsys, "curvecount", "--curve", curve, "--s", s)
        assert code == 2, (curve, s)
        assert "error:" in err and "--s" in err, (curve, s)
    assert calls == []


@pytest.mark.parametrize("argv,option", [(("weights", "--m", "7", "--k", "1"), ("--mode", "direct")),
                                         (("curvecount", "--curve", "kloosterman", "--s", "2"), ("--generic",))])
def test_a_route_option_is_an_unknown_option(capsys, argv, option):
    # The input picks the route: no option names one.
    code, out, err = run(capsys, *argv, *option)
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: " + " ".join(option) in err
    assert run(capsys, *argv)[0] == 0


def test_curvecount_reports_a_catalog_error_without_trying_a_path(capsys, monkeypatch):
    # A catalog name is resolved by membership, so a ValueError raised while
    # reading the catalog entry is the error shown, not "no such file".
    def unreadable(name):
        raise ValueError(f"bad line in catalog curve {name}")

    monkeypatch.setattr(curves, "catalog_curve", unreadable)
    code, _, err = run(capsys, "curvecount", "--curve", "kloosterman", "--s", "2")
    assert (code, err) == (2, "error: bad line in catalog curve kloosterman\n")


def test_curvecount_from_file(tmp_path, capsys):
    path = tmp_path / "c.curve"
    path.write_text("".join(f"{a} {b} {c}\n" for a, b, c in catalog_curve("kloosterman").polynomial.monomials))
    code, payload = run_json(capsys, "curvecount", "--curve", str(path), "--s", "3")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["N_1"]["verdict"] == "recorded"  # no catalog prediction for files
    assert rows["N_1"]["observed"] == 4


def test_zeta_power_sums(capsys):
    code, payload = run_json(capsys, "zeta", "--l-poly", "z2", "--s-max", "3")
    assert code == 0
    rows = results_by_name(payload)
    assert [rows[f"P_{s}"]["observed"] for s in (1, 2, 3)] == [-1, -3, 5]
    assert rows["N_1 predicted"]["observed"] == 4
    assert "functional equation" not in rows  # catalog_lpoly checks it at load
    code, payload = run_json(capsys, "zeta", "--l-poly", "z2")  # --s-max defaults to 10
    assert code == 0
    assert [r["name"] for r in payload["results"] if r["name"].startswith("P_")] == [
        f"P_{s}" for s in range(1, 11)]


def test_zeta_every_catalog_entry_passes(capsys):
    # A correction factor is no curve's numerator: its roots have modulus 1,
    # so it has P_s rows alone, no N_s prediction and no functional equation.
    for name in zeta.catalog_lpoly_names():
        code, payload = run_json(capsys, "zeta", "--l-poly", name, "--s-max", "3")
        assert code == 0, name
        names = [r["name"] for r in payload["results"]]
        assert names[:3] == ["P_1", "P_2", "P_3"], name
        assert (names == ["P_1", "P_2", "P_3"]) == (name in zeta.CORRECTION_FACTORS), name
    assert zeta.CORRECTION_FACTORS == ("singular_extra",)


def test_zeta_from_file(tmp_path, capsys):
    path = tmp_path / "t.lpoly"
    path.write_text("1 1 2\n")
    code, payload = run_json(capsys, "zeta", "--l-poly", str(path), "--s-max", "2")
    assert code == 0
    rows = results_by_name(payload)
    assert rows["P_1"]["observed"] == -1
    assert rows["functional equation"]["verdict"] == "pass"
    path.write_text("1 1 3\n")  # 3 t^2 is not 2 t^2: the file's functional equation fails as a row
    code, payload = run_json(capsys, "zeta", "--l-poly", str(path), "--s-max", "2")
    assert code == 1
    assert [r["name"] for r in payload["results"] if r["verdict"] == "fail"] == ["functional equation"]


def test_zeta_from_file_of_odd_degree_fails(tmp_path, capsys):
    # The catalog load refuses an odd-degree L; a file of one fails its
    # functional equation by length, as a row, with its counts still recorded.
    path = tmp_path / "odd.lpoly"
    path.write_text("1 1 2 2\n")
    code, payload = run_json(capsys, "zeta", "--l-poly", str(path), "--s-max", "2")
    assert code == 1
    rows = results_by_name(payload)
    assert [r["name"] for r in payload["results"] if r["verdict"] == "fail"] == ["functional equation"]
    assert rows["functional equation"]["observed"] == [1, 1, 2, 2]
    assert "N_2 predicted" in rows


def test_zeta_reconstruct(capsys):
    code, payload = run_json(capsys, "zeta", "--reconstruct", "4", "4", "--genus", "2")
    assert code == 0
    row = results_by_name(payload)["reconstructed coefficients"]
    assert row["observed"] == [1, 1, 0, 2, 4]


def test_zeta_reconstruct_checks_the_counts_past_the_genus(capsys):
    # The Kloosterman cubic's N_1..N_6: N_1 gives L = 1 + t + 2t^2, which predicts the other five
    code, payload = run_json(capsys, "zeta", "--reconstruct", "4", "8", "4", "16", "44", "56", "--genus", "1")
    assert code == 0
    assert [(r["name"], r["verdict"]) for r in payload["results"]] == [
        ("reconstructed coefficients", "recorded"), *((f"N_{s}", "pass") for s in range(2, 7))]
    code, payload = run_json(capsys, "zeta", "--reconstruct", "4", "8", "16", "--genus", "1")
    assert code == 1
    row = results_by_name(payload)["N_3"]
    assert (row["observed"], row["expected"], row["verdict"]) == (16, 4, "fail")


def test_dm_check(capsys):
    code, payload = run_json(capsys, "dm-check", "--bound", "100")
    assert code == 0
    assert [(r["name"], r["verdict"]) for r in payload["results"]] == [
        ("P_m(l1prime) = 0 for 3 coprime m <= 100", "pass"),
        ("expansion matches published coefficients", "pass")]
    assert payload["results"][0]["observed"] == payload["results"][0]["expected"] == {}


def test_a_wrong_published_coefficient_fails_c9_and_dm_check_at_its_index(capsys, monkeypatch):
    monkeypatch.setattr(zeta, "L1PRIME_EXPANSION", {**zeta.L1PRIME_EXPANSION, 9: -47})
    rows = {name: (observed, expected) for name, observed, expected in acceptance.CRITERIA["C9"](18, 10)}
    observed, expected = rows.pop("expansion matches published coefficients")
    assert (observed[9], expected[9]) == (-48, -47)
    assert all(observed == expected for observed, expected in rows.values())
    code, payload = run_json(capsys, "dm-check")
    assert code == 1
    failed = [r for r in payload["results"] if r["verdict"] == "fail"]
    assert [r["name"] for r in failed] == ["expansion matches published coefficients"]
    assert (failed[0]["observed"]["9"], failed[0]["expected"]["9"]) == (-48, -47)


def test_verify_all_small(capsys):
    code, payload = run_json(capsys, "verify-all", "--max-m", "8", "--max-s", "5")
    assert code == 0
    assert all(r["verdict"] == "pass" for r in payload["results"])
    names = [r["name"] for r in payload["results"]]
    assert any(n.startswith("C12") for n in names)
    assert list(payload["timings"]) == [f"C{i}" for i in range(1, 13)]


def test_json_output_deterministic(capsys):
    for argv in (("expsum", "--m", "5", "--sum", "G", "--k", "2"),
                 ("verify-all", "--max-m", "5", "--max-s", "3")):
        _, first = run_json(capsys, *argv)
        _, second = run_json(capsys, *argv)
        for payload in (first, second):
            payload.pop("wall_time_ms")
            payload.pop("timings")
        assert json.dumps(first) == json.dumps(second), argv


def test_csv_output(capsys):
    code, out, _ = run(capsys, "zeta", "--l-poly", "z4", "--s-max", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,expected,observed,verdict"
    assert any(line.startswith("P_1,") for line in lines)


def test_table_output(capsys):
    code, out, _ = run(capsys, "expsum", "--m", "7", "--sum", "K")
    assert code == 0
    assert "K_7" in out and "observed=-13" in out
    assert "0 failed" in out


def test_failure_exit_code(capsys, monkeypatch):
    # force a fail verdict by breaking an expectation
    monkeypatch.setitem(KNOWN_WEIGHTS[7], 64, 1)
    code, out, _ = run(capsys, "weights", "--m", "7", "--k", "1")
    assert code == 1
    assert "fail" in out


def test_inconsistency_is_a_failed_check(capsys, monkeypatch):
    # One Walsh entry off by 2 gives a sixth correlation value: one more
    # multiplicity row, which fails, and no error line.
    walsh = crosscorr.walsh_spectrum

    def bumped(field, e):
        w = walsh(field, e)
        w[1] += 2
        return w

    monkeypatch.setattr(crosscorr, "walsh_spectrum", bumped)
    code, out, err = run(capsys, "corrdist", "--m", "9", "--k", "1", "--json")
    assert (code, err) == (1, "")
    failed = [r for r in json.loads(out)["results"] if r["verdict"] == "fail"]
    extra = [r for r in failed if r["name"].startswith("multiplicity C_d=")]
    assert len(extra) == 1 and extra[0]["expected"] == 0


def _a1_off_by(monkeypatch, delta):
    """Make a1_formula report A_1 + delta, keeping its collision count."""
    real = crosscorr.a1_formula
    monkeypatch.setattr(crosscorr, "a1_formula", lambda m, k, brute=False: dataclasses.replace(
        real(m, k, brute), formula_value=real(m, k, brute=False).formula_value + delta))


def test_wrong_a1_fails_the_multiplicity_rows(capsys, monkeypatch):
    # N2 = (3*2^7 + A_1)/96 at m = 9 is not an integer for A_1 + 8: the row
    # expects the exact fraction, which no count equals.
    _a1_off_by(monkeypatch, 8)
    code, out, err = run(capsys, "corrdist", "--m", "9", "--k", "1", "--json")
    assert (code, err) == (1, "")
    row = results_by_name(json.loads(out))["multiplicity N2"]
    assert row["verdict"] == "fail" and row["expected"] == "109/12"


def test_wrong_a1_fails_c5_by_row(capsys, monkeypatch):
    _a1_off_by(monkeypatch, 8)
    code, out, err = run(capsys, "verify-all", "--max-m", "9", "--max-s", "2", "--json")
    assert (code, err) == (1, "")
    rows = json.loads(out)["results"]
    # every multiplicity moves with A_1; N0 - 6*N2 is read off the observed counts
    spectra = sum(expsums.theorem1_applies(m, k) for m in (5, 7, 9) for k in acceptance.GATE_K)
    c5 = [r for r in rows if r["name"].startswith("C5 m=") and " multiplicity " in r["name"]]
    assert len(c5) == spectra * 5 and all(r["verdict"] == "fail" for r in c5)
    slack = [r for r in rows if r["name"].startswith("C5 m=") and r["name"].endswith(" N0 - 6*N2")]
    assert len(slack) == spectra and all(r["verdict"] == "pass" for r in slack)
    assert "C5" not in [r["name"] for r in rows]


def test_wrong_kloosterman_sum_fails_its_row(capsys, monkeypatch):
    # a report whose value is off by one (2n - 2^m over the 2^m - 1 units)
    real = expsums.kloosterman
    monkeypatch.setattr(expsums, "kloosterman",
                        lambda m: dataclasses.replace(real(m), value=real(m).value - 1))
    code, out, err = run(capsys, "expsum", "--m", "9", "--sum", "K", "--json")
    assert (code, err) == (1, "")
    assert results_by_name(json.loads(out))["K_9 = -P_m(z2)"]["verdict"] == "fail"


def test_negated_spectrum_fails_the_moment_rows(capsys, monkeypatch):
    # Flipping the sign of every +-1 in the Walsh input negates the spectrum:
    # the moment identities are corrdist rows, so they fail as rows.
    walsh = crosscorr.walsh_spectrum
    monkeypatch.setattr(crosscorr, "walsh_spectrum", lambda field, e: -walsh(field, e))
    code, payload = run_json(capsys, "corrdist", "--m", "9", "--k", "1")
    assert code == 1
    rows = results_by_name(payload)
    assert rows["first moment"]["verdict"] == "fail"
    assert rows["sum of multiplicities"]["verdict"] == "pass"


def test_negated_spectrum_fails_the_a1_moment_rows(capsys, monkeypatch):
    # The rows off the derivative count, whose sum of delta^2 is A_1 + 2^(m+1):
    # W -> -W negates the third moment of W = C + 1 and keeps the fourth.
    walsh = crosscorr.walsh_spectrum
    monkeypatch.setattr(crosscorr, "walsh_spectrum", lambda field, e: -walsh(field, e))
    code, payload = run_json(capsys, "corrdist", "--m", "13", "--d", str(gf2m.decimation_exponent(13, 1)))
    assert code == 1
    rows = results_by_name(payload)
    assert rows["third moment of C + 1"]["observed"] == -rows["third moment of C + 1"]["expected"]
    assert [name for name, r in rows.items() if r["verdict"] == "fail"] == [
        "first moment", "second moment", "third moment of C + 1"]


def test_negated_spectrum_at_m17_fails_c5(monkeypatch):
    # W -> -W leaves N0 and N2 = N-2 (3 does not divide 17); it swaps N1 and
    # N-1, and the first two moments see it.
    walsh = crosscorr.walsh_spectrum
    monkeypatch.setattr(crosscorr, "walsh_spectrum",
                        lambda field, e: -walsh(field, e) if field.m == 17 else walsh(field, e))
    assert [name for name, observed, expected in acceptance.CRITERIA["C4"](18, 10) if observed != expected] == []
    failed = [name for name, observed, expected in acceptance.CRITERIA["C5"](18, 10) if observed != expected]
    assert failed == [f"m=17 k={k} {row}" for k in acceptance.GATE_K if expsums.theorem1_applies(17, k) for row in (
        "first moment", "second moment", "multiplicity N1", "multiplicity N-1")]


def test_missing_zero_word_fails_the_weight_rows(capsys, monkeypatch):
    # weight_distribution's result without the zero word: the word total and
    # the zero word are weights rows, so they fail as rows.
    real = crosscorr.WeightDistribution
    monkeypatch.setattr(crosscorr, "WeightDistribution",
                        lambda m, k, entries: real(m, k, {w: n for w, n in entries.items() if w}))
    code, payload = run_json(capsys, "weights", "--m", "9", "--k", "1")
    assert code == 1
    rows = results_by_name(payload)
    assert rows["zero words"]["verdict"] == rows["total words"]["verdict"] == "fail"
    assert rows["zero words"]["observed"] == 0


def test_a_raising_subcommand_is_one_failed_row(capsys, monkeypatch):
    # A raise that is not a refused argument is a failed run (exit 1), not a
    # bare traceback: one row named after the subcommand, the traceback on stderr.
    def broken(field, e):
        raise RuntimeError("spectrum broken")

    monkeypatch.setattr(crosscorr, "walsh_spectrum", broken)
    code, out, err = run(capsys, "corrdist", "--m", "9", "--k", "1", "--json")
    assert code == 1
    assert "RuntimeError: spectrum broken" in err
    assert json.loads(out)["results"] == [{"name": "corrdist", "expected": "no exception",
                                           "observed": "raised RuntimeError: spectrum broken",
                                           "verdict": "fail"}]


def test_verify_all_records_a_raising_criterion_and_runs_the_rest(capsys, monkeypatch):
    def broken(max_m, max_s):
        raise RuntimeError("criterion broken")
        yield

    monkeypatch.setitem(acceptance.CRITERIA, "C4", broken)
    code, out, err = run(capsys, "verify-all", "--max-m", "8", "--max-s", "5", "--json")
    assert code == 1
    assert "RuntimeError: criterion broken" in err  # the traceback
    payload = json.loads(out)
    failed = [r for r in payload["results"] if r["verdict"] == "fail"]
    assert [(r["name"], r["observed"]) for r in failed] == [
        ("C4", "raised RuntimeError: criterion broken")]
    names = [r["name"] for r in payload["results"]]
    assert names.index("C4") < min(i for i, n in enumerate(names) if n.startswith("C5"))
    assert any(n.startswith("C12") for n in names)
    assert list(payload["timings"]) == [f"C{i}" for i in range(1, 13)]


def test_error_exit_code(tmp_path, capsys):
    code, out, err = run(capsys, "a1", "--m", "8", "--k", "1")
    assert code == 2
    assert "error:" in err
    # 3 divides 2^1 + 1 and 2^10 - 1: no b != 0 reduces to b = 1, and still
    # every word is weighed, with no cap on m
    code, out, err = run(capsys, "weights", "--m", "10", "--k", "1")
    assert (code, err) == (0, "")
    assert "0 failed" in out
    for argv in (
        ("curvecount", "--curve", "kloosterman", "--s", "25"),
        ("curvecount", "--curve", y_cubic_file(tmp_path), "--s", "13"),
        ("curvecount", "--curve", "kloosterman", "--s", "0"),
        ("conjectures", "--m-range", "5:3"),
        ("conjectures", "--k-range", "4:1"),
        ("conjectures", "--k-range", "0:3"),
        ("conjectures", "--m-range", "1:25"),
        ("weights", "--m", "7", "--k", "0"),
        ("corrdist", "--m", "7", "--k", "0"),
        ("corrdist", "--m", "25", "--k", "1"),
        ("zeta",),
        ("zeta", "--reconstruct", "4", "4"),
        ("zeta", "--reconstruct", "4", "--genus", "1", "--l-poly", "z2"),
        ("expsum", "--m", "7", "--sum", "K", "--k", "0"),
        ("expsum", "--m", "7", "--sum", "K", "--k", "-3"),
        ("verify-all", "--max-m", "0"),
        ("verify-all", "--max-s", "0"),
        ("curvecount", "--curve", "/nonexistent", "--s", "2"),
        ("zeta", "--l-poly", "/nonexistent"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err, argv
        assert not re.search(r"\binf\b", err), (argv, err)  # an unbounded domain states its lower end alone
    for argv, option in ((("dm-check", "--bound", "0"), "--bound"),
                         (("verify-all", "--max-m", "25"), "--max-m"),
                         (("verify-all", "--max-s", "21"), "--max-s"),
                         (("zeta", "--reconstruct", "4", "--genus", "0"), "--genus"),
                         (("zeta", "--reconstruct", "4", "x", "--genus", "1"), "--reconstruct"),
                         (("zeta", "--reconstruct", "4", "-3", "--genus", "1"), "--reconstruct"),
                         (("zeta", "--l-poly", "z2", "--genus", "5"), "--genus"),
                         (("zeta", "--reconstruct", "4", "4", "--genus", "2", "--s-max", "3"), "--s-max")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err and option in err, argv
        assert not re.search(r"\binf\b", err), (argv, err)
    for argv, message in ((("expsum", "--m", "7", "--sum", "K", "--k", "0"), "0 below 1"),
                          (("conjectures", "--k-range", "0:3"), "range '0:3' is empty or below 1"),
                          (("dm-check", "--bound", "0"), "0 below 1"),
                          (("verify-all", "--max-m", "25"), "25 outside 1..24"),
                          # a refusal at any k names the gcd, not 2^k + 1
                          (("corrdist", "--m", "2", "--k", "20001"), "2^20001+1 is not invertible modulo 2^2-1 (gcd 3)")):
        assert message in run(capsys, *argv)[2], argv
    for argv in (("weights", "--m", "6", "--k", "2"), ("weights", "--m", "3", "--k", "2")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error: degenerate code" in err, argv


@pytest.mark.parametrize("argv", [
    ("expsum", "--m", "x", "--sum", "K"),  # not an integer
    ("expsum", "--m", "7", "--sum", "Q"),  # not a choice
    ("expsum", "--m", "7", "--sum", "K", "--bogus"),  # unknown option
    ("expsum", "--sum", "K"),  # missing required option
    (),  # no subcommand
    ("expsum", "--m", "7", "--sum", "K", "--json", "--csv"),
    ("corrdist", "--m", "7"),
    ("corrdist", "--m", "7", "--k", "1", "--d", "5"),
    ("zeta",),
    ("zeta", "--l-poly", "z2", "--reconstruct", "4", "--genus", "1"),
])
def test_a_refused_argument_returns_2_without_raising(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error:" in err


# One accepted argv per subcommand and mode; every option that takes a typed
# value appears in one of them.
ACCEPTED = [
    ("expsum", "--m", "5", "--k", "1", "--sum", "K"),
    ("conjectures", "--m-range", "1:3", "--k-range", "1:2"),
    ("corrdist", "--m", "5", "--k", "1"),
    ("corrdist", "--m", "5", "--d", "3"),
    ("a1", "--m", "5", "--k", "1"),
    ("weights", "--m", "5", "--k", "1"),
    ("curvecount", "--curve", "kloosterman", "--s", "2"),
    ("zeta", "--l-poly", "z2", "--s-max", "2"),
    ("zeta", "--reconstruct", "4", "--genus", "1"),
    ("dm-check", "--bound", "10"),
    ("verify-all", "--max-m", "3", "--max-s", "2"),
]


def test_parser_options_are_pinned():
    # Every (subcommand, option) pair of the parser.  An option that the input
    # decides (a route, a genus, q) does not belong here; a new option needs a
    # deliberate edit of this set.
    commands = next(action.choices for action in build_parser()._actions if action.dest == "command")
    found = {(name, option) for name, sp in commands.items() for action in sp._actions
             for option in action.option_strings if option not in ("-h", "--help", "--json", "--csv")}
    assert set(commands) == {"expsum", "conjectures", "corrdist", "a1", "weights", "curvecount", "zeta",
                             "dm-check", "verify-all"}
    assert found == {
        ("expsum", "--m"), ("expsum", "--k"), ("expsum", "--sum"),
        ("conjectures", "--m-range"), ("conjectures", "--k-range"),
        ("corrdist", "--m"), ("corrdist", "--k"), ("corrdist", "--d"),
        ("a1", "--m"), ("a1", "--k"),
        ("weights", "--m"), ("weights", "--k"),
        ("curvecount", "--curve"), ("curvecount", "--s"),
        ("zeta", "--l-poly"), ("zeta", "--reconstruct"), ("zeta", "--s-max"), ("zeta", "--genus"),
        ("dm-check", "--bound"),
        ("verify-all", "--max-m"), ("verify-all", "--max-s"),
    }
    assert all({"-h", "--help", "--json", "--csv"} <= {option for action in sp._actions
                                                       for option in action.option_strings}
               for sp in commands.values())


def test_every_typed_option_refuses_below_its_domain_before_building_a_field(capsys, monkeypatch):
    # Walks the parser: each option's domain is declared, so the value just
    # below it (lo - 1 for a bounded type) in any typed option exits 2 before
    # any field table is built.  --d is a plain int: 0 is never a unit mod 2^m - 1.
    commands = next(action.choices for action in build_parser()._actions if action.dest == "command")
    typed = {(name, option): str(getattr(action.type, "lo", 1) - 1)
             for name, sp in commands.items() for action in sp._actions
             if action.type is not None for option in action.option_strings}
    assert typed[("zeta", "--reconstruct")] == "-1"
    assert typed.keys() <= {(argv[0], option) for argv in ACCEPTED for option in argv[1:]}
    for argv in ACCEPTED:
        assert run(capsys, *argv)[0] == 0, argv
    gf2m.get_field.cache_clear()  # a cached field would hide a refusal that comes after get_field
    builds = []
    monkeypatch.setattr(gf2m.Field, "_exp_by_frobenius", lambda field: builds.append(field.m))
    for argv in ACCEPTED:
        for i, option in enumerate(argv):
            if (argv[0], option) in typed:
                code, _, err = run(capsys, *argv[:i + 1], typed[argv[0], option], *argv[i + 2:])
                assert code == 2 and "error:" in err, (argv, option)
    assert builds == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
