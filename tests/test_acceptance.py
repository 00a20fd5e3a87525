"""Acceptance gate: the twelve criteria of char2kit.acceptance, one test each.

The criteria are the ones `char2kit verify-all` runs; here they run at
max_m = 19, max_s = 10, which adds m = 19 to C3, to C8 and to the spectrum
rows of C5 (moments and theorem 1).  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion pass/FAIL lines; every
comparison is exact equality.
"""

import dataclasses
import math
from collections import Counter

from char2kit import crosscorr, expsums
from char2kit.acceptance import CRITERIA, GATE_K, spectrum_rows, sum_rows
from char2kit.gf2m import decimation_exponent


def run_criterion(key: str) -> None:
    criterion = CRITERIA[key]
    rows = list(criterion(19, 10))
    failed = [name for name, observed, expected in rows if observed != expected]
    print(f"criterion {key[1:]:0>2} ({criterion.__doc__}): {'FAIL' if failed else 'pass'}")
    assert rows, f"{key} checked nothing"
    assert not failed, failed


def test_criterion_01_kp_equals_k_at_k3():
    run_criterion("C1")


def test_criterion_02_g3_equals_g_and_gcd_reduction():
    run_criterion("C2")


def test_criterion_03_c_sum_closed_form():
    run_criterion("C3")


def test_criterion_04_a1_derivative_count_equals_formula():
    run_criterion("C4")


def test_criterion_05_five_value_distribution():
    run_criterion("C5")


def test_criterion_06_weight_distributions():
    run_criterion("C6")


def test_criterion_07_curve_counts_match_zeta():
    run_criterion("C7")


def test_criterion_08_trace_vs_zeta_identities():
    run_criterion("C8")


def test_criterion_09_vanishing_power_sum_recurrence():
    run_criterion("C9")


def test_criterion_10_reconstruction_from_counts():
    run_criterion("C10")


def test_criterion_11_singular_correction_power_sums():
    run_criterion("C11")


def test_criterion_12_factorization():
    run_criterion("C12")


def test_every_criterion_has_a_test():
    tested = [int(name.split("_")[2]) for name in globals() if name.startswith("test_criterion_")]
    assert [f"C{n}" for n in sorted(tested)] == list(CRITERIA)


def test_each_spectrum_is_built_once_and_each_row_named_once(monkeypatch):
    built = Counter()
    real = crosscorr.correlation_distribution

    def counted(m, d):
        built[m, d] += 1
        return real(m, d)

    monkeypatch.setattr(crosscorr, "correlation_distribution", counted)
    names = Counter(f"{key} {name}" for key, criterion in CRITERIA.items() for name, _, _ in criterion(19, 10))
    assert [name for name, n in names.items() if n > 1] == []
    assert set(built) == {(m, decimation_exponent(m, k)) for m in range(5, 20, 2) for k in GATE_K
                          if math.gcd(k, m) == 1}
    assert set(built.values()) == {1}


def test_c5_compares_each_spectrum_with_k1_at_every_odd_m():
    # The k-independence Johansen and Helleseth state: at each odd m the
    # spectra for every other k of GATE_K (where gcd(k, m) = 1) equal the one for k = 1.
    rows = [(name, observed == expected) for name, observed, expected in CRITERIA["C5"](17, 10)
            if name.endswith("equals k=1")]
    assert rows == [(f"distribution m={m} k={k} equals k=1", True)
                    for m in range(5, 18, 2) for k in GATE_K if k > 1 and math.gcd(k, m) == 1]


def test_moment_rows_fail_a_spectrum_that_keeps_the_lower_moments():
    # Counts moved along the integer kernel of the Vandermonde matrix of values
    # 64 apart: binomial weights (1, -4, 6, -4, 1) on five values keep the
    # count and the first three moments, (1, -3, 3, -1) on four the first two.
    dist = crosscorr.correlation_distribution(16, 7)
    assert len(dist.entries) == 30
    for weights, failed in (((), []),
                            ((1, -4, 6, -4, 1), ["fourth moment of C + 1"]),
                            ((1, -3, 3, -1), ["third moment of C + 1", "fourth moment of C + 1"])):
        entries = Counter(dist.entries)
        entries.update({-129 + 64 * i: w for i, w in enumerate(weights)})
        mutant = crosscorr.CorrelationDistribution(16, 7, dict(entries))
        rows = list(spectrum_rows("", mutant))
        assert [name for name, observed, expected in rows if observed != expected] == failed, weights


def _rows_reading_one_residue(criterion, max_m, monkeypatch):
    """The rows of criterion(max_m, 10) that still pass when every trace-zero
    count is offset by a number of its own per field and exponent-residue key,
    as _trace_zero_count and k_prime key their memos: such a row reads one
    residue on both sides, so no change to that residue's sum can fail it."""
    offsets = {}
    real_count, real_k_prime = expsums._trace_zero_count, expsums.k_prime

    def offset(key):
        return offsets.setdefault(key, len(offsets) + 1)

    def count(field, a, b):
        return real_count(field, a, b) + offset((field.m, "pair", *sorted((a % field.order, b % field.order))))

    def k_prime(m, k):  # counts inline, not through _trace_zero_count
        report = real_k_prime(m, k)
        n = report.trace_zero_count + offset((m, "Kp", (1 << k) % report.domain_size))
        return dataclasses.replace(report, value=2 * n - report.domain_size, trace_zero_count=n)

    monkeypatch.setattr(expsums, "_trace_zero_count", count)
    monkeypatch.setattr(expsums, "k_prime", k_prime)
    return [name for name, observed, expected in criterion(max_m, 10) if observed == expected]


def test_no_sum_row_reads_one_residue_on_both_sides(monkeypatch):
    # Each side of a C1, C2 or C8 row, and of each row that `expsum` and
    # `conjectures` check (sum_rows at k <= 6), is a sum at its own exponent
    # residues, or the zeta side or a closed form, so with every residue's
    # count offset every row fails.
    def subcommand_rows(max_m, max_s):
        for name in ("K", "C", "G", "Kp"):
            yield from (row for m in range(1, max_m + 1) for k in range(1, 7)
                        for checks, row in sum_rows(name, m, k) if checks)

    for key, criterion in [(key, CRITERIA[key]) for key in ("C1", "C2", "C8")] + [("sum_rows", subcommand_rows)]:
        with monkeypatch.context() as patch:
            assert _rows_reading_one_residue(criterion, 12, patch) == [], key


def test_one_residue_rule_reports_rows_that_read_one_residue_twice(monkeypatch):
    # G^(k + m) and K'^(k + m) read the residues of G^(k) and K'^(k), as
    # 2^(k + m) = 2^k mod 2^m - 1; G^(4) at m = 5 reads another one.
    def criterion(max_m, max_s):
        for m in range(2, max_m + 1):
            yield f"G^(1) = G^(m+1) m={m}", expsums.g_sum(m, 1).value, expsums.g_sum(m, m + 1).value
            yield f"K'^(3) = K'^(m+3) m={m}", expsums.k_prime(m, 3).value, expsums.k_prime(m, m + 3).value
        yield "G_5^(1) = G_5^(4)", expsums.g_sum(5, 1).value, expsums.g_sum(5, 4).value

    assert _rows_reading_one_residue(criterion, 6, monkeypatch) == [
        name for m in range(2, 7) for name in (f"G^(1) = G^(m+1) m={m}", f"K'^(3) = K'^(m+3) m={m}")]
