import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from char2kit import crosscorr as cc
from char2kit.acceptance import KNOWN_WEIGHTS
from char2kit.gf2m import LOG_BLOCK, MAX_M, FieldError, decimation_exponent, get_field

from oracles import (
    NaiveField,
    butterfly_transform,
    cross_correlation,
    differential,
    naive_a1,
    naive_cross_correlation,
    naive_cyclotomic_cosets,
    naive_weight_distribution,
    row_loop_direct_weights,
    sorted_pair_collision_a1,
    stacked_walsh_spectrum,
)


def naive(m):
    return NaiveField(m, get_field(m).reduction)


def shiftwise_scan(m, d):
    scan = {}
    for tau in range(2**m - 1):
        v = cross_correlation(m, d, tau)
        scan[v] = scan.get(v, 0) + 1
    return scan


# -- single-shift correlation -------------------------------------------------


def test_autocorrelation_d1():
    # d = 1: two-level autocorrelation of an m-sequence
    for m in (3, 5, 8):
        order = 2**m - 1
        assert cross_correlation(m, 1, 0) == order
        for tau in range(1, order):
            assert cross_correlation(m, 1, tau) == -1


@pytest.mark.parametrize("m,k", [(5, 1), (5, 2), (7, 1), (7, 3)])
def test_cross_correlation_matches_naive(m, k):
    d = decimation_exponent(m, k)
    nf = naive(m)
    for tau in (0, 1, 2, 2**m - 2):
        assert cross_correlation(m, d, tau) == naive_cross_correlation(nf, d, tau)


def test_cross_correlation_rejects_bad_args():
    with pytest.raises(FieldError):
        cross_correlation(4, 3, 0)  # gcd(3, 15) != 1
    with pytest.raises(FieldError):
        cross_correlation(5, 3, 31)  # tau out of range


# -- Walsh spectrum -----------------------------------------------------------


@st.composite
def degree_and_exponent(draw):
    """(m, e) with m <= 16 and e in [-2^(m+1), 2^(m+1)]."""
    m = draw(st.integers(1, 16))
    return m, draw(st.integers(-(2 ** (m + 1)), 2 ** (m + 1)))


@differential
@given(me=degree_and_exponent())
@example(me=(1, 0)).via("e = 0 at m = 1, where 2^m - 1 = 1")
@example(me=(7, 127)).via("e = 2^m - 1")
@example(me=(13, -2 * 8191)).via("e = -2 (2^m - 1)")
@example(me=(16, 0)).via("e = 0 at the largest m")
def test_walsh_spectrum_matches_stacked_route(me):
    m, e = me
    field = get_field(m)
    W = cc.walsh_spectrum(field, e)
    assert W.dtype == np.int32
    assert np.array_equal(W, stacked_walsh_spectrum(field, e))


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("e", [0, 1, 3, 5, -1, 11, 2**6 - 1])
def test_walsh_spectrum_matches_definition(m, e):
    # W(b) = sum over y of (-1)^(Tr(y^e) + popcount(b & y)), with 0^e = 0
    nf = naive(m)
    tr = [0 if y == 0 else nf.trace(nf.pow(y, e % nf.order)) for y in range(nf.size)]
    expected = [sum((-1) ** (tr[y] + (b & y).bit_count()) for y in range(nf.size))
                for b in range(nf.size)]
    assert cc.walsh_spectrum(get_field(m), e).tolist() == expected


@pytest.mark.parametrize("block", [1, 5, 64])
def test_walsh_spectrum_in_small_input_blocks_matches_stacked_route(monkeypatch, block):
    # Blocks that split the 2^m - 1 nonzero y unevenly, and one longer than them.
    monkeypatch.setattr(cc, "LOG_BLOCK", block)
    field = get_field(7)
    for e in (1, 3, -5):
        assert np.array_equal(cc.walsh_spectrum(field, e), stacked_walsh_spectrum(field, e))


@differential
@given(m=st.integers(1, 8), e1=st.integers(0, 600), e2=st.integers(1, 600),
       c=st.one_of(st.none(), st.integers(0, 40)), block=st.sampled_from((5, LOG_BLOCK)))
@example(m=8, e1=3, e2=5, c=1, block=LOG_BLOCK).via("h = 5 and b = alpha, a class of weights --m 8 --k 1")
@example(m=6, e1=3, e2=5, c=1, block=5).via("h = 1 and b = alpha, a class of weights --m 6 --k 1")
@example(m=6, e1=5, e2=21, c=None, block=5).via("b = 0 at h = 21, in 5-entry blocks")
@example(m=4, e1=3, e2=15, c=2, block=LOG_BLOCK).via("e2 = 2^m - 1: every unit in the fibre of 1")
def test_walsh_spectrum_of_fibre_sums_matches_definition(m, e1, e2, c, block):
    # F(z) = sum over x with x^e2 = z of (-1)^Tr(b x^e1), b = alpha^c or 0, and
    # W(a) = sum over z of F(z) (-1)^popcount(a & z), all in NaiveField arithmetic.
    nf = naive(m)
    if math.gcd(e1, e2, nf.order) > 1:  # e1 not prime to gcd(e2, 2^m - 1)
        with pytest.raises(FieldError, match="is not prime to"):
            cc.walsh_spectrum(get_field(m), e1, e2, c)
        return
    b = 0 if c is None else nf.pow(0b10, c)
    F = [0] * nf.size
    for x in range(nf.size):
        z, y = (0, 0) if x == 0 else (nf.pow(x, e2 % nf.order), nf.mul(b, nf.pow(x, e1 % nf.order)))
        F[z] += (-1) ** nf.trace(y)
    expected = [sum(F[z] * (-1) ** (a & z).bit_count() for z in range(nf.size)) for a in range(nf.size)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cc, "LOG_BLOCK", block)  # both input loops in blocks that split n unevenly
        assert cc.walsh_spectrum(get_field(m), e1, e2, c).tolist() == expected


@st.composite
def transform_inputs(draw):
    """An integer vector of length 2^m, m <= 12: +-1 entries, or small ints
    whose partial sums stay within 2^24 (|v| <= 2^(24-m))."""
    m = draw(st.integers(0, 12))
    bound = 1 if draw(st.booleans()) else 1 << (24 - m)
    values = st.sampled_from((-1, 1)) if bound == 1 else st.integers(-bound, bound)
    return draw(st.lists(values, min_size=1 << m, max_size=1 << m))


@differential
@given(v=transform_inputs(), block=st.sampled_from((1, 5, 64, LOG_BLOCK)))
@example(v=[1], block=LOG_BLOCK).via("m = 0: the transform of one entry is that entry")
@example(v=[2**12] * 4096, block=5).via("the largest partial sum, 2^24, at m = 12 in chunks of 4")
@example(v=[-1] * 2048 + [1] * 2048, block=64).via("a sign change at the top index bit")
def test_walsh_transform_matches_butterfly_oracle(v, block):
    # Chunks of 2^floor(log2 block) entries: 1, 4 and 64 cover the low bits
    # with 0, 2 and 6 index bits and leave the rest to the in-place stages
    # across chunks, which LOG_BLOCK leaves to m > 14.
    w = np.array(v, dtype=np.float32)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cc, "LOG_BLOCK", block)
        W = cc.walsh_transform(w)
    assert W.dtype == np.int32
    assert np.shares_memory(W, w)  # the transform's output is its input's memory
    assert np.array_equal(W, butterfly_transform(v))


FLOAT32_EXACT = np.finfo(np.float32).nmant + 1  # float32 holds every integer up to 2^24


def test_max_m_within_float32_exact_range():
    # The float32 stages are exact while |partial sum| <= 2^m <= 2^24, and
    # Field refuses m past MAX_M; a larger MAX_M needs another transform.
    assert MAX_M <= FLOAT32_EXACT == 24


def test_walsh_spectrum_of_the_trace_at_m_20():
    # e = 1: Tr(y) = b.y for every y exactly when b is the trace mask, so W is
    # 2^m there and 0 elsewhere, the largest magnitude the transform produces.
    field = get_field(20)
    expected = np.zeros(field.size, dtype=np.int32)
    expected[sum(int(field.trace_table[1 << i]) << i for i in range(field.m))] = 1 << 20
    assert np.array_equal(cc.walsh_spectrum(field, 1), expected)


# -- distribution sweep -------------------------------------------------------


@differential
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**31, 2**31 - 1)), min_size=1),
       st.sampled_from((1, 2, 3, LOG_BLOCK)))
@example([-7] * 5, LOG_BLOCK).via("a single repeated negative value")
@example([2**31 - 1, -2**31, 0], LOG_BLOCK).via("both int32 extremes")
@example([1, 1, 2, 2, 2, 3], 2).via("run edges at both ends of a two-pair window")
def test_runs_match_np_unique(values, block):
    a = np.array(values, dtype=np.int32)
    expected_values, expected_counts = np.unique(a, return_counts=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cc, "LOG_BLOCK", block)  # run edges found `block` neighbour pairs at a time
        windows = list(cc._runs(a))
    assert len(windows) == -(-len(values) // block)
    run_values, run_counts = (np.concatenate(pieces) for pieces in zip(*windows))
    assert run_values.dtype == np.int32
    assert np.array_equal(run_values, expected_values)
    assert np.array_equal(run_counts, expected_counts)
    assert np.array_equal(a, np.sort(values))  # sorted in place, as derivative_counts reads it


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_route_temporaries_stay_within_one_transform_buffer(monkeypatch):
    # With the field built, the Walsh route holds one 2^m-entry float32
    # buffer, transformed in place; the exponent index comes in blocks of
    # LOG_BLOCK / 2 entries, the transform's spare buffer holds LOG_BLOCK
    # entries, and each tally sorts the spectrum in place, so nothing else
    # comes near 2^m entries.  No memo is built: the first call on a fresh
    # field keeps the same bound.
    m, k = 18, 2
    get_field.cache_clear()
    field = get_field(m)
    d = decimation_exponent(m, k)
    calls = (lambda: cc.correlation_distribution(m, d), lambda: cc.weight_distribution(m, k))
    for call in calls:
        assert _traced_peak(call) < 4 * field.size + 2 * 8 * LOG_BLOCK
    # The tally alone, on spectra built before tracing starts: its run edges
    # are found LOG_BLOCK neighbour pairs at a time, a LOG_BLOCK-byte mask.
    prebuilt = [cc.walsh_spectrum(field, d) for _ in calls]
    monkeypatch.setattr(cc, "walsh_spectrum", lambda field, *exponents: prebuilt.pop())
    for call in calls:
        assert _traced_peak(call) < 2 * LOG_BLOCK


@pytest.mark.parametrize("m,k", [(5, 1), (7, 1), (7, 3)])
def test_distribution_matches_shiftwise_scan(m, k):
    d = decimation_exponent(m, k)
    dist = cc.correlation_distribution(m, d)
    assert dist.entries == shiftwise_scan(m, d)


@differential
@given(m=st.sampled_from(range(1, 12, 2)), d=st.integers(-4096, 4096))
def test_distribution_matches_shiftwise_scan_any_d(m, d):
    if math.gcd(d, 2**m - 1) != 1:
        reject()
    assert cc.correlation_distribution(m, d).entries == shiftwise_scan(m, d)


def test_distribution_values_m7():
    # A_1 = 0 for m = 7, so the +-2 buckets are empty: three values only
    d = decimation_exponent(7, 3)
    dist = cc.correlation_distribution(7, d)
    assert dist.entries == {-17: 28, -1: 63, 15: 36}


def test_distribution_caps():
    with pytest.raises(FieldError):
        cc.correlation_distribution(18, 3)
    with pytest.raises(FieldError):
        cc.correlation_distribution(6, 9)  # gcd(9, 63) != 1
    with pytest.raises(FieldError):
        cc.correlation_distribution(25, decimation_exponent(25, 1))  # over MAX_M


# -- quadruple count ----------------------------------------------------------


@pytest.mark.parametrize("m,k", [(3, 1), (5, 1), (5, 2), (5, 3), (7, 1)])
def test_a1_bruteforce_matches_naive(m, k):
    assert cc.a1_bruteforce(m, k) == naive_a1(naive(m), k)


@differential
@given(m=st.integers(1, 5), k=st.integers(1, 6))
def test_sorted_pair_collision_a1_matches_naive_any_k(m, k):
    # The oracle needs neither odd m nor gcd(k, m) = 1 (e.g. A_1 = 48 at (4, 1)).
    assert sorted_pair_collision_a1(m, k) == naive_a1(naive(m), k)


@pytest.mark.parametrize("m", range(1, 10))
def test_a1_derivative_count_matches_sorted_pair_collisions_or_refuses(m):
    # The derivative count against all 4^m pair keys at odd m and gcd(k, m) = 1;
    # every other (m, k) is refused.
    for k in range(1, 6):
        if m % 2 and math.gcd(k, m) == 1:
            assert cc.a1_bruteforce(m, k) == sorted_pair_collision_a1(m, k), k
        else:
            with pytest.raises(FieldError):
                cc.a1_bruteforce(m, k)


@differential
@given(m=st.sampled_from(range(1, 10, 2)), k=st.integers(1, 8))
def test_a1_derivative_count_matches_sorted_pair_collisions(m, k):
    if math.gcd(k, m) != 1:
        reject()
    assert cc.a1_bruteforce(m, k) == sorted_pair_collision_a1(m, k)


def test_a1_derivative_count_at_m_11():
    assert cc.a1_bruteforce(11, 1) == sorted_pair_collision_a1(11, 1) == 2112
    assert cc.a1_formula(11, 1, brute=False).formula_value == 2112


def _moment(dist, p):
    """The p-th moment of W = C + 1 over the shifts, in Python ints."""
    return sum((v + 1) ** p * n for v, n in dist.entries.items())


@differential
@given(m=st.integers(1, 12), d=st.integers(-4096, 4096))
def test_derivative_counts_give_the_third_and_fourth_moments(m, d):
    # Chabaud-Vaudenay for y^d, even m included: sum W^3 = 2^(2m) delta(1)
    # and sum W^4 = 2^(2m) sum delta^2.
    if math.gcd(d, 2**m - 1) != 1:
        reject()
    dist = cc.correlation_distribution(m, d)
    delta1, squares = cc.derivative_counts(m, d)
    assert (_moment(dist, 3), _moment(dist, 4)) == (delta1 << 2 * m, squares << 2 * m)


def test_derivative_count_holds_one_half_word_per_element():
    # With the field built, the count holds 2^(m-1) uint32 differences, sorted
    # in place; the exponents come LOG_BLOCK at a time and the run edges are
    # found LOG_BLOCK neighbour pairs at a time.
    m = 18
    field = get_field(m)
    assert _traced_peak(lambda: cc.derivative_counts(m, 5)) < 2 * field.size + 24 * LOG_BLOCK


def test_a1_examples():
    assert cc.a1_bruteforce(7, 3) == 0
    assert cc.a1_formula(7, 3).formula_value == 0
    r = cc.a1_formula(9, 2, brute=True)
    assert r.formula_value == 480 == r.brute_count
    assert cc.a1_formula(11, 1, brute=False).formula_value == 2112


@pytest.mark.parametrize("m,k", [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)])
def test_a1_formula_equals_brute(m, k):
    r = cc.a1_formula(m, k, brute=True)
    assert r.brute_count is not None
    assert r.formula_value == r.brute_count


@pytest.mark.parametrize("m, k", [(3, 1), (5, 1), (5, 2), (7, 3), (9, 2), (11, 1)])
def test_a1_from_spectrum_equals_derivative_count(m, k):
    # two computed routes to A_1, neither of them the exponential-sum formula:
    # the spectrum's five multiplicities are theorem 1's at the counted A_1
    dist = cc.correlation_distribution(m, decimation_exponent(m, k))
    assert cc.match_multiplicities(dist) == cc.theorem1_multiplicities(m, cc.a1_bruteforce(m, k))


def test_a1_argument_checks():
    with pytest.raises(FieldError):
        cc.a1_formula(8, 1)  # even m
    with pytest.raises(FieldError):
        cc.a1_formula(9, 3)  # gcd(3, 9) != 1
    for m, k in ((8, 1), (9, 3)):
        with pytest.raises(FieldError):
            cc.a1_bruteforce(m, k)
    assert cc.a1_bruteforce(13, 1) == 8736


# -- five-value multiplicities ------------------------------------------------


def test_theorem1_m11():
    mult = cc.theorem1_multiplicities(11, 2112)
    assert mult == {"N2": 22, "N-2": 22, "N1": 440, "N-1": 408, "N0": 1155}
    assert sum(mult.values()) == 2**11 - 1


def test_theorem1_m9_divisible_by_3():
    mult = cc.theorem1_multiplicities(9, 480)
    assert mult["N1"] == mult["N-1"] == (3 * 2**10 - 480) // 24
    assert mult["N2"] == (3 * 2**7 + 480) // 96
    assert mult["N-2"] == (-3 * 2**7 + 480) // 96
    assert sum(mult.values()) == 2**9 - 1


def test_theorem1_error_paths():
    with pytest.raises(FieldError):
        cc.theorem1_multiplicities(8, 0)
    # a wrong A1 gives values that equal no count, not a raise
    off = cc.theorem1_multiplicities(11, 2113)  # not divisible
    assert off["N2"] == Fraction(2113, 96) and off["N0"] == Fraction(16 * 1023 + 2113, 16)
    assert all(not isinstance(v, int) for v in off.values())
    assert cc.theorem1_multiplicities(5, 96000) == {"N2": 1000, "N-2": 1000, "N1": -3990, "N-1": -3994,
                                                    "N0": 6015}  # negative buckets, returned as they are


@pytest.mark.parametrize("m,k", [(3, 1), (5, 1), (5, 2), (7, 1), (7, 3), (11, 1), (13, 1)])
def test_observed_matches_theorem1(m, k):
    d = decimation_exponent(m, k)
    dist = cc.correlation_distribution(m, d)
    observed = cc.match_multiplicities(dist)
    predicted = cc.theorem1_multiplicities(m, cc.a1_formula(m, k, brute=False).formula_value)
    assert observed == predicted


def test_match_multiplicities_bucketing():
    dist = cc.CorrelationDistribution(11, 1, {-129: 22, -65: 408, -1: 1155, 63: 440, 127: 22})
    out = cc.match_multiplicities(dist)
    assert out == {"N0": 1155, "N1": 440, "N-1": 408, "N2": 22, "N-2": 22}
    # a value outside the five is filed under its own key, after the five
    dist = cc.CorrelationDistribution(5, 1, {-1: 5, 11: 1, 7: 2, -9: 3, 15: 4, -17: 6})
    out = cc.match_multiplicities(dist)
    assert out == {"N0": 5, "N1": 2, "N-1": 3, "N2": 4, "N-2": 6, "C_d=11": 1}
    assert list(out)[-1] == "C_d=11"


# -- weight distributions -----------------------------------------------------


def test_class_reduction_needs_only_the_gcd_of_2k_plus_1():
    # `weights` picks its rows by gcd(2^k + 1, 2^m - 1) alone: wherever
    # 2^(2k) + 1 shares a factor with 2^m - 1, so does 2^k + 1, so one
    # class of b != 0 means no b = 0 transform either.
    pairs = [(m, k) for m in range(1, 25) for k in range(1, 60)
             if math.gcd((1 << (2 * k)) + 1, (1 << m) - 1) > 1]
    assert pairs  # e.g. (4, 1): gcd(5, 15) = 5
    assert all(math.gcd((1 << k) + 1, (1 << m) - 1) > 1 for m, k in pairs)


def test_squaring_sends_each_weight_class_to_its_double():
    # weight_distribution reads one class per orbit of c -> 2c mod g: squaring,
    # (a, b) -> (a^2, b^2), permutes the positions and sends class c to class
    # 2c mod g, so the two have one sorted spectrum.  Each of the 55 classes of
    # a nondegenerate code with g > 1 at m <= 16, k <= 5 is checked.
    classes = 0
    for m in range(1, 17):
        order = (1 << m) - 1
        for k in range(1, 6):
            e1, e2 = ((1 << k) + 1) % order, ((1 << (2 * k)) + 1) % order
            g = math.gcd(e1, order)
            if g == 1 or len({e * (1 << j) % order for e in (e1, e2) for j in range(m)}) < 2 * m:
                continue  # one class, or a code that weight_distribution refuses
            field = get_field(m)
            for c in range(g):
                assert np.array_equal(np.sort(cc.walsh_spectrum(field, e1, e2, c)),
                                      np.sort(cc.walsh_spectrum(field, e1, e2, 2 * c % g))), (m, k, c)
                classes += 1
    assert classes == 55


@pytest.mark.parametrize("m,k", [(5, 1), (5, 2), (5, 3), (7, 3), (6, 5)])
def test_weights_match_the_naive_oracle(m, k):
    # At (6, 5), gcd(2^k + 1, 2^m - 1) = 3: three classes of b != 0, and
    # 2^(2k) + 1 prime to 2^m - 1.  (6, 1), (8, 1) and (8, 3) are pinned in
    # KNOWN_WEIGHTS from the same oracle.
    got = cc.weight_distribution(m, k).entries
    assert got == naive_weight_distribution(naive(m), k)


def test_known_weights_match_the_naive_oracle():
    # The pinned distributions at m = 6 and 8, where 3 divides 2^k + 1 and
    # 2^m - 1; at (8, 1) and (8, 3) also 5 divides 2^(2k) + 1 and 2^m - 1.
    assert KNOWN_WEIGHTS[6] == naive_weight_distribution(naive(6), 1)
    assert KNOWN_WEIGHTS[8] == naive_weight_distribution(naive(8), 1) == naive_weight_distribution(naive(8), 3)


@pytest.mark.parametrize("m", range(1, 9))
def test_weights_match_row_loop_or_refuse_a_degenerate_code(m):
    # Every nondegenerate (m, k), k <= 2m: the cosets of 2^k+1 and 2^(2k)+1
    # modulo 2^m - 1 differ and have m members each; the rest are refused.
    cosets = naive_cyclotomic_cosets(m)
    for k in range(1, 2 * m + 1):
        c1, c2 = (next(c for c in cosets if e % (2**m - 1) in c) for e in (2**k + 1, 2 ** (2 * k) + 1))
        if c1 == c2 or len(c1) < m or len(c2) < m:
            with pytest.raises(FieldError, match="degenerate code"):
                cc.weight_distribution(m, k)
        else:
            assert cc.weight_distribution(m, k).entries == row_loop_direct_weights(m, k), k


def test_degenerate_decimation_pair_is_rejected():
    # (3, 1), (3, 2), (6, 2): 2^k+1 and 2^(2k)+1 lie in one cyclotomic coset
    # mod 2^m - 1; (6, 3): the coset of 9 mod 63 has 3 members.  Either way
    # the code dimension collapses, which is an argument error.
    for m, k, mode in ((3, 1, "direct"), (3, 2, "via_correlation"),
                       (6, 2, "via_correlation"), (6, 3, "direct")):
        with pytest.raises(FieldError, match="degenerate code"):
            cc.weight_distribution(m, k, mode=mode)


@pytest.mark.parametrize("m,k", [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)])
def test_both_weight_modes_match_row_loop(m, k):
    # Both accepted mode values run the one route, against the row-loop oracle.
    expected = row_loop_direct_weights(m, k)
    for mode in ("direct", "via_correlation"):
        assert cc.weight_distribution(m, k, mode=mode).entries == expected, mode


@differential
@given(m=st.integers(1, 8), k=st.integers(1, 16))
@example(m=6, k=1).via("gcd(2^k + 1, 2^m - 1) = 3, 2^(2k) + 1 prime to 2^m - 1")
@example(m=8, k=3).via("gcd 3 with 2^k + 1 and gcd 5 with 2^(2k) + 1")
def test_weights_match_row_loop_any_k(m, k):
    try:
        got = cc.weight_distribution(m, k).entries
    except FieldError:
        reject()
    assert got == row_loop_direct_weights(m, k)


def test_weights_m7_values():
    w = cc.weight_distribution(7, 1).entries
    assert w == {0: 1, 56: 4572, 64: 8255, 72: 3556}
    assert cc.weight_distribution(7, 3).entries == w


def test_weights_m11_values():
    w = cc.weight_distribution(11, 1).entries
    assert w == {0: 1, 960: 45034, 992: 900680, 1024: 2368379, 1056: 835176, 1088: 45034}


def test_weight_caps_and_modes():
    # No cap below MAX_M and no gcd refusal: 3 divides 2^k + 1 and 2^m - 1 at
    # (10, 1) and (24, 1), and both modes run the one route at m = 9.
    assert cc.weight_distribution(9, 1, mode="direct") == cc.weight_distribution(9, 1)
    for m in (10, 24):
        entries = cc.weight_distribution(m, 1).entries
        n = 2**m - 1
        assert sum(entries.values()) == 4**m and entries[0] == 1
        assert sum(w * a for w, a in entries.items()) == n << (2 * m - 1)
        assert sum(w * w * a for w, a in entries.items()) == (n * (n + 1)) << (2 * m - 2)
    with pytest.raises(FieldError):
        cc.weight_distribution(25, 1)  # over MAX_M
    with pytest.raises(ValueError):
        cc.weight_distribution(5, 1, mode="nope")
    with pytest.raises(FieldError):
        cc.weight_distribution(5, 0)
    with pytest.raises(FieldError, match="degenerate code"):
        cc.weight_distribution(4, 1)  # the coset of 5 modulo 15 has 2 members


def test_refused_arguments_build_no_field(monkeypatch):
    # A refused d or (m, k) is read off m, k and 2^m - 1 alone: at m = 24 the
    # field build it skips takes about half a second and 190 MB.
    monkeypatch.setattr(cc, "get_field", lambda m: pytest.fail(f"built the field at m={m}"))
    # weight_distribution refuses only a degenerate code, such as (24, 12):
    # (24, 1), once refused for its gcd, is answered in test_weight_caps_and_modes.
    for call, match in ((lambda: cc.correlation_distribution(24, 3), "gcd"),
                        (lambda: cc.weight_distribution(24, 12), "degenerate code"),
                        (lambda: cc.weight_distribution(6, 2), "degenerate code")):
        with pytest.raises(FieldError, match=match):
            call()
    # m outside 1..MAX_M is refused with the Field's message (m = 0 has no units to take d mod)
    for m in (-1, 0, MAX_M + 1):
        for call in (lambda: cc.correlation_distribution(m, 1), lambda: cc.weight_distribution(m, 1)):
            with pytest.raises(FieldError, match="outside supported range"):
                call()
