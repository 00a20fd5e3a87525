import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from char2kit import gf2m
from char2kit.gf2m import (
    MAX_M,
    Field,
    FieldError,
    PRIMITIVE_POLY,
    decimation_exponent,
    get_field,
)
from char2kit.crosscorr import walsh_spectrum
from char2kit.expsums import c_sum, g_sum, k_prime, kloosterman

from oracles import (
    NaiveField,
    differential,
    naive_cyclotomic_cosets,
    naive_exp_table,
    naive_powers_distinct,
    pow_table,
)


def mul(f, a, b):
    """a b in the field f, read off its exp and log tables."""
    if a == 0 or b == 0:
        return 0
    return int(f.exp_table[(int(f.log_table[a]) + int(f.log_table[b])) % f.order])


def power(f, a, e):
    """a^e in the field f for e >= 0, read off its exp and log tables."""
    if a == 0:
        return int(e == 0)
    return int(f.exp_table[int(f.log_table[a]) * e % f.order])


def test_add_examples():
    # addition is XOR of the coefficient bits
    f = get_field(3)
    for x in range(f.size):
        assert mul(f, x, 1 ^ 1) == 0  # 1 + 1 = 0
        assert mul(f, x, 0b010 ^ 0b011) == x  # alpha + (alpha + 1) = 1
    assert power(f, 0b010, 3) == 0b010 ^ 0b001  # alpha^3 = alpha + 1


def test_mul_examples():
    f = get_field(3)  # reduction x^3 + x + 1
    for x in range(f.size):
        assert mul(f, 1, x) == x
    assert mul(f, 0b010, 0b100) == 0b011  # alpha * alpha^2 = alpha + 1
    for x in range(1, f.size):
        assert mul(f, x, power(f, x, f.order - 1)) == 1


def test_pow_examples():
    f = get_field(3)
    for a in range(1, f.size):
        assert power(f, a, 1) == a
        assert power(f, a, f.order) == 1
    assert power(f, 0b010, 3) == 0b011
    assert power(f, 0, 0) == 1  # empty product convention
    assert power(f, 0, 5) == 0


def test_inv_examples():
    # the inverse of a != 0 is a^(2^m - 2)
    f = get_field(3)

    def inv(a):
        return power(f, a, f.order - 1)

    assert inv(1) == 1
    # exhaustive: inv(alpha) is the unique y with alpha * y = 1
    alpha = 0b010
    expected = next(y for y in range(1, f.size) if mul(f, alpha, y) == 1)
    assert inv(alpha) == expected
    for a in range(1, f.size):
        assert inv(inv(a)) == a


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 11])
def test_trace_examples(m):
    f = get_field(m)
    assert f.trace_table[0] == 0
    assert f.trace_table[1] == m % 2
    assert sum(f.trace_table[a] == 0 for a in range(f.size)) == f.size // 2


@pytest.mark.parametrize("m", range(1, 21))
def test_tables_match_naive_loop(m):
    f = get_field(m)
    exp, log = naive_exp_table(m, f.reduction)
    assert f.exp_table.dtype == f.log_table.dtype == np.int32
    assert f.exp_table.tolist() == exp
    assert f.log_table.tolist() == log


@pytest.mark.parametrize("m", range(21, MAX_M + 1))
def test_tables_close_above_20(m):
    f = get_field(m)
    assert np.array_equal(np.sort(f.exp_table), np.arange(1, f.size))
    assert np.array_equal(f.log_table[f.exp_table], np.arange(f.order))
    # exp[i] = x^i by induction: exp[0] = 1 and each entry is x times the one
    # before, by one vectorized shift-and-reduce.
    shifted = f.exp_table[:-1].astype(np.int64) << 1
    shifted ^= (shifted >> m) * f.reduction
    assert f.exp_table[0] == 1
    assert np.array_equal(f.exp_table[1:], shifted)
    nf = NaiveField(m, f.reduction)
    assert [int(f.trace_table[1 << i]) for i in range(m)] == [nf.trace(1 << i) for i in range(m)]


@pytest.mark.parametrize("m", range(1, 13))
def test_trace_table_matches_naive_trace(m):
    f = get_field(m)
    nf = NaiveField(m, f.reduction)
    assert f.trace_table.dtype == np.uint8
    assert f.trace_table.tolist() == [nf.trace(a) for a in range(f.size)]


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_trace_seq_is_the_m_sequence(m):
    # the library's exponent-indexed route against the element-space one
    f = get_field(m)
    assert f.trace_seq.dtype == np.uint8
    assert np.array_equal(f.trace_seq, f.trace_table[f.exp_table])


def _naive_trace_by_linearity(field):
    """Tr(v) over every v, the XOR of the naive basis traces Tr(x^i) over the
    set bits i of v."""
    nf = NaiveField(field.m, field.reduction)
    v = np.arange(field.size)
    trace = np.zeros(field.size, dtype=np.uint8)
    for i in range(field.m):
        if nf.trace(1 << i):
            trace ^= ((v >> i) & 1).astype(np.uint8)
    return trace


@pytest.mark.parametrize("m", [10, 18, 20])
def test_construction_holds_no_element_table(m):
    # Construction holds exp and log (4 bytes an element each) and trace_seq
    # (1 byte), plus build temporaries of at most LOG_BLOCK entries.
    tracemalloc.start()
    try:
        f = Field(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * f.size + 16 * gf2m.LOG_BLOCK, peak
    assert "trace_table" not in vars(f)
    table = f.trace_table
    assert f.trace_table is table  # built once, on the first read
    assert table.dtype == np.uint8
    with pytest.raises(ValueError):
        table[0] = table[0]
    assert np.array_equal(table, _naive_trace_by_linearity(f))


def test_trace_table_is_built_without_trace_seq():
    # An element table scattered from trace_seq would inherit a wrong
    # m-sequence; then test_trace_seq_is_the_m_sequence would compare the
    # sequence with itself.
    f = Field(10)
    f.trace_seq = f.trace_seq ^ 1
    nf = NaiveField(10, f.reduction)
    assert f.trace_table.tolist() == [nf.trace(a) for a in range(f.size)]


@pytest.mark.parametrize("m", range(1, 15))
def test_orbits_match_naive_cosets(m):
    field = Field(m)
    assert "orbits" not in vars(field)  # built on first use only
    reps, sizes = field.orbits
    assert np.all(np.diff(reps) > 0)  # ascending, so unique
    assert dict(zip(reps.tolist(), sizes.tolist())) == {
        min(c): len(c) for c in naive_cyclotomic_cosets(m)}
    assert all(m % s == 0 for s in sizes.tolist())
    assert int(sizes.sum()) == 2**m - 1


def _element_route_traces(field, e):
    """Tr(alpha^(e r)) over the orbit representatives r, read off the
    element-indexed trace table."""
    reps = field.orbits[0]
    return field.trace_table[field.exp_table[reps * e % field.order]]


@pytest.mark.parametrize("m", range(1, 9))
def test_orbit_traces_match_element_route_for_every_e(m):
    field = Field(m)
    for e in range(-field.order, 2 * field.order):
        t = field.orbit_traces(e)
        assert t.dtype == np.uint8
        assert np.array_equal(t, _element_route_traces(field, e)), e


@pytest.mark.parametrize("m", range(13, 21))
def test_orbit_traces_match_element_route_sampled(m):
    field = Field(m)
    rng = random.Random(3000 + m)
    samples = [-1, 0, 1, 3, (1 << (m // 2)) + 1, field.order - 1, field.order, 2 * field.order - 1]
    for e in samples + [rng.randrange(-field.order, 2 * field.order) for _ in range(6)]:
        assert np.array_equal(field.orbit_traces(e), _element_route_traces(field, e)), e


def test_orbit_traces_memo_keeps_one_vector_per_residue():
    field = Field(9)
    assert field._orbit_traces == {}  # a new field starts with an empty memo
    t = field.orbit_traces(5)
    assert field.orbit_traces(5) is t
    assert field.orbit_traces(5 + field.order) is t
    assert field.orbit_traces(5 - field.order) is t
    assert list(field._orbit_traces) == [5]


def test_cache_clear_drops_the_memo_with_the_field():
    before = get_field(7)
    before.orbit_traces(3)
    get_field.cache_clear()
    after = get_field(7)
    assert after is not before
    assert after._orbit_traces == {}
    assert after._sum_counts == {}


@pytest.mark.parametrize("m", [1, 2, 3, 6, 9, 12])
def test_sum_sweep_memo_is_bounded(m):
    # The sums ask for the exponents 1, -1 and 2^k + 1; 2^k mod 2^m - 1 has
    # period m in k, so a sweep over k = 1..3m leaves at most m + 2 vectors.
    get_field.cache_clear()
    for k in range(1, 3 * m + 1):
        kloosterman(m)
        g_sum(m, k)
        c_sum(m, k)
    assert 1 <= len(get_field(m)._orbit_traces) <= m + 2


@pytest.mark.parametrize("m", [1, 2, 3, 6, 9, 12])
def test_sum_count_memo_is_bounded(m):
    # One count per unordered pair of exponent residues: K's (1, -1), and C's
    # and G's at 2^k + 1, which has period m in k; one K' count per residue
    # 2^k mod 2^m - 1.  A second sweep adds none and returns the same values.
    get_field.cache_clear()

    def sweep():
        return [(kloosterman(m), g_sum(m, k), c_sum(m, k), k_prime(m, k)) for k in range(1, 3 * m + 1)]

    first = sweep()
    counts = dict(get_field(m)._sum_counts)
    pairs = [key for key in counts if key[0] == "pair"]
    assert 1 <= len(pairs) <= 2 * m + 1
    assert 1 <= len(counts) - len(pairs) <= m
    assert sweep() == first
    assert get_field(m)._sum_counts == counts


def test_shared_field_tables_are_read_only():
    # get_field hands one Field to every caller; a write to a table would
    # change every later result and leave the memo stale, so it raises.
    f = get_field(6)
    arrays = [f.exp_table, f.log_table, f.trace_table, f.trace_seq, *f.orbits, f.orbit_traces(3)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]
    with pytest.raises(ValueError):
        f.trace_seq ^= 1
    assert np.array_equal(f.trace_seq, f.trace_table[f.exp_table])


@pytest.mark.parametrize("m", range(1, 13))
def test_orbits_in_small_blocks_match_naive_cosets(m, monkeypatch):
    monkeypatch.setattr(gf2m, "ORBIT_BLOCK", 16)  # 2^(m-2) odd candidates: many blocks at m >= 7
    reps, sizes = Field(m).orbits
    assert dict(zip(reps.tolist(), sizes.tolist())) == {
        min(c): len(c) for c in naive_cyclotomic_cosets(m)}
    assert np.all(np.diff(reps) > 0)


@pytest.mark.parametrize("m,k,expected", [(5, 1, 12), (7, 1, 44), (7, 3, 106)])
def test_decimation_exponent_examples(m, k, expected):
    # oracle: extended Euclid via the builtin modular inverse
    n = 2**m - 1
    assert decimation_exponent(m, k) == (2 ** (2 * k) + 1) * pow(2**k + 1, -1, n) % n == expected


def test_decimation_exponent_congruence():
    for m in range(2, 20):
        for k in range(1, 6):
            n = 2**m - 1
            if math.gcd(2**k + 1, n) != 1:
                with pytest.raises(FieldError):
                    decimation_exponent(m, k)
                continue
            d = decimation_exponent(m, k)
            assert d * (2**k + 1) % n == (2 ** (2 * k) + 1) % n
            assert math.gcd(d, n) == 1


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLY))
def test_field_axioms_random_triples(m):
    f = get_field(m)
    rng = random.Random(1000 + m)
    for _ in range(30):
        a, b, c = (rng.randrange(f.size) for _ in range(3))
        assert mul(f, a, mul(f, b, c)) == mul(f, mul(f, a, b), c)
        assert mul(f, a, b) == mul(f, b, a)
        assert mul(f, a, b ^ c) == mul(f, a, b) ^ mul(f, a, c)
        if a:
            assert mul(f, a, power(f, a, f.order - 1)) == 1


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLY))
def test_frobenius_is_automorphism(m):
    f = get_field(m)
    rng = random.Random(2000 + m)
    for _ in range(20):
        a, b = rng.randrange(f.size), rng.randrange(f.size)
        ab = mul(f, a, b)
        assert mul(f, a ^ b, a ^ b) == mul(f, a, a) ^ mul(f, b, b)
        assert mul(f, ab, ab) == mul(f, mul(f, a, a), mul(f, b, b))
        assert f.trace_table[mul(f, a, a)] == f.trace_table[a]


@pytest.mark.parametrize("m", range(1, 13))
def test_trace_of_square_exhaustive(m):
    f = get_field(m)
    for a in range(f.size):
        assert f.trace_table[mul(f, a, a)] == f.trace_table[a]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_agrees_with_naive_field(m):
    f = get_field(m)
    nf = NaiveField(m, f.reduction)
    for a in range(f.size):
        assert f.trace_table[a] == nf.trace(a)
        for b in range(f.size):
            assert mul(f, a, b) == nf.mul(a, b)


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLY))
@differential
@given(a=st.integers(0, 2**MAX_M - 1), b=st.integers(0, 2**MAX_M - 1), e=st.integers(0, 2**50))
def test_ops_match_naive_field(m, a, b, e):
    f = get_field(m)
    nf = NaiveField(m, f.reduction)
    a, b = a % f.size, b % f.size
    assert mul(f, a, b) == nf.mul(a, b)
    assert power(f, a, e) == nf.pow(a, e)
    assert int(f.trace_table[a]) == nf.trace(a)
    if a:
        assert nf.mul(a, power(f, a, f.order - 1)) == 1


def test_validation_rejects_bad_polynomials():
    with pytest.raises(FieldError):
        Field(4, 0b11111)  # x^4+x^3+x^2+x+1 is irreducible but not primitive
    with pytest.raises(FieldError):
        Field(4, 0b10101)  # (x^2+x+1)^2 is reducible
    with pytest.raises(FieldError):
        Field(4, 0b1011)  # wrong degree
    with pytest.raises(FieldError):
        Field(5, 0b100000)  # x^5: no term below x^m, so x^5 = 0
    with pytest.raises(FieldError):
        Field(0)
    with pytest.raises(FieldError):
        Field(25)


def test_explicit_reduction():
    # x^3 + x^2 + 1 is the other primitive cubic
    assert mul(Field(3, 0b1101), 0b010, 0b100) == 0b101  # x^3 = x^2 + 1 under this reduction


def reciprocal(f: int) -> int:
    """x^deg(f) * f(1/x): the bit-reversed polynomial, primitive iff f is."""
    return int(bin(f)[:1:-1], 2)


@pytest.mark.parametrize("m", range(2, 17))
def test_spectrum_is_basis_independent(m):
    # The Walsh spectrum of Tr(x^e) is the same in any primitive polynomial
    # basis.  At even m, 3 divides 2^m - 1 and d is undefined; x^3 stands in.
    e = decimation_exponent(m, 1) if m % 2 else 3
    other = Field(m, reciprocal(PRIMITIVE_POLY[m]))
    assert (other.reduction != PRIMITIVE_POLY[m]) == (m > 2)  # x^2 + x + 1 is its own reciprocal
    assert np.array_equal(np.sort(walsh_spectrum(other, e)), np.sort(walsh_spectrum(get_field(m), e)))


@pytest.mark.parametrize("m", range(1, 11))
def test_field_accepts_exactly_when_powers_of_x_are_distinct(m):
    for f in range(1 << m, 2 << m):
        try:
            Field(m, f)
            accepted = True
        except FieldError:
            accepted = False
        assert accepted == naive_powers_distinct(m, f), hex(f)


@pytest.mark.parametrize("m", range(11, 17))
@differential
@given(low=st.integers(0, (1 << 16) - 1))
def test_random_polynomials_match_naive_powers(m, low):
    # Primitive or not: the recurrence must give x^i mod f, and the log
    # closure must reject f exactly when those powers repeat.
    f = 1 << m | low % (1 << m)
    if not naive_powers_distinct(m, f):
        with pytest.raises(FieldError):
            Field(m, f)
        return
    field = Field(m, f)
    exp, log = naive_exp_table(m, f)
    assert field.exp_table.tolist() == exp
    assert field.log_table.tolist() == log


def test_pow_log_matches_scalar():
    f = get_field(9)
    for e in (0, 1, 2, 3, 5, 9, 65, f.order, f.order + 1):
        t = f.pow_log(e)
        assert t.dtype == np.int64
        for v in (1, 2, 100, f.size - 1):
            assert f.exp_table[t[v - 1]] == power(f, v, e)


@pytest.mark.parametrize("m", range(1, 21))
def test_pow_log_matches_scatter_oracle(m):
    # v^e = v^(e mod 2^m - 1) at v != 0, so the oracle takes the residue.
    f = get_field(m)
    for e in (0, 1, -1, 3, 2**m - 1, 2**m + 5, 2**40 + 3, -(2**33) - 7):
        idx = f.pow_log(e)
        assert idx.dtype == np.int64
        assert np.array_equal(f.exp_table[idx], pow_table(f, e % f.order)[1:]), e
        blocks = [f.pow_log(e, lo, lo + 7) for lo in range(1, f.size, 7)]  # the last one short
        assert np.array_equal(np.concatenate(blocks), idx), e


@pytest.mark.parametrize("m", range(21, MAX_M + 1))
def test_pow_log_past_int32_matches_scalar_pow(m):
    # e log v reaches (2^m - 3)(2^m - 2), past 2^31, where an int32 product
    # would wrap; sampled v, the largest logs included, against Python ints.
    f = get_field(m)
    e = f.order - 2
    assert e * (f.order - 1) >= 2**31
    idx = f.pow_log(e)
    assert idx.dtype == np.int64
    logs = [f.order - 1, f.order - 2, *random.Random(m).sample(range(f.order), 500)]
    for v in f.exp_table[logs].tolist():
        assert f.exp_table[idx[v - 1]] == power(f, v, e)
