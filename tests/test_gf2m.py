import math
import random

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
    group_order,
)
from char2kit import crosscorr, curves, expsums
from char2kit.crosscorr import correlation_distribution, walsh_spectrum, weight_distribution
from char2kit.expsums import c_sum, g_sum, k_prime, kloosterman

from oracles import (
    NaiveField,
    differential,
    naive_cyclotomic_cosets,
    naive_exp_table,
    naive_powers_distinct,
    pow_table,
    rotation_filter_orbits,
)
from tracing import traced_peak


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
    assert f.exp_table.dtype == (np.uint16 if m <= 16 else np.int32)
    assert f.log_table.dtype == (np.uint16 if m <= 16 else np.uint32)
    assert f.exp_table.tolist() == exp
    assert f.log_table[0] == np.iinfo(f.log_table.dtype).max >= f.order  # no exponent
    assert f.log_table[1:].tolist() == log[1:]


def _log_zero_readers(m):
    """What each reader of log_table returns at m: the sums and counters read
    log 0 only where they mask it, the spectrum and derivative gathers never."""
    P = [curves.catalog_curve(name).polynomial for name in ("kloosterman", "p3", "p4", "p1tilde")]
    out = [[k_prime(m, k) for k in (1, 2, 3)], [curves.count_projective_points_fast(p, m) for p in P],
           correlation_distribution(m, 7), crosscorr.derivative_counts(m, 7)]
    if m <= curves.COUNT_CAP:
        out += [[curves.count_projective_points(p, m) for p in P], [curves.singular_points(p, m) for p in P]]
    return out


@pytest.mark.parametrize("m", [5, 13, 16, 17])
def test_log_zero_is_read_only_where_masked(m, monkeypatch):
    # log_table[0] holds the dtype's maximum, no exponent.  With 0, 1 or
    # 2^m - 2 in its place, a fresh field gives every reader the same result.
    def swapped(v):
        f = Field(m)
        if v is not None:
            log = f.log_table.copy()
            log[0] = v
            log.flags.writeable = False
            f.log_table = log
        for module in (expsums, curves, crosscorr):
            monkeypatch.setattr(module, "get_field", lambda _: f)
        return _log_zero_readers(m)

    expected = swapped(None)
    for v in (0, 1, group_order(m) - 1):
        assert swapped(v) == expected, v


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
    # The trace sequence s_t = Tr(alpha^t) over the whole period, read through
    # Field.trace a contiguous block at a time, as the Walsh route's fibre rows
    # read it: it equals the element route at every t, and it is the
    # m-sequence of the reduction f = x^m + sum of x^a, s_(t+m) = sum of s_(t+a).
    f = get_field(m)
    s = np.empty(f.order, dtype=np.uint8)
    for lo in range(0, f.order, 1 << 20):
        i = np.arange(lo, min(lo + (1 << 20), f.order))
        s[lo:lo + len(i)] = f.trace(i)
        assert np.array_equal(s[lo:lo + len(i)], f.trace_table[f.exp_table[i]]), lo
    terms = [a for a in range(m) if f.reduction >> a & 1]
    assert np.array_equal(s[m:], np.bitwise_xor.reduce([s[a:a + f.order - m] for a in terms]))


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_trace_is_the_element_trace_at_each_exponent(m):
    # the orbit route's parity read against the element-indexed table
    f = get_field(m)
    rng = np.random.default_rng(4800 + m)
    i = np.concatenate([[0, f.order - 1], rng.integers(0, f.order, 1000)])
    t = f.trace(i)
    assert t.dtype == np.uint8
    assert np.array_equal(t, f.trace_table[f.exp_table[i]])


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


@pytest.mark.parametrize("m", [10, 16, 18, 20])
def test_construction_holds_no_element_table(m):
    # Construction holds exp and log (2 bytes an element each through m = 16,
    # 4 above), plus build temporaries of at most LOG_BLOCK entries.
    f, peak = traced_peak(lambda: Field(m))
    assert f.exp_table.itemsize == f.log_table.itemsize == (2 if m <= 16 else 4)
    assert peak < 2 * f.exp_table.itemsize * f.size + 16 * gf2m.LOG_BLOCK, peak
    assert "trace_table" not in vars(f)
    table = f.trace_table
    assert f.trace_table is table  # built once, on the first read
    assert table.dtype == np.uint8
    with pytest.raises(ValueError):
        table[0] = table[0]
    assert np.array_equal(table, _naive_trace_by_linearity(f))


def test_trace_table_is_built_without_trace(monkeypatch):
    # An element table read through trace would inherit a wrong trace; then
    # test_trace_seq_is_the_m_sequence and test_trace_is_the_element_trace_at_each_exponent
    # would compare a route with itself.
    f = Field(10)
    monkeypatch.setattr(Field, "trace", lambda self, i: 1 - self.trace_table[self.exp_table[i]])
    nf = NaiveField(10, f.reduction)
    assert f.trace_table.tolist() == [nf.trace(a) for a in range(f.size)]


def _sizes(field):
    """The size of each coset of field.orbits, m but where _short_orbits, the
    one record of sizes, lists it with its m - size."""
    sizes = np.full(len(field.orbits), field.m, dtype=np.int64)
    short, deficit = field._short_orbits
    sizes[short] -= deficit
    return sizes


@pytest.mark.parametrize("m", range(1, 15))
def test_orbits_match_naive_cosets(m):
    field = Field(m)
    assert "orbits" not in vars(field)  # built on first use only
    reps, sizes = field.orbits, _sizes(field)
    assert np.all(np.diff(reps) > 0)  # ascending, so unique
    assert dict(zip(reps.tolist(), sizes.tolist())) == {
        min(c): len(c) for c in naive_cyclotomic_cosets(m)}
    assert all(m % s == 0 for s in sizes.tolist())
    assert int(sizes.sum()) == 2**m - 1
    assert np.all(np.diff(field._short_orbits[0]) > 0) and np.all(field._short_orbits[1] > 0)


def _element_route_traces(field, e):
    """Tr(alpha^(e r)) over the orbit representatives r, read off the
    element-indexed trace table."""
    reps = field.orbits
    return field.trace_table[field.exp_table[reps.astype(np.int64) * e % field.order]]


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


def _kept_keys(field, kind):
    """The keys of one kind in the field's one memo, Field.kept."""
    return [key for key in field._kept if key[0] == kind]


def test_orbit_traces_memo_keeps_one_vector_per_residue():
    field = Field(9)
    assert field._kept == {}  # a new field starts with an empty memo
    t = field.orbit_traces(5)
    assert field.orbit_traces(5) is t
    assert field.orbit_traces(5 + field.order) is t
    assert field.orbit_traces(5 - field.order) is t
    assert list(field._kept) == [("traces", 5)]


def test_kept_builds_once_per_key_and_freezes_arrays():
    field = Field(3)
    calls = []

    def build():
        calls.append(1)
        return np.arange(3)

    a = field.kept(("x",), build)
    assert field.kept(("x",), build) is a and calls == [1]
    assert not a.flags.writeable
    assert field.kept(("n",), lambda: 0) == 0  # a falsy value is kept too
    assert field.kept(("n",), lambda: 1) == 0


def test_every_reader_keeps_its_values_under_its_own_kind():
    # Field.kept is the one memo of the library: the sums, the point counter
    # and the Walsh fibre column each keep under a key kind of their own, and
    # a second call of each reader adds no key.  A new memo kind needs a
    # deliberate edit of this set.  At m = 8 the weights take the fibre route.
    get_field.cache_clear()
    field = get_field(8)

    def readers():
        return (kloosterman(8), c_sum(8, 1), g_sum(8, 1), k_prime(8, 1), weight_distribution(8, 1),
                curves.count_projective_points_fast(curves.catalog_curve("p1tilde").polynomial, 8))

    first = readers()
    kept = dict(field._kept)
    assert {key[0] for key in kept} == {"traces", "pair", "Kp", "count", "column"}
    assert readers() == first
    assert field._kept.keys() == kept.keys() and all(field._kept[key] is value for key, value in kept.items())
    assert all(not value.flags.writeable for value in kept.values() if isinstance(value, np.ndarray))


def _whole_period_arrays(field):
    """The names of the arrays of 2^m - 1 or more entries that field holds,
    in its attributes or the tuples and dicts among them."""
    found = set()

    def visit(name, value):
        if isinstance(value, np.ndarray) and value.size >= field.order:
            found.add(name)
        elif isinstance(value, tuple):
            for item in value:
                visit(name, item)
        elif isinstance(value, dict):
            for item in value.values():
                visit(name, item)

    for name, value in vars(field).items():
        visit(name, value)
    return found


@pytest.mark.parametrize("m", [7, 8, 13])
def test_no_reader_leaves_a_whole_period_array_on_the_field(m):
    # Every library module reads a trace through Field.trace, so past exp and
    # log no sum, count, spectrum or weight call keeps an array as long as the
    # period on the shared field.  At m = 8 the weights take the fibre route
    # (h = 5, three classes of b and b = 0).
    get_field.cache_clear()
    field = get_field(m)
    kloosterman(m)
    g_sum(m, 1)
    c_sum(m, 2)
    k_prime(m, 3)
    curves.count_projective_points_fast(curves.catalog_curve("p1tilde").polynomial, m)
    if m % 2:
        correlation_distribution(m, decimation_exponent(m, 1))
    weight_distribution(m, 1)
    assert get_field(m) is field
    assert _whole_period_arrays(field) == {"exp_table", "log_table"}
    field.trace_table  # the oracles' table: the one other whole-period array
    assert _whole_period_arrays(field) == {"exp_table", "log_table", "trace_table"}


def test_cache_clear_drops_the_memo_with_the_field():
    before = get_field(7)
    before.orbit_traces(3)
    get_field.cache_clear()
    after = get_field(7)
    assert after is not before
    assert after._kept == {}


@pytest.mark.parametrize("m", [1, 2, 3, 6, 9, 12])
def test_sum_sweep_memo_is_bounded(m):
    # The sums ask for the exponents 1, -1 and 2^k + 1; 2^k mod 2^m - 1 has
    # period m in k, so a sweep over k = 1..3m leaves at most m + 2 vectors.
    get_field.cache_clear()
    for k in range(1, 3 * m + 1):
        kloosterman(m)
        g_sum(m, k)
        c_sum(m, k)
    assert 1 <= len(_kept_keys(get_field(m), "traces")) <= m + 2


@pytest.mark.parametrize("m", [1, 2, 3, 6, 9, 12])
def test_sum_count_memo_is_bounded(m):
    # One count per unordered pair of exponent residues: K's (1, -1), and C's
    # and G's at 2^k + 1, which has period m in k; one K' count per residue
    # 2^k mod 2^m - 1.  A second sweep adds none and returns the same values.
    get_field.cache_clear()

    def sweep():
        return [(kloosterman(m), g_sum(m, k), c_sum(m, k), k_prime(m, k)) for k in range(1, 3 * m + 1)]

    first = sweep()
    field = get_field(m)
    counts = {key: n for key, n in field._kept.items() if key[0] != "traces"}
    assert 1 <= len(_kept_keys(field, "pair")) <= 2 * m + 1
    assert 1 <= len(_kept_keys(field, "Kp")) <= m
    assert len(counts) == len(_kept_keys(field, "pair")) + len(_kept_keys(field, "Kp"))
    assert sweep() == first
    assert {key: n for key, n in field._kept.items() if key[0] != "traces"} == counts


def test_shared_field_tables_are_read_only():
    # get_field hands one Field to every caller; a write to a table would
    # change every later result and leave the memo stale, so it raises.
    f = get_field(6)
    walsh_spectrum(f, 1, 3)  # h = gcd(3, 63) = 3: the fibre route keeps a Walsh column
    arrays = [f.exp_table, f.log_table, f.trace_table, f.orbits, *f._short_orbits, f.orbit_traces(3)]
    arrays += [a for key, a in f._kept.items() if key[0] == "column"]
    assert len(arrays) == 8
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]
    with pytest.raises(ValueError):
        f.exp_table ^= 1
    assert np.array_equal(f.exp_table, Field(6).exp_table)


@pytest.mark.parametrize("m", range(1, 13))
def test_orbits_in_small_blocks_match_naive_cosets(m, monkeypatch):
    monkeypatch.setattr(gf2m, "ORBIT_BLOCK", 16)  # 2^(m-2) odd candidates: many blocks at m >= 7
    field = Field(m)
    reps, sizes = field.orbits, _sizes(field)
    assert dict(zip(reps.tolist(), sizes.tolist())) == {
        min(c): len(c) for c in naive_cyclotomic_cosets(m)}
    assert np.all(np.diff(reps) > 0)


# The default block, one block through m = 16, and 2^20, one block through
# m = 22; block 16 makes many blocks, each inside one zero-run group; blocks
# of 5 odd i (10 integers) straddle the group bounds 2^(m-3) and 2^(m-2).
# Blocks with fewer zero-run survivors than the block wait for the next
# block's, so the rotation filter runs on survivors of several blocks.
# The default block's id names its role, not its value, so a new default
# renames no test; the fixed blocks keep their values as ids.
ORBIT_BLOCKS = {"default": gf2m.ORBIT_BLOCK, "1048576": 1 << 20, "16": 16, "5": 5}


@pytest.mark.parametrize("m,block", [pytest.param(m, ORBIT_BLOCKS[b], id=f"{m}-{b}")
                                     for b in ("default", "1048576", "16") for m in range(1, 21)]
                         + [pytest.param(m, ORBIT_BLOCKS["5"], id=f"{m}-5") for m in range(1, 15)])
def test_orbits_match_rotation_filter(m, block, monkeypatch):
    monkeypatch.setattr(gf2m, "ORBIT_BLOCK", block)
    field = Field(m)
    old_reps, old_sizes = rotation_filter_orbits(m)
    assert field.orbits.dtype == np.uint32
    assert np.array_equal(field.orbits, old_reps)
    short, deficit = field._short_orbits
    assert np.array_equal(short, np.flatnonzero(old_sizes < m))
    assert np.array_equal(deficit, m - old_sizes[short])


@pytest.mark.parametrize("m", [1, 6, 13, 20])
def test_orbits_hold_four_bytes_a_rep(m):
    # A rep is below 2^(m-1): uint32, where two int64 vectors of reps and
    # sizes took 16 bytes a rep and uint32 reps and uint8 sizes 5.
    reps = Field(m).orbits
    assert isinstance(reps, np.ndarray) and reps.dtype == np.uint32
    assert reps.nbytes == 4 * len(reps)


@pytest.mark.parametrize("m", [18, 22])
def test_orbits_transient_is_a_few_bytes_a_rep(m):
    # Past its uint32 output, allocated at the count of cosets, the zero-run
    # test and the rotations hold about 12 bytes an entry of the fewer than
    # 2^14 survivors that the rotation filter runs on at once (2 ORBIT_BLOCK):
    # a bound that does not grow with m.  Whole candidate ranges and a joined
    # list of blocks held 22 bytes a rep at m = 18 and 15 at m = 22 (2.8 MB);
    # the rotation filter alone, 44 and 50; blocks of 2^14 odd candidates,
    # 320 KB at m = 22.
    field = Field(m)
    reps, peak = traced_peak(lambda: field.orbits)
    assert peak - reps.nbytes < 12 << 14, peak


def test_short_orbits_build_is_small_at_m_24():
    # The sizes are found from the 2^d - 1 multiples of (2^m - 1)/(2^d - 1)
    # for each proper divisor d of m, at most 4095 at m = 24, looked up in
    # the leaders: no array as long as the 699,251 leaders is made.  A bool
    # mask of the short cosets over all leaders peaked at 697 KB here.
    field = Field(24)
    field.orbits
    (short, deficit), peak = traced_peak(lambda: field._short_orbits)
    assert len(short) == 381
    assert peak - short.nbytes - deficit.nbytes < 128 << 10, peak


def test_orbit_traces_hold_two_int64_vectors():
    # x = r e and its quotient, for one block of LOG_BLOCK / 2 leaders at a
    # time: two int64 vectors of the block past the uint8 result, at an m of
    # 7 blocks; over all leaders at once they held 12 bytes a rep (630 KB).
    field = Field(20)
    field.orbits
    t, peak = traced_peak(lambda: field.orbit_traces(12345))
    assert peak - t.nbytes <= 2 * 8 * (gf2m.LOG_BLOCK // 2) + 8192, peak
    assert len(field.orbit_blocks) == 7


@pytest.mark.parametrize("m", [6, 12, 18, 20])
def test_orbit_total_equals_the_size_dot_without_an_int64_copy(m):
    # The size-weighted total of a vector over the cosets is m times its sum
    # less (m - size) times it over the short cosets; sizes @ v, the route it
    # replaces, casts v to an int64 vector of len(reps).  A bool v is counted
    # with no cast buffer, and an int64 v needs none.
    field = get_field(m)
    reps, sizes = field.orbits, _sizes(field)  # int64 sizes: the expected totals, exact
    short = field._short_orbits[0]
    rng = np.random.default_rng(m)
    vectors = [field.orbit_traces(a) != field.orbit_traces(b) for a, b in ((1, -1), (3, 1), (9, -1))]
    vectors += [rng.integers(0, 2, len(reps)).astype(bool), np.ones(len(reps), dtype=bool),
                rng.integers(0, 5, len(reps)), np.full(len(reps), 2**m)]  # small ints, as int64
    for v in vectors:
        total, peak = traced_peak(lambda: field.orbit_total(v))
        assert type(total) is int and total == int(sizes @ v)
        assert peak < 4096 + 16 * len(short), peak
    assert field.orbit_total(vectors[4]) == field.order  # every coset, so every exponent
    # A block of the vector starting at leader lo weighs in the short cosets
    # it holds, so the blocks' totals add up to the whole one's.
    for v in vectors:
        for step in (1, 5, 1000) if m <= 12 else (1000,):
            assert sum(field.orbit_total(v[lo:lo + step], lo) for lo in range(0, len(v), step)) \
                == field.orbit_total(v)
    # A uint8 vector is summed through numpy's cast buffer, a fixed size, not a copy.
    v = rng.integers(0, 4, len(reps), dtype=np.uint8)
    total, peak = traced_peak(lambda: field.orbit_total(v))
    assert total == int(sizes @ v) and peak < 4096 + 16 * len(short) + 8 * np.getbufsize(), peak


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_fold_is_the_remainder_in_place(m):
    # fold(x) is x mod 2^m - 1, in place, for ints of any sign and width, so
    # a table of 2^m - 1 entries reads it as it is.
    f = get_field(m)
    top = 1 << (2 * m)
    edges = [0, f.order - 1, f.order, 2 * f.order, top - 1, -1, -f.order - 1, -top]
    x = np.concatenate((edges, np.random.default_rng(m).integers(-top, top, 500)))
    y = x.copy()
    assert f.fold(y) is y
    assert np.array_equal(y, x % f.order)
    # LOG_BLOCK / 2 entries of x at a time, whatever its shape: uneven last
    # blocks, and blocks that cut the rows of a 2-d x.
    rng = np.random.default_rng(m + 1)
    for z in (rng.integers(0, top, gf2m.LOG_BLOCK + 3), rng.integers(0, top, (gf2m.LOG_BLOCK // 2 + 1, 3)),
              rng.integers(0, top, (3, gf2m.LOG_BLOCK // 3 + 1)),
              rng.integers(-2 * f.order, 2 * f.order, 100, dtype=np.int32)):
        y = z.copy()
        assert f.fold(y) is y and np.array_equal(y, z % f.order)


@pytest.mark.parametrize("shape", [(15, 8193), (2, 3, 40000), (1 << 17,)], ids=["15x8193", "2x3x40000", "131072"])
def test_fold_holds_half_a_log_block_of_any_shape(shape):
    # The one temporary is the quotient of LOG_BLOCK / 2 entries, for any
    # shape of x: the fast counter's (terms x leaders) index is folded with
    # no quotient as large as itself, as blocking by rows gave it.  A
    # non-contiguous x of more than one axis is refused, not folded in a copy.
    f = get_field(20)
    x = np.random.default_rng(len(shape)).integers(0, 1 << 40, shape)
    expected = x % f.order
    y, peak = traced_peak(lambda: f.fold(x))
    assert y is x and np.array_equal(x, expected)
    assert peak <= 8 * (gf2m.LOG_BLOCK // 2) + 1024, peak
    if len(shape) > 1:
        with pytest.raises(ValueError):
            f.fold(x.T)


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


@pytest.mark.parametrize("m,k", [(5, 1), (7, 2), (9, 4)])
def test_k_enters_only_through_2k_mod_the_group_order(m, k):
    # 2^m = 1 mod 2^m - 1, so k and k + m 10^7 give the same exponents, and
    # each site reduces 2^k as it builds it: no int of about m 10^7 bits is
    # made.  Built whole, 2^k and 2^(2k) peaked at 33 to 60 MB here.
    def reads(k):
        return (decimation_exponent(m, k), c_sum(m, k).value, g_sum(m, k).value, k_prime(m, k).value,
                weight_distribution(m, k).entries)

    expected = reads(k)  # builds the field and its memos
    observed, peak = traced_peak(lambda: reads(k + m * 10**7))
    assert observed == expected
    assert peak < 1 << 20, peak


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
    for m in (5, 11, 16, 17, 20):
        # x^m: no term below x^m, so x^m = 0, and the exp table past x^(m-1)
        # is written as zeros, not left as whatever its allocation held
        with pytest.raises(FieldError, match="not primitive"):
            Field(m, 1 << m)
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
    assert field.log_table[1:].tolist() == log[1:]


def _pow_log(f, e, lo=1, hi=None):
    """e log v mod 2^m - 1 over v = lo..hi - 1 in element order, int64, the
    map the library writes inline: exp_table of it is v^e."""
    return f.fold(f.log_table[lo:hi] * np.int64(e % f.order))


def test_pow_log_matches_scalar():
    f = get_field(9)
    for e in (0, 1, 2, 3, 5, 9, 65, f.order, f.order + 1):
        t = _pow_log(f, e)
        assert t.dtype == np.int64
        for v in (1, 2, 100, f.size - 1):
            assert f.exp_table[t[v - 1]] == power(f, v, e)


@pytest.mark.parametrize("m", range(1, 21))
def test_pow_log_matches_scatter_oracle(m):
    # v^e = v^(e mod 2^m - 1) at v != 0, so the oracle takes the residue.
    f = get_field(m)
    for e in (0, 1, -1, 3, 2**m - 1, 2**m + 5, 2**40 + 3, -(2**33) - 7):
        idx = _pow_log(f, e)
        assert idx.dtype == np.int64
        assert np.array_equal(f.exp_table[idx], pow_table(f, e % f.order)[1:]), e
        # Uneven block walks: 7 divides 2^m - 1 when 3 | m, and 8 never does,
        # so at every m one of them ends in a short block.  Past m = 12 both
        # lengths double with m, so each walk takes about 2^12 / 7 calls.
        for step in (7, 8):
            step <<= max(0, m - 12)
            blocks = [_pow_log(f, e, lo, lo + step) for lo in range(1, f.size, step)]
            assert np.array_equal(np.concatenate(blocks), idx), (e, step)


@pytest.mark.parametrize("m", range(21, MAX_M + 1))
def test_pow_log_past_int32_matches_scalar_pow(m):
    # e log v reaches (2^m - 3)(2^m - 2), past 2^31, where an int32 product
    # would wrap; sampled v, the largest logs included, against Python ints.
    f = get_field(m)
    e = f.order - 2
    assert e * (f.order - 1) >= 2**31
    idx = _pow_log(f, e)
    assert idx.dtype == np.int64
    logs = [f.order - 1, f.order - 2, *random.Random(m).sample(range(f.order), 500)]
    for v in f.exp_table[logs].tolist():
        assert f.exp_table[idx[v - 1]] == power(f, v, e)


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_pow_log_fold_matches_the_remainder(m):
    # fold reduces e log v by a floor division, not by an int64 %: the index
    # must equal the remainder bit for bit.
    # Ranges straddle LOG_BLOCK and its multiples and end at the largest
    # logs; each has odd length, so its two halves differ in length.
    f, block = get_field(m), gf2m.LOG_BLOCK
    bounds = {(1, f.size)} if m <= 16 else set()
    for lo in (1, block - 3, 2 * block - 1, f.size - block - 2):
        if 1 <= lo < f.size:
            bounds.add((lo, min(lo + block + 7, f.size)))
    for e in (1, 3, f.order - 1, f.order - 2, 2**m + 5, 2**40 + 3, -(2**33) - 7):
        for lo, hi in sorted(bounds):
            remainder = f.log_table[lo:hi].astype(np.int64) * (e % f.order) % f.order
            assert np.array_equal(_pow_log(f, e, lo, hi), remainder), (e, lo, hi)
