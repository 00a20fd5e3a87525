import copy
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from char2kit import curves as cv
from char2kit import gf2m
from char2kit import zeta as z
from char2kit.curves import TrivariatePoly
from char2kit.gf2m import FieldError, get_field

from oracles import (NaiveField, differential, full_x_fast_count, naive_evaluate,
                     naive_projective_count, naive_singular_points)


GBAR = cv.catalog_curve("kloosterman").polynomial
P3 = cv.catalog_curve("p3").polynomial
P4 = cv.catalog_curve("p4").polynomial
P1T = cv.catalog_curve("p1tilde").polynomial
FB3 = cv.catalog_curve("fbar3").polynomial
F1 = cv.homogenize(cv.f_k_affine(1), 6)
F2 = cv.homogenize(cv.f_k_affine(2), 18)


def test_monomial_set_semantics():
    # duplicates cancel in characteristic 2
    p = TrivariatePoly([(1, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert p.monomials == frozenset({(0, 1, 0)})


def test_homogenize_examples():
    f = TrivariatePoly([(2, 0, 0), (0, 0, 0), (1, 2, 0), (1, 1, 0)])
    assert cv.homogenize(f, 3) == GBAR
    f2 = TrivariatePoly([(4, 0, 0), (1, 2, 0), (1, 1, 0), (0, 0, 0)])
    assert cv.homogenize(f2, 4) == P4
    with pytest.raises(ValueError):
        cv.homogenize(f, 2)
    with pytest.raises(ValueError):
        cv.homogenize(GBAR, 5)  # not bivariate


@pytest.mark.parametrize("k", [1, 2, 3])
def test_f_k_homogenizes_to_catalog_pattern(k):
    q, q2 = 2**k, 2 ** (2 * k)
    h = cv.homogenize(cv.f_k_affine(k), q2 + 2)
    assert h.is_homogeneous() and h.degree == q2 + 2
    assert (q, 0, q2 - q + 2) in h.monomials
    assert (0, 0, q2 + 2) in h.monomials
    assert (q2, 2, 0) in h.monomials
    if k == 3:
        assert h == FB3


def test_evaluate_examples():
    f = NaiveField(3, get_field(3).reduction)
    assert naive_evaluate([(1, 1, 1)], f, 0, 0, 0) == 0
    assert naive_evaluate([(0, 0, 0)], f, 0, 0, 0) == 1
    assert naive_evaluate(GBAR.monomials, NaiveField(1, 0b11), 1, 0, 1) == 0  # on the curve over F_2


def test_evaluate_homogeneity():
    f = NaiveField(4, get_field(4).reduction)
    rng = random.Random(5)
    for _ in range(20):
        x, y, zz = (rng.randrange(f.size) for _ in range(3))
        lam = rng.randrange(1, f.size)
        lhs = naive_evaluate(P4.monomials, f, f.mul(lam, x), f.mul(lam, y), f.mul(lam, zz))
        rhs = f.mul(f.pow(lam, P4.degree), naive_evaluate(P4.monomials, f, x, y, zz))
        assert lhs == rhs


def test_formal_derivative():
    assert not TrivariatePoly([(2, 0, 0)]).derivative("x").monomials
    assert TrivariatePoly([(3, 0, 0)]).derivative("x") == TrivariatePoly([(2, 0, 0)])
    assert GBAR.derivative("y") == TrivariatePoly([(1, 0, 1)])  # 2y term vanishes


def test_poly_multiply():
    one = TrivariatePoly([(0, 0, 0)])
    assert GBAR * one == GBAR
    xz = TrivariatePoly([(1, 0, 0), (0, 0, 1)])
    assert xz * xz == TrivariatePoly([(2, 0, 0), (0, 0, 2)])  # cross term cancels


def test_fbar3_factorization():
    xz = TrivariatePoly([(1, 0, 0), (0, 0, 1)])
    matches = [e for e in range(1, 9) if (xz**e) * P1T == FB3]
    assert matches == [8]
    # and p1tilde carries no further x+z factor: dividing once more never works
    assert (xz**9) * P1T != FB3


def test_count_projective_points_examples():
    assert cv.count_projective_points(GBAR, 1) == 4
    assert cv.count_projective_points(P4, 1) == 3
    # total projective points bound
    for s in (1, 2, 3):
        n = cv.count_projective_points(P3, s)
        assert n <= 4**s + 2**s + 1


@pytest.mark.parametrize("s", [1, 2, 3])
def test_count_matches_orbit_oracle(s):
    nf = NaiveField(s, get_field(s).reduction)
    for poly in (GBAR, P3, P4):
        assert cv.count_projective_points(poly, s) == naive_projective_count(poly.monomials, nf)


def test_coordinate_permutation_invariance():
    rng = random.Random(9)
    for _ in range(5):
        poly = TrivariatePoly([(rng.randrange(3), rng.randrange(3), rng.randrange(3))
                               for _ in range(4)])
        if not poly.is_homogeneous() or not poly.monomials:
            continue
        for s in (1, 2, 3):
            base = cv.count_projective_points(poly, s)
            for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                q = TrivariatePoly([tuple(t[i] for i in perm) for t in poly.monomials])
                assert cv.count_projective_points(q, s) == base
    # fixed sanity case: swapping x and z fixes the symmetric gbar count
    swapped = TrivariatePoly([(c, b, a) for a, b, c in GBAR.monomials])
    for s in (1, 2, 3, 4):
        assert cv.count_projective_points(swapped, s) == cv.count_projective_points(GBAR, s)


@pytest.mark.parametrize("poly", [GBAR, P3, P4, P1T, F1, F2],
                         ids=["kloosterman", "p3", "p4", "p1tilde", "f_1", "f_2"])
def test_fast_counter_agrees_with_generic(poly):
    for s in range(1, 9):
        assert cv.count_projective_points_fast(poly, s) == cv.count_projective_points(poly, s), s


@st.composite
def homogeneous(draw, y_max=2, d_max=16):
    """A random homogeneous polynomial of y-degree at most y_max.

    Degrees run to 16 by default, past 2 (2^3 - 1), so that at s <= 3 some
    exponent e of an array coordinate is a nonzero multiple of 2^s - 1: there
    v^e is 1 at v != 0 and 0 at v = 0, which a log-space index e log v alone
    cannot tell.
    """
    d = draw(st.integers(0, d_max))
    exps = draw(st.lists(st.tuples(st.integers(0, d), st.integers(0, min(d, y_max))), max_size=6))
    return TrivariatePoly([(a, b, d - a - b) for a, b in exps if a + b <= d])


# x^7 and x^14 at s = 3, x^3 at s = 2: array exponents that are multiples of 2^s - 1.
@example(TrivariatePoly([(7, 0, 0), (0, 2, 5), (1, 1, 5)]), 3)
@example(TrivariatePoly([(14, 0, 0), (3, 2, 9), (0, 0, 14)]), 3)
@example(TrivariatePoly([(3, 0, 0), (0, 1, 2), (1, 2, 0)]), 2)
@differential
@given(homogeneous(), st.integers(1, 3))
def test_fast_and_generic_counters_match_naive_count(poly, s):
    naive = naive_projective_count(poly.monomials, NaiveField(s, get_field(s).reduction))
    assert cv.count_projective_points_fast(poly, s) == cv.count_projective_points(poly, s) == naive


@pytest.mark.parametrize("s", range(1, 15))
@pytest.mark.parametrize("poly", [GBAR, P3, P4, P1T, FB3], ids=["kloosterman", "p3", "p4", "p1tilde", "fbar3"])
def test_orbit_fast_counter_matches_full_x_oracle_on_catalog(poly, s):
    assert cv.count_projective_points_fast(poly, s) == full_x_fast_count(poly, s)


# Degrees to 600 pass 2^8 - 1, so a multiple of 2^s - 1 can be an exponent at every s.
@example(TrivariatePoly([(255, 0, 0), (0, 2, 253), (1, 1, 253)]), 8)
@example(TrivariatePoly([(0, 0, 0)]), 5)
@differential
@given(homogeneous(d_max=600), st.integers(1, 8))
def test_orbit_fast_counter_matches_full_x_oracle(poly, s):
    assert cv.count_projective_points_fast(poly, s) == full_x_fast_count(poly, s)


@example(TrivariatePoly([(7, 0, 0), (0, 3, 4), (2, 1, 4)]), 3)
@differential
@given(homogeneous(y_max=16), st.integers(1, 3))
def test_generic_counter_matches_naive_count_at_any_y_degree(poly, s):
    naive = naive_projective_count(poly.monomials, NaiveField(s, get_field(s).reduction))
    assert cv.count_projective_points(poly, s) == naive


@pytest.mark.parametrize("s,block", [(8, 1), (13, 5), (18, 1000)])
def test_fast_count_at_any_leader_block_matches_full_x_oracle(s, block, monkeypatch):
    # The fast counter evaluates its chart one block of LOG_BLOCK / 2 leaders
    # at a time, with x = 0 in column 0 of each; blocks of 1, 5 and 1000
    # leaders give the counts of the default block and of every x.
    polys = (GBAR, P1T, FB3)
    get_field.cache_clear()
    expected = [cv.count_projective_points_fast(poly, s) for poly in polys]
    assert expected == [full_x_fast_count(poly, s) for poly in polys]
    get_field.cache_clear()
    get_field(s).orbits  # built at the default LOG_BLOCK, which construction reads too
    monkeypatch.setattr(gf2m, "LOG_BLOCK", 2 * block)
    try:
        assert [cv.count_projective_points_fast(poly, s) for poly in polys] == expected
    finally:
        get_field.cache_clear()  # no field cut at the patched block outlives the test


def test_fast_counter_holds_one_block_of_chart_entries():
    # At s = 20, 7 blocks of LOG_BLOCK / 2 leaders, p1tilde's chart is an
    # int64 index and a 4-byte gather for each of its distinct exponents and
    # each leader of one block, next to the previous block's rows: at most
    # 16 bytes an (exponent, leader) pair of a block, which does not grow
    # with s.  Over all leaders at once, the index folded in one piece, the
    # count held 13.2 MB.
    get_field.cache_clear()
    cv.count_projective_points_fast(GBAR, 20)  # builds the orbits and their blocks
    exponents = len({a for a, _, _ in P1T.monomials})
    tracemalloc.start()
    try:
        n = cv.count_projective_points_fast(P1T, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * exponents * (gf2m.LOG_BLOCK // 2) + 8 * np.getbufsize(), peak
    assert exponents == 15 and len(get_field(20).orbit_blocks) == 7
    assert n == cv.catalog_curve("p1tilde").corrected_prediction(z.predicted_count(z.catalog_lpoly("z1"), 20), 20)


def test_fast_count_is_kept_in_the_field(monkeypatch):
    # C10 recounts curves that C7 has just counted: the field keeps each
    # count by the polynomial's monomials, so a recount evaluates no chart.
    get_field.cache_clear()
    counts = [cv.count_projective_points_fast(poly, 5) for poly in (P3, P4)]
    monkeypatch.setattr(cv, "_chart", lambda *args: pytest.fail("a recount evaluated a chart"))
    assert [cv.count_projective_points_fast(poly, 5) for poly in (P3, P4)] == counts
    assert counts == [full_x_fast_count(P3, 5), full_x_fast_count(P4, 5)]


@pytest.mark.parametrize("poly", [GBAR, P1T], ids=["kloosterman", "p1tilde"])
def test_generic_counter_evaluates_one_row_per_orbit(poly, monkeypatch):
    s, rows, evaluate = 6, [], cv._rows

    def counted(field, charts):
        for row in evaluate(field, charts):
            rows.append(row)
            yield row

    monkeypatch.setattr(cv, "_rows", counted)
    n = cv.count_projective_points(poly, s)
    assert len(rows) == len(get_field(s).orbits) + 1 < 2**s  # x = 0 and one x per orbit
    assert n == full_x_fast_count(poly, s)


@example(TrivariatePoly([(7, 0, 0), (0, 3, 4), (2, 1, 4)]), 3)
@example(TrivariatePoly([(0, 7, 0), (1, 0, 6), (4, 1, 2)]), 3)
@differential
@given(homogeneous(y_max=16), st.integers(1, 3))
def test_singular_points_match_naive_in_order(poly, s):
    nf = NaiveField(s, get_field(s).reduction)
    assert cv.singular_points(poly, s) == naive_singular_points(poly.monomials, nf)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("poly", [GBAR, P3, P4, P1T, FB3, F1, F2],
                         ids=["kloosterman", "p3", "p4", "p1tilde", "fbar3", "f_1", "f_2"])
def test_catalog_singular_points_match_naive_in_order(poly, s):
    nf = NaiveField(s, get_field(s).reduction)
    assert cv.singular_points(poly, s) == naive_singular_points(poly.monomials, nf)


@pytest.mark.parametrize("s", [16, 20])
def test_row_values_at_large_exponents_match_naive(s):
    # e log v passes 2^31 here, and e passes 2^s - 1: the index needs int64 and e mod 2^s - 1
    field, nf = get_field(s), NaiveField(s, get_field(s).reduction)
    terms = [(4097, 1, 0), (field.order, 0, 1), (3 * field.order + 7, 2, 0), ((1 << 31) + 3, 0, 0)]
    P, xs = TrivariatePoly(terms), field.log_table[1:]  # all of F^* in element order: column v is v
    chart = cv._chart(field, P, xs, P.y_degree())
    sample = [0, 1, 2, 3, field.size - 1] + random.Random(s).sample(range(field.size), 40)
    cases = (
        (cv._values(field, [{a: 1 for a, _, _ in terms}], xs)[0], lambda v: (v, 1, 1)),
        # the z = 1 row at x = 5: coefficients k = C_b[5] != 1
        (next(itertools.islice(cv._rows(field, [chart]), 5, None))[0], lambda v: (5, v, 1)),
        (chart[-1], lambda v: (v, 1, 0)),
    )
    for got, point in cases:
        for v in sample:
            assert got[v] == naive_evaluate(terms, nf, *point(v)), point(v)


def test_fast_counter_rejects_cubic_in_y():
    with pytest.raises(ValueError):
        cv.count_projective_points_fast(TrivariatePoly([(0, 3, 0), (1, 0, 2)]), 2)


def test_counting_requires_homogeneous():
    bad = TrivariatePoly([(1, 0, 0), (0, 0, 2)])
    with pytest.raises(ValueError):
        cv.count_projective_points(bad, 2)
    with pytest.raises(ValueError):
        cv.singular_points(bad, 2)


def test_cost_refusal():
    with pytest.raises(FieldError):
        cv.count_projective_points(GBAR, 13)
    with pytest.raises(FieldError):
        cv.singular_points(GBAR, 13)


@pytest.mark.parametrize("s", range(1, 7))
def test_singular_points(s):
    assert cv.singular_points(GBAR, s) == []  # nonsingular of genus 1
    assert cv.singular_points(P4, s) == [(0, 1, 0)]
    assert cv.singular_points(P3, s) == [(0, 1, 0)]


def test_p1tilde_singular_points_small_fields():
    for s in (1, 2, 3):
        pts = cv.singular_points(P1T, s)
        assert (0, 1, 0) in pts


def test_catalog_counts_match_zeta_predictions():
    for name in ("kloosterman", "p3", "p4"):
        entry = cv.catalog_curve(name)
        L = z.catalog_lpoly(entry.l_polynomial_name)
        for s in range(1, 9):
            obs = cv.count_projective_points_fast(entry.polynomial, s)
            assert obs == entry.corrected_prediction(z.predicted_count(L, s), s), (name, s)


@pytest.mark.parametrize("name", ["kloosterman", "p3"])
def test_generic_counter_at_its_cap_matches_zeta_prediction(name):
    entry = cv.catalog_curve(name)
    L = z.catalog_lpoly(entry.l_polynomial_name)
    s = cv.COUNT_CAP
    assert cv.count_projective_points(entry.polynomial, s) == entry.corrected_prediction(
        z.predicted_count(L, s), s)


def test_trivial_component_point_bookkeeping():
    # fbar3 = (x+z)^8 * p1tilde: over F_{2^s} the union count is
    # |p1tilde| + 2^s, the x = z line contributing the 2^s points (1:y:1)
    # not on p1tilde plus the shared point (0:1:0).
    for s in range(1, 7):
        n_total = cv.count_projective_points_fast(FB3, s)
        n_tilde = cv.count_projective_points_fast(P1T, s)
        assert n_total == n_tilde + 2**s
        f = NaiveField(s, get_field(s).reduction)
        on_line_only = sum(1 for y in range(f.size) if naive_evaluate(P1T.monomials, f, 1, y, 1) != 0)
        assert on_line_only == 2**s  # all (1:y:1) avoid the nontrivial component
        assert naive_evaluate(P1T.monomials, f, 0, 1, 0) == 0  # the shared point


def test_curve_file_roundtrip(tmp_path):
    path = tmp_path / "c.curve"
    path.write_text("".join(f"{a} {b} {c}\n" for a, b, c in GBAR.monomials) + "# trailing comment\n")
    assert cv.load_curve(str(path)) == GBAR


def test_catalog_entries_are_homogeneous():
    for name in cv.catalog_curve_names():
        entry = cv.catalog_curve(name)
        assert entry.polynomial.is_homogeneous(), name
    assert len(P1T.monomials) == 29
    assert P1T.degree == 58
    assert FB3.degree == 66


def test_catalog_curve_is_shared_and_frozen():
    for name in cv.catalog_curve_names():
        entry = cv.catalog_curve(name)
        assert cv.catalog_curve(name) is entry
        with pytest.raises(AttributeError):
            entry.correction = "exact"
        with pytest.raises(AttributeError):
            entry.polynomial.monomials = frozenset()
        assert copy.deepcopy(entry) == entry
        assert isinstance(entry.polynomial.monomials, frozenset)
    for _ in range(2):  # a failed lookup is not cached
        with pytest.raises(ValueError):
            cv.catalog_curve("p5")


def test_catalog_singular_points_are_pinned_or_none():
    # p1tilde and fbar3 are singular over F_2 but not pinned: None, not ()
    for name in cv.catalog_curve_names():
        entry = cv.catalog_curve(name)
        if entry.expected_singular_points is None:
            assert cv.singular_points(entry.polynomial, 1), name
        else:
            assert cv.singular_points(entry.polynomial, 1) == list(entry.expected_singular_points), name
