import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from char2kit import zeta as z
from char2kit.verdict import Verdict
from char2kit.zeta import LPolynomial, ZetaError

from oracles import catalog_lpoly_factors, differential, naive_power_sums, root_modulus_check


L2 = z.catalog_lpoly("z2")
L3 = z.catalog_lpoly("z3")
L4 = z.catalog_lpoly("z4")
L1 = z.catalog_lpoly("z1")


def test_power_sums_examples():
    assert z.power_sums(L2, 3) == [-1, -3, 5]
    assert z.power_sums(L4, 7)[-1] == 41
    assert z.power_sums(LPolynomial((1,)), 5) == [0, 0, 0, 0, 0]


def test_power_sums_match_numeric_roots():
    for L in (L2, L3, L4, z.catalog_lpoly("l3prime")):
        exact = z.power_sums(L, 12)
        approx = naive_power_sums(list(L.coefficients), 12)
        for a, b in zip(exact, approx):
            assert abs(a - b) < 1e-6


def test_predicted_count_examples():
    assert z.predicted_count(L2, 1) == 4
    assert z.predicted_count(L2, 2) == 8
    assert z.predicted_count(L4, 1) == 4


def test_mul_divide_roundtrip():
    assert (L2 * L4).coefficients == (L4 * L2).coefficients
    one = LPolynomial((1,))
    assert (L3 * one).coefficients == L3.coefficients


def test_division_examples():
    # the catalog quotients, checked as products
    assert (L2 * z.catalog_lpoly("l1prime")).coefficients == L1.coefficients
    assert (L4 * z.catalog_lpoly("l3prime")).coefficients == L3.coefficients
    assert z.catalog_lpoly("l3prime").coefficients == (1, 0, 0, -4, 0, 0, 8)


def test_power_sum_additivity():
    # power sums of a product are the sums of the factors' power sums
    for name in ("z1", "z3", "l1prime"):
        L = z.catalog_lpoly(name)
        factors = catalog_lpoly_factors(name)
        total = z.power_sums(L, 25)
        parts = [z.power_sums(f, 25) for f in factors]
        for s in range(25):
            assert total[s] == sum(p[s] for p in parts)


def test_series_identity_random_polynomials():
    # sigma(t) P(t) + t sigma'(t) = 0, truncated: for every j >= 1 the t^j
    # coefficient of sigma * P equals -j sigma_j.
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randrange(1, 7)
        coeffs = (1,) + tuple(rng.randrange(-5, 6) for _ in range(r))
        L = LPolynomial(coeffs)
        s_max = 14
        P = z.power_sums(L, s_max)
        sigma = coeffs + (0,) * s_max  # sigma_j = 0 past the degree
        for j in range(1, s_max + 1):
            conv = P[j - 1] + sum(sigma[i] * P[j - i - 1] for i in range(1, j))
            assert conv == -j * sigma[j]


def test_functional_equation():
    # The genus is degree // 2: 1 for z2, 2 for z4, 31 for z1.
    assert z.functional_equation_check(L2).holds  # sigma_2 = 2 sigma_0
    assert z.functional_equation_check(L4).holds  # sigma_4 = 4, sigma_3 = 2 sigma_1
    assert z.functional_equation_check(L1).holds
    assert z.functional_equation_check(LPolynomial((1, 1, 3), q=3)).holds  # q is L's: sigma_2 = 3 sigma_0
    # A wrong sigma fails on its coefficient; an odd degree fails by length.
    assert z.functional_equation_check(LPolynomial((1, 1, 3))) == Verdict((1, 1, 3), (1, 1, 2))
    assert z.functional_equation_check(LPolynomial((1, 1, 2, 2))) == Verdict((1, 1, 2, 2), (1, 1, 2))
    assert z.functional_equation_check(LPolynomial((1, 1, 0, 2, 4, 8))) == Verdict((1, 1, 0, 2, 4, 8),
                                                                                   (1, 1, 0, 2, 4))


def test_reconstruct_examples():
    assert z.reconstruct_from_counts([4], 2, 1).coefficients == (1, 1, 2)
    assert z.reconstruct_from_counts([4, 4], 2, 2).coefficients == (1, 1, 0, 2, 4)
    counts = [z.predicted_count(L3, s) for s in range(1, 6)]
    assert z.reconstruct_from_counts(counts, 2, 5).coefficients == L3.coefficients


def test_reconstruct_roundtrip_catalog():
    for name in ("z2", "z3", "z4"):
        L = z.catalog_lpoly(name)
        g = L.degree // 2
        counts = [z.predicted_count(L, s) for s in range(1, g + 1)]
        assert z.reconstruct_from_counts(counts, 2, g).coefficients == L.coefficients


def test_reconstruct_rejects_bad_counts():
    with pytest.raises(ZetaError):
        z.reconstruct_from_counts([4, 5], 2, 2)  # P_2 = 0 makes sigma_2 = 1/2
    with pytest.raises(ZetaError):
        z.reconstruct_from_counts([4], 2, 9)


@differential
@given(low=st.lists(st.integers(-20, 20), min_size=1, max_size=5), data=st.data())
def test_reconstruct_inverts_predicted_counts_in_integers(low, data):
    # Counts predicted from any sigma_1..sigma_g, mirrored by the functional
    # equation, give that polynomial back in ints.  A count N_j moved by delta,
    # j >= 2 and j not dividing delta, leaves j sigma_j off a multiple of j.
    g = len(low)
    sigma = (1, *low)
    L = LPolynomial(sigma + tuple(2 ** (g - j) * sigma[j] for j in range(g - 1, -1, -1)))
    counts = [z.predicted_count(L, s) for s in range(1, g + 1)]
    back = z.reconstruct_from_counts(counts, 2, g)
    assert back == L and {type(c) for c in back.coefficients} == {int}
    if g >= 2:
        j = data.draw(st.integers(2, g))
        counts[j - 1] += data.draw(st.integers(-50, 50).filter(lambda delta: delta % j))
        with pytest.raises(ZetaError, match=f"sigma_{j} = "):
            z.reconstruct_from_counts(counts, 2, g)


def test_reconstruct_any_genus():
    # Exact integer arithmetic needs no genus bound: z1 (g = 31) and the
    # other catalog numerators come back from their predicted counts.
    for L in (L1, L2, L3, L4):
        g = L.degree // 2
        counts = [z.predicted_count(L, s) for s in range(1, g + 1)]
        assert z.reconstruct_from_counts(counts, 2, g) == L, g
    assert L1.degree == 62


def test_vanishing_residue_check():
    L1p = z.catalog_lpoly("l1prime")
    assert z.vanishing_residue_check(L1p, 3, 200).holds
    L3p = z.catalog_lpoly("l3prime")
    assert z.power_sums(L3p, 5) == [0, 0, 12, 0, 0]
    assert z.vanishing_residue_check(L3p, 2, 10) == Verdict({3: 12, 9: -96}, {})
    # any polynomial in t^3 passes automatically
    assert z.vanishing_residue_check(LPolynomial((1, 0, 0, 7)), 3, 30).holds


def test_l1prime_expansion_against_published():
    assert z.l1prime_expansion_check() == Verdict(z.L1PRIME_EXPANSION, z.L1PRIME_EXPANSION)
    sigma = z.catalog_lpoly("l1prime").coefficients
    assert sigma[60] == 1073741824 and sigma[57] == 268435456 and sigma[42] == 4784128


def test_singular_correction_sums():
    assert z.singular_correction_sums(1) == 2
    assert z.singular_correction_sums(2) == 2
    assert z.singular_correction_sums(3) == 8
    for s in range(1, 51):
        assert z.singular_correction_sums(s) == z.singular_correction(s) == 2 ** (1 + (2 if s % 3 == 0 else 0))


def test_catalog_is_parsed_once_per_process(monkeypatch):
    calls = []
    parse = z.parse_lpoly
    monkeypatch.setattr(z, "parse_lpoly", lambda *a, **kw: calls.append(a) or parse(*a, **kw))
    z.catalog_lpoly.cache_clear()
    for s in range(1, 51):
        z.singular_correction_sums(s)
    assert len(calls) == 1


def test_catalog_lpoly_is_shared_and_frozen():
    for name in z.catalog_lpoly_names():
        L = z.catalog_lpoly(name)
        assert z.catalog_lpoly(name) is L
        with pytest.raises(AttributeError):
            L.coefficients = (1,)
    for _ in range(2):  # a failed lookup is not cached
        with pytest.raises(ZetaError):
            z.catalog_lpoly("z5")


def test_root_modulus_per_factor():
    for name in ("z1", "z2", "z3", "z4", "l1prime", "l3prime"):
        for f in catalog_lpoly_factors(name):
            assert root_modulus_check(f).holds, name


def test_riemann_bound_on_catalog_power_sums():
    # |P_s| <= 2g * 2^(s/2), with 1% slack for the float bound
    for name in ("z1", "z2", "z3", "z4"):
        L = z.catalog_lpoly(name)
        for s, p in enumerate(z.power_sums(L, 30), start=1):
            assert abs(p) <= 1.01 * L.degree * 2 ** (s / 2)


def test_file_format_roundtrip(tmp_path):
    path = tmp_path / "test.lpoly"
    path.write_text("# comment\n1 1 2\n1 1 0 2 4\n")
    L = z.load_lpoly(str(path))
    assert L.coefficients == (L2 * L4).coefficients
    with pytest.raises(ZetaError):
        z.parse_lpoly("2 1")  # constant term must be 1
    with pytest.raises(ZetaError):
        z.parse_lpoly("# nothing\n")


def test_catalog_load_checks_the_functional_equation(tmp_path, monkeypatch):
    # A curve's numerator has genus degree / 2, so no file states a genus: every
    # entry outside the correction factors meets the functional equation there,
    # and the load raises on one that does not.
    for name in z.catalog_lpoly_names():
        L = z.catalog_lpoly(name)
        assert z.functional_equation_check(L).holds == (name not in z.CORRECTION_FACTORS), name
    monkeypatch.setattr(z, "CATALOG", tmp_path)
    for text in ("1 1 3\n", "1 1 2 2\n"):  # sigma_2 off its mirror 2 sigma_0; an odd degree
        (tmp_path / "z2.lpoly").write_text(text)
        with pytest.raises(ZetaError, match="'z2'"):
            z.catalog_lpoly.__wrapped__("z2")
    (tmp_path / "singular_extra.lpoly").write_text("1 1 3\n")  # no curve's numerator: not checked
    assert z.catalog_lpoly.__wrapped__("singular_extra").coefficients == (1, 1, 3)
