"""The acceptance gate, defined once for `char2kit verify-all` and pytest.

CRITERIA maps "C1".."C12" to generators that take (max_m, max_s), the
largest field degree and curve-count extension to enumerate, and yield
unprefixed (name, observed, expected) rows; a row passes iff observed ==
expected exactly, and verify-all names it "<key> <name>".  C1-C5 check the
paper's claims for k = 3; C6-C12 the weights, point counts and
zeta-function identities.

Every row a subcommand checks is built here, once, and a criterion keeps
only its sweep: kp_row (C1), g_row (C2), c_row (C3) and zeta_row (C8),
which sum_rows gathers for expsum and conjectures through the tables
IDENTITY_ROWS and ZETA_ROUTES; a1_row (C4), spectrum_rows (C5, corrdist),
weight_rows (C6), count_rows (C7) and dm_rows (C9); and the zeta rows that
no criterion states.
"""

from __future__ import annotations

import math
from collections import Counter

from . import crosscorr, curves, expsums, gf2m, zeta

KNOWN_WEIGHTS = {
    # Known weight distributions of the two-nonzero cyclic codes (k = 1); m = 6, 8 from the naive oracle.
    6: {0: 1, 24: 588, 28: 504, 32: 1827, 36: 1176},
    7: {0: 1, 56: 4572, 64: 8255, 72: 3556},
    8: {0: 1, 112: 5355, 120: 14144, 128: 29580, 136: 12240, 144: 4165, 160: 51},
    11: {0: 1, 960: 45034, 992: 900680, 1024: 2368379, 1056: 835176, 1088: 45034},
}

PINNED_M11 = {"N0": 1155, "N1": 440, "N-1": 408, "N2": 22, "N-2": 22}

C2_K = range(1, 6)  # the k at which C2 checks G^(k), and sum_rows checks g_row


def c1(max_m, max_s):
    """K'_m = K_m at k=3 where 3 does not divide m"""
    yield from (kp_row(m, 3) for m in range(1, max_m + 1) if expsums.conjecture2_proved(m, 3))


def kp_row(m, k):
    """K'_m against K_m at parameter k."""
    v = expsums.conjecture2_check(m, k)
    return f"K'_{m} = K_{m} (k={k})", v.lhs, v.rhs


def c2(max_m, max_s):
    """G^(k) against the sum at another exponent residue mod 2^m - 1 (g_row), each pair of residues once"""
    for m in range(1, max_m + 1):
        first = {}  # each pair of residues at its least k
        for k in C2_K:
            first.setdefault(_partner(m, k)[1], k)
        yield from (g_row(m, k) for residues, k in first.items() if len(residues) == 2)


def _partner(m, k):
    """j, where g_row compares G_m^(k) with G_m^(j) (K_m at j = 0), and the two exponent residues."""
    j = math.gcd(k, m) if math.gcd(k, m) < k else m - k
    order = (1 << m) - 1
    return j, frozenset((((1 << k) + 1) % order, ((1 << j) + 1 if j else 1) % order))


def g_row(m, k):
    """G_m^(k) against G_m^(gcd(k, m)) where gcd(k, m) < k (conjecture 1: proved at k = 2, 3,
    open at k = 4, 5, where C2 checks it as an observed fact), else against G_m^(m - k), as x -> x^(2^(m-k))
    sends one to the other (K_m at k = m, as Tr(x^2) = Tr(x)); None at one exponent residue."""
    j, residues = _partner(m, k)
    if len(residues) < 2:
        return None
    if math.gcd(k, m) < k:
        v = expsums.conjecture1_check(m, k)
        return f"G_{m}^({k}) = G_{m}^({j})", v.lhs, v.rhs
    partner = expsums.g_sum(m, j) if j else expsums.kloosterman(m)
    return f"G_{m}^({k}) = {f'G_{m}^({j})' if j else f'K_{m}'}", expsums.g_sum(m, k).value, partner.value


def c3(max_m, max_s):
    """C_m against its closed form at every (m, k), by d = gcd(k, m) and q = m/d"""
    yield from (c_row(m, k) for m in range(1, max_m + 1) for k in range(1, 6))


def c_row(m, k):
    """C_m against c_sum_closed_form."""
    return f"C_{m}(k={k}) closed form", expsums.c_sum(m, k).value, expsums.c_sum_closed_form(m, k)


def sum_rows(name, m, k):
    """The rows the criteria check for the sum that `expsum --sum name` evaluates at (m, k): its
    IDENTITY_ROWS row where a criterion checks that rule (C3 at every (m, k), C2 at k in C2_K, C1
    where expsums.conjecture2_proved), then the zeta_row of each route with that sum and k."""
    checked = name == "C" or (name == "G" and k in C2_K) or (name == "Kp" and expsums.conjecture2_proved(m, k))
    if checked and (row := IDENTITY_ROWS[name](m, k)) is not None:
        yield row
    yield from (zeta_row(route, m) for route in ZETA_ROUTES if route[0] == name and route[1] in (None, k))


def c4(max_m, max_s):
    """A_1 derivative count = formula at every odd m, k <= 3 with gcd(k, m) = 1"""
    yield from (a1_row(m, k) for m in range(1, max_m + 1) for k in (1, 2, 3)
                if expsums.theorem1_applies(m, k))


def a1_row(m, k):
    """The A_1 formula against the derivative count, at odd m and gcd(k, m) = 1."""
    rep = crosscorr.a1_formula(m, k, brute=True)
    return f"A1 count = formula (m={m},k={k})", rep.brute_count, rep.formula_value


def spectrum_rows(prefix, dist, k=None):
    """The shift count and the first two moments of dist, which hold at every
    d.  Where theorem 1 applies to (dist.m, k), the observed five-value
    multiplicities against it, one row each, and N0 - 6*N2: a value outside
    the five adds one failed row.  Elsewhere, as those rows imply them, the
    third and fourth moments of W = C + 1 against 2^(2m) times
    crosscorr.derivative_counts(m, dist.d).  W -> -W fails the first moment."""
    m, entries = dist.m, dist.entries
    yield f"{prefix}sum of multiplicities", sum(entries.values()), (1 << m) - 1
    yield f"{prefix}first moment", sum(v * n for v, n in entries.items()), 1
    yield f"{prefix}second moment", sum(v * v * n for v, n in entries.items()), (1 << (2 * m)) - (1 << m) - 1
    if not expsums.theorem1_applies(m, k):
        for p, name, count in zip((3, 4), ("third", "fourth"), crosscorr.derivative_counts(m, dist.d)):
            observed = sum((v + 1) ** p * n for v, n in entries.items())
            yield f"{prefix}{name} moment of C + 1", observed, count << (2 * m)
        return
    expect = crosscorr.theorem1_multiplicities(m, crosscorr.a1_formula(m, k).formula_value)
    observed = crosscorr.match_multiplicities(dist)
    for name, n in observed.items():
        yield f"{prefix}multiplicity {name}", n, expect.get(name, 0)
    yield f"{prefix}N0 - 6*N2", observed["N0"] - 6 * observed["N2"], crosscorr.one_sixth_slack(m)


def c5(max_m, max_s):
    """spectrum moments; observed distribution = multiplicity formulas, N0 - 6*N2 exact, k = 2, 3 as k = 1"""
    for m in range(5, max_m + 1, 2):
        base = None
        for k in (1, 2, 3):
            if not expsums.theorem1_applies(m, k):
                continue
            dist = crosscorr.correlation_distribution(m, gf2m.decimation_exponent(m, k))
            yield from spectrum_rows(f"m={m} k={k} ", dist, k)
            if base is None:
                base = dist.entries
            else:
                yield f"distribution m={m} k={k} equals k=1", dist.entries, base
    if max_m >= 11:
        a1 = crosscorr.a1_formula(11, 1).formula_value
        yield "m=11 pinned multiplicities", crosscorr.theorem1_multiplicities(11, a1), PINNED_M11


def c6(max_m, max_s):
    """weight distributions m=7, 8, 11 and their structure; at m = 8 no b != 0 reduces to b = 1"""
    for m in [m for m in (7, 8, 11) if m <= max_m]:
        w1 = crosscorr.weight_distribution(m, 1)
        yield from weight_rows(f"weights m={m} k=1 ", w1)
        yield f"weights m={m} k=3 = k=1", crosscorr.weight_distribution(m, 3).entries, w1.entries


def weight_rows(prefix, dist):
    """The weights of dist against KNOWN_WEIGHTS where it has dist.m, the word total and the
    zero word; then where gcd(2^k + 1, 2^m - 1) = 1 the b != 0 classes and the spectrum_rows
    of the b = 1 words, elsewhere Pless's two power moments (the positions are distinct)."""
    m, k, entries, order = dist.m, dist.k, dist.entries, (1 << dist.m) - 1
    expected = KNOWN_WEIGHTS.get(m)
    if expected is not None:
        yield from ((f"{prefix}A_{w}", n, expected.get(w)) for w, n in entries.items())
        yield f"{prefix}weight set", sorted(entries), sorted(expected)
    yield f"{prefix}total words", sum(entries.values()), 1 << (2 * m)
    yield f"{prefix}zero words", entries.get(0, 0), 1
    if math.gcd((1 << k) + 1, order) > 1:
        yield f"{prefix}sum of w A_w", sum(w * n for w, n in entries.items()), order << (2 * m - 1)
        yield (f"{prefix}sum of w^2 A_w", sum(w * w * n for w, n in entries.items()),
               (order * (order + 1)) << (2 * m - 2))
        return
    # b = 0 gives the zero word and 2^m - 1 m-sequences of weight 2^(m-1);
    # x -> cx maps the b = 1 rows onto each of the 2^m - 1 classes b != 0.
    rest = {w: n - (w == 0) - order * (w == 1 << (m - 1)) for w, n in entries.items()}
    yield f"{prefix}b != 0 classes of 2^m - 1 words", [w for w, n in rest.items() if n % order], []
    # A b = 1 row of weight w has C_d value 2^m - 1 - 2w; its a = 0 row has -1.
    values = Counter({order - 2 * w: n // order for w, n in rest.items()})
    values[-1] -= 1
    spectrum = crosscorr.CorrelationDistribution(m, gf2m.decimation_exponent(m, k), +values)
    yield from spectrum_rows(f"{prefix}b = 1 ", spectrum, k)


def c7(max_m, max_s):
    """point counts = corrected zeta predictions; pinned singular points"""
    for name in ("kloosterman", "p3", "p4", "p1tilde"):
        entry = curves.catalog_curve(name)
        yield from count_rows(f"{name} ", entry, max_s)
        if entry.expected_singular_points is not None:
            yield (f"{name} singular points s=1", curves.singular_points(entry.polynomial, 1),
                   list(entry.expected_singular_points))


def count_rows(prefix, entry, s_max):
    """N_s of a catalog curve by the fast counter against its corrected zeta prediction, s = 1..s_max."""
    L = zeta.catalog_lpoly(entry.l_polynomial_name)
    for s in range(1, s_max + 1):
        yield (f"{prefix}N_{s}", curves.count_projective_points_fast(entry.polynomial, s),
               entry.corrected_prediction(zeta.predicted_count(L, s), s))


def c8(max_m, max_s):
    """exponential sums = zeta power sums"""
    yield from (zeta_row(route, m) for m in range(1, max_m + 1) for route in ZETA_ROUTES)


def zeta_row(route, m):
    """The sum that a route of ZETA_ROUTES names, at m, against -P_m(L) of its catalog L-polynomial,
    or 2 - S_m - P_m(L) for K' (S_m the singular correction of its genus-31 curve)."""
    name, k, lpoly, label = route
    p = zeta.power_sums(zeta.catalog_lpoly(lpoly), m)[-1]
    expected = 2 - zeta.singular_correction(m) - p if name == "Kp" else -p
    return label.format(m=m), expsums.sum_report(name, m, k).value, expected


def c9(max_m, max_s):
    """catalog quotients; quotient power sums vanish off multiples of 3"""
    for whole, part, quotient in (("z1", "z2", "l1prime"), ("z3", "z4", "l3prime")):
        product = zeta.catalog_lpoly(part) * zeta.catalog_lpoly(quotient)
        yield (f"{whole} = {part} * {quotient}", list(product.coefficients),
               list(zeta.catalog_lpoly(whole).coefficients))
    yield from dm_rows(200)


def dm_rows(bound):
    """P_m(l1prime) = 0 for 3 coprime m <= bound, and l1prime's published expansion."""
    # The expansion row compares every nonzero sigma_j, so it also fails on one with 3 not | j.
    v = zeta.vanishing_residue_check(zeta.catalog_lpoly("l1prime"), 3, bound)
    yield f"P_m(l1prime) = 0 for 3 coprime m <= {bound}", v.lhs, v.rhs
    v = zeta.l1prime_expansion_check()
    yield "expansion matches published coefficients", v.lhs, v.rhs


def functional_equation_rows(L):
    """L's functional equation at genus degree // 2, at every positive degree: an odd one fails by length."""
    if L.degree > 0:
        v = zeta.functional_equation_check(L)
        yield "functional equation", v.lhs, v.rhs


def prediction_rows(counts, g):
    """Each count N_s past genus g against the prediction of the L-polynomial that N_1..N_g give."""
    L = zeta.reconstruct_from_counts(counts, 2, g)
    yield from ((f"N_{s}", n, zeta.predicted_count(L, s)) for s, n in enumerate(counts, 1) if s > g)


def c10(max_m, max_s):
    """L-polynomials recovered from point counts"""
    for entry in map(curves.catalog_curve, ("kloosterman", "p4", "p3")):
        expected = zeta.catalog_lpoly(entry.l_polynomial_name)
        g = expected.degree // 2  # the functional equation at g is checked at load
        # The nonsingular model's count: corrected_prediction(n, s) is n less the correction.
        counts = [curves.count_projective_points_fast(entry.polynomial, s)
                  - entry.corrected_prediction(0, s) for s in range(1, g + 1)]
        L = zeta.reconstruct_from_counts(counts, 2, g)
        yield f"reconstruct {entry.l_polynomial_name} (g={g})", list(L.coefficients), list(expected.coefficients)


def c11(max_m, max_s):
    """extra-factor power sums = 2^(1+delta)"""
    yield ("P_s(extra factor) = 2^(1+delta) for s <= 50",
           [zeta.singular_correction_sums(s) for s in range(1, 51)],
           [zeta.singular_correction(s) for s in range(1, 51)])


def c12(max_m, max_s):
    """(x+z)^8 * 29-monomial curve = degree-66 curve = homogenized f_3"""
    xz = curves.TrivariatePoly([(1, 0, 0), (0, 0, 1)])
    p1 = curves.catalog_curve("p1tilde").polynomial
    fb3 = curves.catalog_curve("fbar3").polynomial
    yield "(x+z)^e * p1tilde = fbar3 for e", [e for e in range(1, 9) if (xz**e) * p1 == fb3], [8]
    yield "homogenize(f_3, 66) = fbar3", curves.homogenize(curves.f_k_affine(3), 66), fb3


IDENTITY_ROWS = {"C": c_row, "G": g_row, "Kp": kp_row}  # the identity of each sum but K

# The paper's identities of a sum with a zeta power sum, in the order C8 checks them:
# (sum as sum_report names it, its k or None for every k, catalog L-polynomial, row label).
ZETA_ROUTES = (("K", None, "z2", "K_{m} = -P_m(z2)"), ("G", 1, "z4", "G_{m} = -P_m(z4)"),
               ("G", 3, "z3", "G_{m}^(3) = -P_m(z3)"), ("Kp", 3, "z1", "K'_{m}(k=3) = 2 - S_m - P_m(z1)"))

CRITERIA = {"C1": c1, "C2": c2, "C3": c3, "C4": c4, "C5": c5, "C6": c6,
            "C7": c7, "C8": c8, "C9": c9, "C10": c10, "C11": c11, "C12": c12}
