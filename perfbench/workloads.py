"""The four benchmark workloads and their exact-checked jobs.

A job models one char2kit CLI invocation: the runner empties the field
cache before it, and the job records every quantity it computes as an exact
check against an independent route.  Only pass/fail checks are counted;
nothing is merely recorded.

A workload's jobs come in rounds.  Every round holds the same job kinds at
the same sizes; the seed only picks the parameters that do not change the
cost (k, the curve order), so the job mix of a run is the same for every
seed.  See README.md for why each workload exists.

Jobs call the library through module attributes (``crosscorr.a1_formula``,
never a from-import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from char2kit import crosscorr, curves, expsums, gf2m, zeta

MULTIPLICITIES = ("N0", "N1", "N-1", "N2", "N-2")


class Checks:
    """Exact pass/fail checks of one or more jobs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def eq(self, name: str, observed, expected) -> None:
        self.attempted += 1
        if observed != expected:
            self._fail(f"{name}: observed {observed!r}, expected {expected!r}")

    def raised(self, name: str, exc: Exception) -> None:
        """Count a block that raised as one failed check."""
        self.attempted += 1
        self._fail(f"{name}: raised {type(exc).__name__}: {exc}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# -- acceptance: a fixed copy of `char2kit verify-all` at its defaults ---------
#
# Defaults are --max-m 18 --max-s 10; the caps they imply are written out.
# The "[Cn] time" rows of verify-all are recorded rows and are left out.

KNOWN_WEIGHTS = {
    7: {0: 1, 56: 4572, 64: 8255, 72: 3556},
    11: {0: 1, 960: 45034, 992: 900680, 1024: 2368379, 1056: 835176, 1088: 45034},
}
M_SET = (4, 5, 7, 8, 10, 11, 13, 14, 16, 17)


def _c1(ck):
    for m in M_SET:
        v = expsums.conjecture2_check(m, 3)
        ck.eq(f"C1 K'_{m} = K_{m} (k=3)", v.lhs, v.rhs)


def _c2(ck):
    for m in M_SET:
        v = expsums.conjecture1_check(m, 3)
        ck.eq(f"C2 G_{m}^(3) = G_{m}", v.lhs, v.rhs)
    for m in range(1, 17):
        for k in range(1, 6):
            v = expsums.conjecture1_check(m, k)
            ck.eq(f"C2 G_{m}^({k}) = G_{m}^(gcd)", v.lhs, v.rhs)


def _c3(ck):
    for m in range(1, 19, 2):
        for k in range(1, 6):
            closed = expsums.c_sum_closed_form(m, k)
            if closed is not None:
                ck.eq(f"C3 C_{m}(k={k}) closed form", expsums.c_sum(m, k).value, closed)


def _c4(ck):
    for m, k in ((5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (9, 2)):
        rep = crosscorr.a1_formula(m, k, brute=True)
        ck.eq(f"C4 A1 brute = formula (m={m},k={k})", rep.brute_count, rep.formula_value)


def _c5(ck):
    for m in (5, 7, 11, 13):
        base = None
        for k in (1, 2, 3):
            if math.gcd(k, m) != 1:
                continue
            dist = crosscorr.correlation_distribution(m, gf2m.decimation_exponent(m, k))
            expect = crosscorr.theorem1_multiplicities(
                m, crosscorr.a1_formula(m, k, brute=False).formula_value)
            ck.eq(f"C5 multiplicities m={m} k={k}", crosscorr.match_multiplicities(dist), expect)
            if base is None:
                base = dist.entries
            else:
                ck.eq(f"C5 distribution m={m} k={k} equals k=1", dist.entries, base)
    a1 = crosscorr.a1_formula(11, 1, brute=False).formula_value
    ck.eq("C5 m=11 pinned multiplicities", crosscorr.theorem1_multiplicities(11, a1),
          {"N0": 1155, "N1": 440, "N-1": 408, "N2": 22, "N-2": 22})


def _c6(ck):
    for m in (7, 11):
        w1 = crosscorr.weight_distribution(m, 1)
        ck.eq(f"C6 weights m={m} k=1", w1.entries, KNOWN_WEIGHTS[m])
        ck.eq(f"C6 weights m={m} k=3 = k=1", crosscorr.weight_distribution(m, 3).entries, w1.entries)
    ck.eq("C6 direct mode m=7", crosscorr.weight_distribution(7, 1, mode="direct").entries,
          crosscorr.weight_distribution(7, 1).entries)


def _c7(ck):
    for name in ("kloosterman", "p3", "p4", "p1tilde"):
        entry = curves.catalog_curve(name)
        L = zeta.catalog_lpoly(entry.l_polynomial_name)
        for s in range(1, (8 if name == "p1tilde" else 10) + 1):
            ck.eq(f"C7 {name} N_{s}", curves.count_projective_points_fast(entry.polynomial, s),
                  entry.corrected_prediction(zeta.predicted_count(L, s), s))


def _c8(ck):
    PL1, PL2, PL3, PL4 = (zeta.power_sums(zeta.catalog_lpoly(n), 18) for n in ("z1", "z2", "z3", "z4"))
    for m in range(1, 19):
        ck.eq(f"C8 K_{m} = -P_m(z2)", expsums.kloosterman(m).value, -PL2[m - 1])
        ck.eq(f"C8 G_{m} = -P_m(z4)", expsums.g_sum(m, 1).value, -PL4[m - 1])
        ck.eq(f"C8 G_{m}^(3) = -P_m(z3)", expsums.g_sum(m, 3).value, -PL3[m - 1])
        ck.eq(f"C8 K'_{m} = 2 - S_m - P_m(z1)", expsums.k_prime(m, 3).value,
              2 - zeta.singular_correction(m) - PL1[m - 1])


def _c9(ck):
    L1p = zeta.catalog_lpoly("l1prime")
    ck.eq("C9 P_m(l1prime) = 0 for 3 coprime m <= 200",
          zeta.vanishing_residue_check(L1p, 3, 200).holds, True)
    ck.eq("C9 expansion matches published coefficients", zeta.l1prime_expansion_check().holds, True)


def _c10(ck):
    for name, g in (("z2", 1), ("z4", 2), ("z3", 5)):
        entry = next(e for e in map(curves.catalog_curve, curves.catalog_curve_names())
                     if e.l_polynomial_name == name)
        corr = {"exact": 0, "minus_one": 1}[entry.correction]
        counts = [curves.count_projective_points_fast(entry.polynomial, s) + corr
                  for s in range(1, g + 1)]
        L = zeta.reconstruct_from_counts(counts, 2, g)
        ck.eq(f"C10 reconstruct {name} (g={g})", list(L.coefficients),
              list(zeta.catalog_lpoly(name).coefficients))


def _c11(ck):
    ok = all(zeta.singular_correction_sums(s) == zeta.singular_correction(s) for s in range(1, 51))
    ck.eq("C11 P_s(extra factor) = 2^(1+delta) for s <= 50", ok, True)


def _c12(ck):
    xz = curves.TrivariatePoly([(1, 0, 0), (0, 0, 1)])
    p1 = curves.catalog_curve("p1tilde").polynomial
    fb3 = curves.catalog_curve("fbar3").polynomial
    ck.eq("C12 (x+z)^e * p1tilde = fbar3 for e", [e for e in range(1, 9) if (xz**e) * p1 == fb3], [8])


CRITERIA = (_c1, _c2, _c3, _c4, _c5, _c6, _c7, _c8, _c9, _c10, _c11, _c12)


def acceptance_job(ck: Checks) -> None:
    """`char2kit verify-all`.  A criterion that raises counts as one failed
    check, and the criteria after it still run."""
    for i, criterion in enumerate(CRITERIA, 1):
        try:
            criterion(ck)
        except Exception as exc:  # a raise is a failed check, not a crash
            ck.raised(f"C{i}", exc)


# -- spectrum: correlation and weight distributions at the sweep sizes --------


def _theorem1(m: int, k: int) -> dict[str, int]:
    return crosscorr.theorem1_multiplicities(m, crosscorr.a1_formula(m, k, brute=False).formula_value)


def _check_spectrum(ck, label: str, dist, m: int, k: int) -> None:
    """Moments and theorem-1 multiplicities of a distribution of C_d values."""
    order = (1 << m) - 1
    ck.eq(f"{label} multiplicities sum", sum(dist.entries.values()), order)
    ck.eq(f"{label} first moment", sum(v * n for v, n in dist.entries.items()), 1)
    ck.eq(f"{label} second moment", sum(v * v * n for v, n in dist.entries.items()),
          (1 << (2 * m)) - (1 << m) - 1)
    observed = crosscorr.match_multiplicities(dist)
    expected = _theorem1(m, k)
    for name in MULTIPLICITIES:
        ck.eq(f"{label} {name}", observed[name], expected[name])


def corrdist_job(ck: Checks, m: int, k: int) -> None:
    """`char2kit corrdist --m M --k K`."""
    dist = crosscorr.correlation_distribution(m, gf2m.decimation_exponent(m, k))
    _check_spectrum(ck, f"corrdist({m},{k})", dist, m, k)


def weights_job(ck: Checks, m: int, k: int) -> None:
    """`char2kit weights --m M --k K`, checked through the b = 1 rows.

    The 2^(2m) words are the zero word, 2^m - 1 m-sequences of weight 2^(m-1)
    (b = 0), and 2^m - 1 copies of the 2^m rows with b = 1.  A b = 1 row of
    weight w has correlation value 2^m - 1 - 2w; without the a = 0 row (value
    -1) those values are the C_d spectrum with d = d(m, k).
    """
    dist = crosscorr.weight_distribution(m, k)
    label = f"weights({m},{k})"
    order = (1 << m) - 1
    ck.eq(f"{label} total", sum(dist.entries.values()), 1 << (2 * m))
    ck.eq(f"{label} zero word", dist.entries.get(0), 1)
    values: Counter = Counter()
    remainders = 0
    for w, n in dist.entries.items():
        n -= (w == 0) + order * (w == 1 << (m - 1))
        remainders += n % order
        if n:
            values[order - 2 * w] += n // order
    ck.eq(f"{label} b != 0 classes of size 2^m - 1", remainders, 0)
    values[-1] -= 1  # the a = 0 row
    spectrum = crosscorr.CorrelationDistribution(m, gf2m.decimation_exponent(m, k), +values)
    _check_spectrum(ck, label, spectrum, m, k)


# -- fieldsums: cold field build and the four whole-field sums ----------------


def fieldsums_job(ck: Checks, m: int, k: int) -> None:
    """`char2kit expsum` for K, G, C and K' at one (m, k), k in {1, 3}.

    Each sum gets one proved route: K and G^(k) by the zeta identities of C8,
    K' by K' = K (the conjectures rule proves it for gcd(k, m) = 1, k <= 3)
    at k = 1 and by the C8 identity at k = 3, and C by its closed form when
    m is odd.  At even m, C has no proved route and is computed unchecked.
    """
    if k not in (1, 3):
        raise ValueError(f"fieldsums has proved routes for k in (1, 3), not {k}")
    K = expsums.kloosterman(m).value
    G = expsums.g_sum(m, k).value
    C = expsums.c_sum(m, k).value
    Kp = expsums.k_prime(m, k).value
    P = {n: zeta.power_sums(zeta.catalog_lpoly(n), m)[-1] for n in ("z1", "z2", "z3", "z4")}
    ck.eq(f"K_{m} = -P_m(z2)", K, -P["z2"])
    if k == 1:
        ck.eq(f"G_{m} = -P_m(z4)", G, -P["z4"])
        ck.eq(f"K'_{m}(k=1) = K_{m}", Kp, K)
    else:
        ck.eq(f"G_{m}^(3) = -P_m(z3)", G, -P["z3"])
        ck.eq(f"K'_{m}(k=3) = 2 - S_m - P_m(z1)", Kp, 2 - zeta.singular_correction(m) - P["z1"])
    if m % 2:
        ck.eq(f"C_{m}(k={k}) closed form", C, expsums.c_sum_closed_form(m, k))


# -- curves: point counts against the L-polynomial prediction ----------------

# Singular points over F_2, pinned here so that catalog edits do not move
# the check.  p1tilde has no pinned set.
PINNED_SINGULAR = {"kloosterman": [], "p3": [(0, 1, 0)], "p4": [(0, 1, 0)]}
# Largest s counted.  p1tilde (29 monomials) costs about four times a
# 4-monomial curve at equal s, so it stops earlier, as in verify-all's C7.
CURVES_S = {"kloosterman": 14, "p3": 14, "p4": 14, "p1tilde": 12}
GENERIC_S = 4


def curves_job(ck: Checks, name: str, s_max: int, s_generic: int = GENERIC_S) -> None:
    """`char2kit curvecount --curve NAME --s S`, plus generic and singular checks."""
    entry = curves.catalog_curve(name)
    L = zeta.catalog_lpoly(entry.l_polynomial_name)
    fast = {}
    for s in range(1, s_max + 1):
        fast[s] = curves.count_projective_points_fast(entry.polynomial, s)
        ck.eq(f"{name} N_{s}", fast[s], entry.corrected_prediction(zeta.predicted_count(L, s), s))
    for s in range(1, s_generic + 1):
        ck.eq(f"{name} generic N_{s}", curves.count_projective_points(entry.polynomial, s), fast[s])
    if name in PINNED_SINGULAR:
        ck.eq(f"{name} singular points s=1", sorted(curves.singular_points(entry.polynomial, 1)),
              PINNED_SINGULAR[name])


# -- job lists ----------------------------------------------------------------

JOBS = {
    "acceptance": acceptance_job,
    "corrdist": corrdist_job,
    "weights": weights_job,
    "fieldsums": fieldsums_job,
    "curves": curves_job,
}


def _acceptance_round(rng):
    return [("acceptance",)]


# A spectrum round has 250 sweeps at m = 13, 15 at m = 15 and 2 at m = 17.
# Over the two rounds of a run, the median falls in the middle of the m = 13
# sweeps and the tail at about the 80th percentile of the m = 15 sweeps: each
# inside a class of many short jobs, which run wholly in one of a shared
# machine's fast or slow spells, where a 3 s m = 17 sweep mixes them
# (README.md, "Job mix").
# fieldsums repeats m = 20 three times a round, so that the median and tail
# jobs are the largest size.
SPECTRUM_MIX = ((13, 250), (15, 15), (17, 2))


def _spectrum_round(rng):
    jobs = []
    for m, count in SPECTRUM_MIX:
        for i in range(count):
            kind = ("corrdist", "weights")[i % 2]
            jobs.append((kind, m, rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])))
    rng.shuffle(jobs)
    return jobs


def _fieldsums_round(rng):
    jobs = [("fieldsums", m, rng.choice((1, 3))) for m in (18, 19, 20, 20, 20)]
    rng.shuffle(jobs)
    return jobs


def _curves_round(rng):
    names = list(CURVES_S)
    rng.shuffle(names)
    return [("curves", n, CURVES_S[n]) for n in names]


# name: (round generator, rounds per run at the benchmark's run length).
# A fixed number of rounds gives each run the same work on every machine and
# seed, so the ranks behind job_s_p50 and job_s_tail fall in the same job kinds.
WORKLOADS = {
    "acceptance": (_acceptance_round, 20),
    "spectrum": (_spectrum_round, 2),
    "fieldsums": (_fieldsums_round, 12),
    "curves": (_curves_round, 12),
}


def rounds(workload: str, seed: int, count: int) -> list[list[tuple]]:
    make, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng) for _ in range(count)]


def describe(job: tuple) -> str:
    kind, *params = job
    if kind in ("corrdist", "weights", "fieldsums"):
        return f"{kind} m={params[0]} k={params[1]}"
    if kind == "curves":
        return f"curves {params[0]} s<={params[1]}"
    return kind


def run_job(job: tuple, ck: Checks) -> None:
    kind, *params = job
    try:
        JOBS[kind](ck, *params)
    except Exception as exc:  # a raise is a failed check, not a crash
        ck.raised(describe(job), exc)
