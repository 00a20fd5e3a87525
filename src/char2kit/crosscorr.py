"""Cross-correlation of decimated m-sequences and related counts.

The sequence is s_t = Tr(alpha^t); the cross-correlation with its
d-decimation at shift tau is C_d(tau) = sum over x != 0 of
(-1)^Tr(alpha^tau x + x^d).  The decimations of interest are
d = (2^(2k)+1)/(2^k+1) modulo 2^m - 1.

Also here: the brute-force count of ordered quadruples (x, y, z, u) with
x+y+z+u = 1 and vanishing (2^k+1)- and (2^(2k)+1)-power sums, its
exponential-sum formula, the five-value multiplicity formulas, and the
weight distribution of the two-nonzero cyclic codes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expsums
from .expsums import InconsistencyError
from .gf2m import FieldError, decimation_exponent, get_field

__all__ = [
    "A1Report",
    "CorrelationDistribution",
    "InconsistencyError",
    "WeightDistribution",
    "a1_bruteforce",
    "a1_formula",
    "correlation_distribution",
    "cross_correlation",
    "match_multiplicities",
    "theorem1_multiplicities",
    "weight_distribution",
]

A1_BRUTE_CAP = 9       # (x, y, z) loop is 2^(3m)
DIRECT_WEIGHT_CAP = 8  # 2^(2m) codewords scanned individually
SWEEP_CAP = 17         # correlation sweeps cost ~4^m


@dataclass(frozen=True)
class CorrelationDistribution:
    m: int
    d: int
    entries: dict[int, int]

    def check_moments(self) -> None:
        """The three proved moment identities; gcd(d, 2^m - 1) = 1 assumed."""
        order = (1 << self.m) - 1
        if sum(self.entries.values()) != order:
            raise InconsistencyError("multiplicities do not sum to 2^m - 1")
        if sum(v * n for v, n in self.entries.items()) != 1:
            raise InconsistencyError("first moment != 1")
        if sum(v * v * n for v, n in self.entries.items()) != (1 << (2 * self.m)) - (1 << self.m) - 1:
            raise InconsistencyError("second moment != 2^2m - 2^m - 1")


@dataclass(frozen=True)
class WeightDistribution:
    m: int
    k: int
    entries: dict[int, int]

    @property
    def total(self) -> int:
        return 1 << (2 * self.m)

    def check_totals(self) -> None:
        if sum(self.entries.values()) != self.total:
            raise InconsistencyError("weight counts do not sum to 2^(2m)")
        if self.entries.get(0) != 1:
            raise InconsistencyError("count at weight 0 must be exactly 1")


@dataclass(frozen=True)
class A1Report:
    m: int
    k: int
    formula_value: int
    brute_count: int | None = None


def _sequence_bits(m: int):
    """(field, A) with A[j] = Tr(alpha^j) over one period."""
    field = get_field(m)
    return field, field.trace_table[field.exp_table]


def cross_correlation(m: int, d: int, tau: int) -> int:
    """C_d(tau) for a single shift, by enumeration of GF(2^m)^*."""
    field, A = _sequence_bits(m)
    order = field.order
    if math.gcd(d, order) != 1:
        raise FieldError(f"gcd(d={d}, 2^{m}-1) = {math.gcd(d, order)} != 1")
    if not 0 <= tau < order:
        raise FieldError(f"tau={tau} outside [0, 2^{m}-1)")
    j = np.arange(order, dtype=np.int64)
    bits = A[(tau + j) % order] ^ A[(d * j) % order]
    return int(order - 2 * np.count_nonzero(bits))


def correlation_distribution(m: int, d: int, cap: int = SWEEP_CAP) -> CorrelationDistribution:
    """Multiplicity map of C_d(tau) over all shifts tau in [0, 2^m - 1)."""
    if m > cap:
        raise FieldError(f"m={m} exceeds sweep cap {cap} (cost ~4^m)")
    field, A = _sequence_bits(m)
    order = field.order
    if math.gcd(d, order) != 1:
        raise FieldError(f"gcd(d={d}, 2^{m}-1) = {math.gcd(d, order)} != 1")
    B = A[(d * np.arange(order, dtype=np.int64)) % order]
    A2 = np.concatenate([A, A])
    counts: Counter = Counter()
    for tau in range(order):
        ones = int(np.count_nonzero(A2[tau : tau + order] ^ B))
        counts[order - 2 * ones] += 1
    dist = CorrelationDistribution(m, d, dict(sorted(counts.items())))
    dist.check_moments()
    return dist


def a1_bruteforce(m: int, k: int, cap: int = A1_BRUTE_CAP) -> int:
    """Count ordered quadruples (x, y, z, u) in GF(2^m)^4 with

        x + y + z + u = 1,
        x^(2^k+1) + y^(2^k+1) + z^(2^k+1) + u^(2^k+1) = 0,
        x^(2^2k+1) + y^(2^2k+1) + z^(2^2k+1) + u^(2^2k+1) = 0

    by enumerating (x, y, z) with u = 1 + x + y + z eliminated.  No symmetry
    quotient: the count is of ordered quadruples.
    """
    if m > cap:
        raise FieldError(
            f"m={m} exceeds brute cap {cap}: the (x, y, z) loop has 2^{3 * m} "
            f"= {8**m} iterations"
        )
    field = get_field(m)
    size = field.size
    P1 = field.pow_table((1 << k) + 1)
    P2 = field.pow_table((1 << (2 * k)) + 1)
    v = np.arange(size, dtype=np.int64)
    yz = v[:, None] ^ v[None, :]
    p1yz = P1[:, None] ^ P1[None, :]
    p2yz = P2[:, None] ^ P2[None, :]
    total = 0
    for x in range(size):
        u = 1 ^ x ^ yz
        ok = (P1[x] ^ p1yz ^ P1[u]) == 0
        ok &= (P2[x] ^ p2yz ^ P2[u]) == 0
        total += int(np.count_nonzero(ok))
    return total


def a1_formula(m: int, k: int, brute: bool | None = None) -> A1Report:
    """A_1 = 2^m + 1 + 3 G_m^(k) - 2 K'_m - 2 C_m (for k = 1, K'_m is K_m).

    brute=None fills the brute-force count when m is within the brute cap;
    True forces it (may raise), False skips it.
    """
    if m % 2 == 0:
        raise FieldError("the A_1 formula requires odd m")
    if math.gcd(k, m) != 1:
        raise FieldError("the A_1 formula requires gcd(k, m) = 1")
    g = expsums.g_sum(m, k).value
    kp = expsums.kloosterman(m).value if k == 1 else expsums.k_prime(m, k).value
    c = expsums.c_sum(m, k).value
    value = (1 << m) + 1 + 3 * g - 2 * kp - 2 * c
    bc = None
    if brute is True or (brute is None and m <= A1_BRUTE_CAP):
        bc = a1_bruteforce(m, k)
    return A1Report(m, k, value, bc)


def theorem1_multiplicities(m: int, A1: int) -> dict[str, int]:
    """Multiplicities (N0, N1, N-1, N2, N-2) of the five correlation values.

    Case 3 coprime to m:
        N2 = N-2 = A1/96,
        N+-1 = (3*2^(m+1) +- 3*2^((m+3)/2) - A1) / 24,
        N0 = 2^(m-1) - 1 + A1/16.
    Case 3 | m:
        N+-2 = (+-3*2^((m+5)/2) + A1) / 96,  N1 = N-1 = (3*2^(m+1) - A1)/24,
        same N0.
    Raises if any expression is negative or non-integral.
    """
    if m % 2 == 0:
        raise FieldError("the five-value distribution requires odd m")
    vals: dict[str, int] = {}

    def put(name: str, num: int, den: int) -> None:
        if num % den:
            raise InconsistencyError(f"{name} = {num}/{den} is not an integer (A1={A1})")
        v = num // den
        if v < 0:
            raise InconsistencyError(f"{name} = {v} is negative (A1={A1})")
        vals[name] = v

    if m % 3:
        put("N2", A1, 96)
        put("N-2", A1, 96)
        put("N1", 3 * 2 ** (m + 1) + 3 * 2 ** ((m + 3) // 2) - A1, 24)
        put("N-1", 3 * 2 ** (m + 1) - 3 * 2 ** ((m + 3) // 2) - A1, 24)
    else:
        put("N2", 3 * 2 ** ((m + 5) // 2) + A1, 96)
        put("N-2", -3 * 2 ** ((m + 5) // 2) + A1, 96)
        put("N1", 3 * 2 ** (m + 1) - A1, 24)
        put("N-1", 3 * 2 ** (m + 1) - A1, 24)
    if A1 % 16:
        raise InconsistencyError(f"A1 = {A1} is not divisible by 16")
    put("N0", 16 * (2 ** (m - 1) - 1) + A1, 16)
    return vals


def match_multiplicities(dist: CorrelationDistribution) -> dict[str, int]:
    """Bucket an observed distribution into (N0, N+-1, N+-2) by |value + 1|.

    Correlation values are bucketed exactly as observed; the value-to-bucket
    map is by rank of |value + 1| (0 -> N0, smaller pair -> N+-1, larger
    pair -> N+-2, sign of value + 1 picking the +- side).  Absent values
    count 0.  This never assumes a closed form for the extreme values.
    """
    out = {"N0": 0, "N1": 0, "N-1": 0, "N2": 0, "N-2": 0}
    mags = sorted({abs(v + 1) for v in dist.entries if v != -1})
    if len(mags) > 2:
        raise InconsistencyError(f"more than five correlation values observed: {sorted(dist.entries)}")
    for v, n in dist.entries.items():
        if v == -1:
            out["N0"] = n
            continue
        tier = mags.index(abs(v + 1)) + 1
        sign = "" if v + 1 > 0 else "-"
        key = f"N{sign}{tier}"
        if out[key]:
            raise InconsistencyError(f"two observed values map to bucket {key}")
        out[key] = n
    return out


def _weight_rows_via_correlation(m: int, k: int) -> dict[int, int]:
    """Weights of the b = 1 rows: one per a in GF(2^m), via the S(a, 1) sweep."""
    field, A = _sequence_bits(m)
    order = field.order
    e1 = ((1 << k) + 1) % order
    e2 = ((1 << (2 * k)) + 1) % order
    for e, lbl in ((e1, "2^k+1"), (e2, "2^(2k)+1")):
        if math.gcd(e, order) != 1:
            raise FieldError(f"gcd({lbl}, 2^{m}-1) != 1; class reduction unavailable")
    j = np.arange(order, dtype=np.int64)
    s1 = A[(e1 * j) % order]
    B = A[(e2 * j) % order]
    # S(a=alpha^sigma) = sum_t (-1)^(A[(sigma + e2 t) mod n] xor s1[t]); the
    # index e2 t is a permutation of t, so reindex to a plain shift.
    perm = (e2 * j) % order
    s1p = np.zeros(order, dtype=s1.dtype)
    s1p[perm] = s1
    A2 = np.concatenate([A, A])
    weights: dict[int, int] = Counter()
    weights[(order + 1) // 2] += 1  # a = 0: S = -1, weight 2^(m-1)
    for sigma in range(order):
        ones = int(np.count_nonzero(A2[sigma : sigma + order] ^ s1p))
        weights[ones] += 1
    return dict(weights)


def weight_distribution(m: int, k: int, mode: str = "via_correlation",
                        cap: int | None = None) -> WeightDistribution:
    """Weight distribution of the 2^(2m) words c_{a,b}(t) = Tr(a g2^t + b g1^t)
    with g1 = alpha^(2^k+1), g2 = alpha^(2^(2k)+1), t over one period.

    direct mode scans every (a, b) pair (m <= 8); via_correlation reduces
    each b != 0 to b = 1 by substituting x -> cx with c^(2^k+1) = b^(-1)
    (a permutation of positions, so weights are preserved) and multiplies
    the b = 1 row counts by 2^m - 1.
    """
    if k < 1:
        raise FieldError("k must be >= 1")
    field = get_field(m)
    order = field.order
    entries: Counter = Counter()
    if mode == "direct":
        if m > (cap if cap is not None else DIRECT_WEIGHT_CAP):
            raise FieldError(f"direct mode scans 2^{2 * m} words; m={m} over cap")
        e1 = ((1 << k) + 1) % order
        e2 = ((1 << (2 * k)) + 1) % order
        # mask[t] encodes the linear functional a -> Tr(a * g^t) so that the
        # whole 2^m x order bit matrix comes from one popcount-parity pass.
        exp = field.exp_table
        m1 = np.zeros(order, dtype=np.int64)
        m2 = np.zeros(order, dtype=np.int64)
        for t in range(order):
            g1t = int(exp[(e1 * t) % order])
            g2t = int(exp[(e2 * t) % order])
            m1[t] = sum(field.trace(field.mul(1 << i, g1t)) << i for i in range(m))
            m2[t] = sum(field.trace(field.mul(1 << i, g2t)) << i for i in range(m))
        a_col = np.arange(field.size, dtype=np.int64)[:, None]
        bits_a = (np.bitwise_count(a_col & m2[None, :]) & 1).astype(np.uint8)
        bits_b = (np.bitwise_count(a_col & m1[None, :]) & 1).astype(np.uint8)
        for a in range(field.size):
            w = np.count_nonzero(bits_a[a][None, :] ^ bits_b, axis=1)
            entries.update(Counter(w.tolist()))
    elif mode == "via_correlation":
        if m > (cap if cap is not None else SWEEP_CAP):
            raise FieldError(f"m={m} exceeds sweep cap")
        rows = _weight_rows_via_correlation(m, k)
        for w, n in rows.items():
            entries[w] += n * order  # each b != 0 class has 2^m - 1 members
        entries[(order + 1) // 2] += order  # b = 0, a != 0: m-sequence rows
        entries[0] += 1  # zero word
    else:
        raise ValueError(f"unknown mode {mode!r} (use 'direct' or 'via_correlation')")
    dist = WeightDistribution(m, k, dict(sorted(entries.items())))
    dist.check_totals()
    return dist
