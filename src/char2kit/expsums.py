"""Exact evaluation of four exponential sums over GF(2^m).

Each sum is Sum (-1)^Tr(f(x)) with f over GF(2), so Tr(f(x^2)) = Tr(f(x)^2)
= Tr(f(x)) and every summand is constant on the Frobenius orbit of x.  With
x = alpha^i that orbit is the cyclotomic coset {i 2^j mod 2^m - 1}, so the
sums are evaluated once per coset, on the least members of Field.orbits,
as arithmetic on exponents whose traces are read by Field.trace, and
each term is weighted by its coset's size.  K, C and G^(k) are Tr(x^a) +
Tr(x^b) for fixed exponents a, b in {1, -1, 2^k + 1}: each is the XOR of two
memoized Field.orbit_traces vectors and one size-weighted count, so the
sums at one m share their trace vectors.  K' is one pass over the coset
leaders, by block.  Each trace-zero count is kept in the field's _sum_counts,
by its exponent residues, so a sum asked for again at the same residues is
a dict lookup.  This module is the oracle the curve/zeta identities are
checked against.  Each report carries the trace-zero count n, so
value = 2n - domain_size.  conjecture2_proved states where conjecture 2 is
proved, and theorem1_applies is the one test of the paper's hypothesis.

Sums:
    kloosterman : sum over x != 0 of (-1)^Tr(x + x^-1)
    c_sum       : sum over all x of (-1)^Tr(x^(2^k+1) + x)
    g_sum       : sum over x != 0 of (-1)^Tr(x^(2^k+1) + x^-1)
    k_prime     : sum over v != 0 of (-1)^Tr(f(v)) for the rational map
                  f(v) = (v^(2^k)+1) v^(2^k) / (v^(2^k)+v)^(2^k+1), f(1) = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2m import Field, FieldError, get_field
from .verdict import Verdict

__all__ = [
    "ExpSumReport",
    "kloosterman",
    "c_sum",
    "c_sum_closed_form",
    "g_sum",
    "k_prime",
    "conjecture1_check",
    "conjecture2_check",
    "conjecture2_proved",
    "theorem1_applies",
    "sum_report",
]


@dataclass(frozen=True)
class ExpSumReport:
    m: int
    k: int | None
    value: int
    trace_zero_count: int
    domain_size: int


def _field(m: int, k: int) -> Field:
    """GF(2^m) for a sum with parameter k, once k >= 1."""
    if k < 1:
        raise FieldError("k must be >= 1")
    return get_field(m)


def _trace_zero_count(field: Field, a: int, b: int) -> int:
    """The number of i in [0, 2^m - 1) with Tr(alpha^(a i) + alpha^(b i)) = 0,
    as the total size of the cosets whose least member i has it; computed
    once per field and unordered pair of residues a, b mod 2^m - 1."""
    key = ("pair", *sorted((a % field.order, b % field.order)))
    n = field._sum_counts.get(key)
    if n is None:
        t = field.orbit_traces(a) != field.orbit_traces(b)
        n = field._sum_counts[key] = field.order - field.orbit_total(t)
    return n


def kloosterman(m: int) -> ExpSumReport:
    """The Kloosterman sum K_m over GF(2^m)^*."""
    field = get_field(m)
    n = _trace_zero_count(field, 1, -1)
    return ExpSumReport(m, None, 2 * n - field.order, n, field.order)


def c_sum(m: int, k: int) -> ExpSumReport:
    """C_m = sum over the whole field of (-1)^Tr(x^(2^k+1) + x); x = 0 adds 1."""
    field = _field(m, k)
    n = _trace_zero_count(field, (1 << k) + 1, 1) + 1
    return ExpSumReport(m, k, 2 * n - field.size, n, field.size)


def c_sum_closed_form(m: int, k: int) -> int:
    """C_m at any (m, k), from the quadratic form x -> Tr(x^(2^k+1)) (Coulter,
    New Zealand J. Math., 1999).  With d = gcd(k, m) and q = m/d: at q = 2
    mod 4, 0; at q = 0 mod 4, -(-1)^(d q/4) 2^(m/2+d); at odd q,
    (2/q)^d 2^((m+d)/2), where (2/q) = +1 iff q = +-1 mod 8.  Where
    theorem1_applies (d = 1, q = m odd) it is +-2^((m+1)/2) by m mod 8."""
    d = math.gcd(k, m)
    q = m // d
    if q % 4 == 2:
        return 0
    if q % 4 == 0:
        return -((-1) ** (d * q // 4)) << (m // 2 + d)
    return (1 if q % 8 in (1, 7) else (-1) ** d) << (m + d) // 2


def g_sum(m: int, k: int) -> ExpSumReport:
    """G_m^(k) = sum over x != 0 of (-1)^Tr(x^(2^k+1) + x^-1)."""
    field = _field(m, k)
    n = _trace_zero_count(field, (1 << k) + 1, -1)
    return ExpSumReport(m, k, 2 * n - field.order, n, field.order)


def k_prime(m: int, k: int) -> ExpSumReport:
    """K'_m = sum over v != 0 of (-1)^Tr(f(v)); f(1) = 0 contributes +1.

    The denominator q + v, q = v^(2^k), vanishes exactly on GF(2^gcd(k,m)):
    at v = 1 and at the poles GF(2^gcd(k,m)) \\ {0, 1}.  At a pole f(v) is not
    the image of y^2 + y for any y, so the solvability count behind the
    curve-side identities treats it as a trace-one term (-1).  With
    v = alpha^i, log q = 2^k i and log f = log(q + 1) + log q - (2^k + 1)
    log(q + v) mod 2^m - 1.
    """
    field = _field(m, k)
    exp, log, order = field.exp_table, field.log_table, field.order
    e = (1 << k) % order  # f depends on k only through 2^k mod 2^m - 1
    key = ("Kp", e)
    n = field._sum_counts.get(key)
    if n is None:
        n = order + 1
        # A block of leaders at a time, in this order and in place, so that at
        # most two int64 vectors of the block are held at once, log q = e r
        # and a widened table read.  log 0 is read only at a pole.
        for lo, reps in field.orbit_blocks:
            log_f = field.fold(np.multiply(reps, e, dtype=np.int64))  # log q
            q = exp[log_f]
            den = exp[reps]
            den ^= q  # q + v
            pole = den == 0  # a pole counts as trace one
            q ^= 1
            log_f += log[q]
            del q
            log_f += np.multiply(log[den], -((e + 1) % order), dtype=np.int64)
            del den
            t = field.trace(field.fold(log_f)).view(bool)
            del log_f
            t |= pole
            n -= field.orbit_total(t, lo)
        field._sum_counts[key] = n
    return ExpSumReport(m, k, 2 * n - order, n, order)


def conjecture2_check(m: int, k: int) -> Verdict:
    """Does K'_m (parameter k) equal the Kloosterman sum K_m?"""
    lhs = k_prime(m, k).value
    rhs = kloosterman(m).value
    return Verdict(lhs, rhs)


def conjecture1_check(m: int, k: int) -> Verdict:
    """Does G_m^(k) equal G_m^(gcd(k, m))?"""
    lhs = g_sum(m, k).value
    rhs = g_sum(m, math.gcd(k, m)).value
    return Verdict(lhs, rhs)


def conjecture2_proved(m: int, k: int) -> bool:
    """Where conjecture2_check is proved: gcd(k, m) = 1 and k <= 3 (K' is another sum if gcd > 1)."""
    return math.gcd(k, m) == 1 and k <= 3


def theorem1_applies(m: int, k: int | None) -> bool:
    """The paper's hypothesis, odd m and gcd(k, m) = 1: where theorem 1 gives the five
    multiplicities of the spectrum at d = decimation_exponent(m, k), and where A_1 is
    counted and has its formula."""
    return k is not None and m % 2 == 1 and math.gcd(k, m) == 1


def sum_report(name: str, m: int, k: int | None) -> ExpSumReport:
    """The sum that `expsum --sum` names K, C, G or Kp; K takes no k."""
    return kloosterman(m) if name == "K" else {"C": c_sum, "G": g_sum, "Kp": k_prime}[name](m, k)

