"""Exact evaluation of four exponential sums over GF(2^m).

All sums are computed by full enumeration of the field, as arithmetic on the
exponents i of x = alpha^i read through the exp, log and trace tables; this
module is the oracle the curve/zeta identities are checked against.  Each
report carries the trace-zero count n, so value = 2n - domain_size.

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

__all__ = [
    "ExpSumReport",
    "InconsistencyError",
    "Verdict",
    "kloosterman",
    "c_sum",
    "c_sum_closed_form",
    "g_sum",
    "k_prime",
    "conjecture1_check",
    "conjecture2_check",
]

class InconsistencyError(ValueError):
    """A computed quantity contradicts an identity it must satisfy."""


@dataclass(frozen=True)
class ExpSumReport:
    m: int
    k: int | None
    value: int
    trace_zero_count: int
    domain_size: int

    def __post_init__(self):
        if self.value != 2 * self.trace_zero_count - self.domain_size:
            raise InconsistencyError(f"value {self.value} != 2 * {self.trace_zero_count} - {self.domain_size}")


@dataclass(frozen=True)
class Verdict:
    holds: bool
    lhs: int
    rhs: int


def _field(m: int, k: int) -> Field:
    """GF(2^m) for a sum with parameter k, once k >= 1."""
    if k < 1:
        raise FieldError("k must be >= 1")
    return get_field(m)


def _exponents(e: int, order: int) -> np.ndarray:
    """e * i mod order for every i in [0, order), as int64 (the product reaches 2^48)."""
    i = np.arange(order, dtype=np.int64)
    if e % order != 1:  # e = 1 is the identity
        i *= e % order
        i %= order
    return i


def _trace_zero_count(field: Field, a: int, b: int) -> int:
    """The number of i in [0, 2^m - 1) with Tr(alpha^(a i) + alpha^(b i)) = 0."""
    x = field.exp_table[_exponents(a, field.order)]
    x ^= field.exp_table[_exponents(b, field.order)]
    return int(np.count_nonzero(field.trace_table[x] == 0))


def kloosterman(m: int) -> ExpSumReport:
    """The Kloosterman sum K_m, by full enumeration of GF(2^m)^*."""
    field = get_field(m)
    n = _trace_zero_count(field, 1, -1)
    return ExpSumReport(m, None, 2 * n - field.order, n, field.order)


def c_sum(m: int, k: int) -> ExpSumReport:
    """C_m = sum over the whole field of (-1)^Tr(x^(2^k+1) + x); x = 0 adds 1."""
    field = _field(m, k)
    n = _trace_zero_count(field, (1 << k) + 1, 1) + 1
    return ExpSumReport(m, k, 2 * n - field.size, n, field.size)


def c_sum_closed_form(m: int, k: int) -> int | None:
    """The known value +-2^((m+1)/2) by m mod 8, when m is odd, gcd(k,m)=1."""
    if m % 2 == 0 or math.gcd(k, m) != 1:
        return None
    mag = 1 << ((m + 1) // 2)
    return mag if m % 8 in (1, 7) else -mag


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
    log_f = _exponents(1 << k, order)  # log q
    q = exp[log_f]
    den = q ^ exp
    log_f += log[q ^ 1]
    log_f -= ((1 << k) + 1) % order * log[den].astype(np.int64)
    log_f %= order
    n = int(np.count_nonzero((field.trace_table[exp[log_f]] == 0) & (den != 0))) + 1
    return ExpSumReport(m, k, 2 * n - order, n, order)


def conjecture2_check(m: int, k: int) -> Verdict:
    """Does K'_m (parameter k) equal the Kloosterman sum K_m?"""
    lhs = k_prime(m, k).value
    rhs = kloosterman(m).value
    return Verdict(lhs == rhs, lhs, rhs)


def conjecture1_check(m: int, k: int) -> Verdict:
    """Does G_m^(k) equal G_m^(gcd(k, m))?"""
    lhs = g_sum(m, k).value
    rhs = g_sum(m, math.gcd(k, m)).value
    return Verdict(lhs == rhs, lhs, rhs)
