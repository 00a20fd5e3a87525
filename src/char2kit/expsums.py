"""Exact evaluation of four exponential sums over GF(2^m).

All sums are computed by full enumeration of the field (vectorized over the
log/antilog tables); this module is the oracle the curve/zeta identities are
checked against.  Each report carries the trace-zero count n alongside the
value, so value = 2n - domain_size by construction.

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

from .gf2m import FieldError, get_field

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

    @property
    def delta(self) -> int:
        return self.lhs - self.rhs


def kloosterman(m: int) -> ExpSumReport:
    """The Kloosterman sum K_m, by full enumeration of GF(2^m)^*."""
    field = get_field(m)
    exp, order = field.exp_table, field.order
    inv = exp[(order - np.arange(order, dtype=np.int64)) % order]
    n = int(np.count_nonzero(field.trace_table[exp ^ inv] == 0))
    return ExpSumReport(m, None, 2 * n - order, n, order)


def c_sum(m: int, k: int) -> ExpSumReport:
    """C_m = sum over the whole field of (-1)^Tr(x^(2^k+1) + x)."""
    field = get_field(m)
    if k < 1:
        raise FieldError("k must be >= 1")
    x = np.arange(field.size, dtype=np.int64)
    p = field.pow_table((1 << k) + 1)
    n = int(np.count_nonzero(field.trace_table[p ^ x] == 0))
    return ExpSumReport(m, k, 2 * n - field.size, n, field.size)


def c_sum_closed_form(m: int, k: int) -> int | None:
    """The known value +-2^((m+1)/2) by m mod 8, when m is odd, gcd(k,m)=1."""
    if m % 2 == 0 or math.gcd(k, m) != 1:
        return None
    mag = 1 << ((m + 1) // 2)
    return mag if m % 8 in (1, 7) else -mag


def g_sum(m: int, k: int) -> ExpSumReport:
    """G_m^(k) = sum over x != 0 of (-1)^Tr(x^(2^k+1) + x^-1)."""
    field = get_field(m)
    if k < 1:
        raise FieldError("k must be >= 1")
    exp, order = field.exp_table, field.order
    i = np.arange(order, dtype=np.int64)
    p = exp[(i * (((1 << k) + 1) % order)) % order] if m > 1 else exp[i * 0]
    inv = exp[(order - i) % order]
    n = int(np.count_nonzero(field.trace_table[p ^ inv] == 0))
    return ExpSumReport(m, k, 2 * n - order, n, order)


def k_prime(m: int, k: int) -> ExpSumReport:
    """K'_m = sum over v != 0 of (-1)^Tr(f(v)).

    The denominator of f vanishes exactly on the subfield GF(2^gcd(k,m)).
    When gcd(k, m) > 1, f has poles on GF(2^gcd(k,m)) \\ {0, 1}.  At a pole
    f(v) is not the image of y^2 + y for any y, so the solvability count
    behind the curve-side identities treats it as a trace-one term: each
    pole contributes -1 to the sum.

    Summation is over v != 0; f(1) = 0 contributes +1.  (Including v = 0
    would add exactly +1 more.)
    """
    field = get_field(m)
    if k < 1:
        raise FieldError("k must be >= 1")
    exp, order = field.exp_table, field.order
    v = exp  # all nonzero elements
    q = field.pow_table(1 << k)[v]
    den_base = q ^ v
    poles = (den_base == 0) & (v != 1)
    num = field.vec_mul(q ^ 1, q)
    den = np.ones_like(v)
    ok = ~poles & (v != 1)  # f(1) = 0 by convention, handled below
    den[ok] = field.pow_table((1 << k) + 1)[den_base[ok]]
    fval = np.zeros_like(v)
    fval[ok] = field.vec_mul(num[ok], field.vec_inv(den[ok]))
    tr = field.trace_table[fval].copy()
    tr[v == 1] = 0  # f(1) = 0 by convention
    tr[poles] = 1
    n = int(np.count_nonzero(tr == 0))
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
