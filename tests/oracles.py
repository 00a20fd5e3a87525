"""Independent brute-force oracles for the tests.

Everything here is deliberately naive: field arithmetic is shift-XOR
carryless multiplication with direct reduction (no log/antilog tables),
sums and counts are plain Python loops.  Only usable for small m, which is
the point: the fast library paths are checked against these.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
from hypothesis import settings

from char2kit.zeta import CheckResult, LPolynomial

# Differential tests against these oracles: fixed, bounded, no deadline.
differential = settings(derandomize=True, max_examples=25, deadline=None)


def clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def reduce_mod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


class NaiveField:
    def __init__(self, m: int, reduction: int):
        self.m = m
        self.reduction = reduction
        self.size = 1 << m
        self.order = self.size - 1

    def mul(self, a, b):
        return reduce_mod(clmul(a, b), self.reduction)

    def pow(self, a, e):
        """Square and multiply: O(log e) products, so exponents 2^k + 1 stay cheap."""
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        """a^(2^m - 2), checked against the product."""
        b = self.pow(a, self.size - 2)
        if self.mul(a, b) != 1:
            raise ValueError("no inverse")
        return b

    def trace(self, a):
        acc = 0
        t = a
        for _ in range(self.m):
            acc ^= t
            t = self.mul(t, t)
        assert acc in (0, 1)
        return acc


def naive_exp_table(m: int, reduction: int) -> tuple[list[int], list[int]]:
    """exp[i] = x^i for 0 <= i < 2^m - 1 by shift-and-reduce, one element at
    a time, and log with log[exp[i]] = i (log[0] = -1)."""
    order = (1 << m) - 1
    exp, log = [], [-1] * (order + 1)
    v = 1
    for i in range(order):
        exp.append(v)
        log[v] = i
        v <<= 1
        if v >> m:
            v ^= reduction
    assert v == 1, "x is not primitive"
    return exp, log


def naive_powers_distinct(m: int, reduction: int) -> bool:
    """Whether x^0, ..., x^(2^m - 2) mod reduction, by shift-and-reduce, are
    pairwise distinct and nonzero (zero only matters for x^2 at m = 2)."""
    seen = set()
    v = 1
    for _ in range((1 << m) - 1):
        if v == 0 or v in seen:
            return False
        seen.add(v)
        v <<= 1
        if v >> m:
            v ^= reduction
    return True


def naive_kloosterman(F: NaiveField) -> int:
    return sum((-1) ** F.trace(x ^ F.inv(x)) for x in range(1, F.size))


def naive_c_sum(F: NaiveField, k: int) -> int:
    return sum((-1) ** F.trace(F.pow(x, 2**k + 1) ^ x) for x in range(F.size))


def naive_g_sum(F: NaiveField, k: int) -> int:
    return sum((-1) ** F.trace(F.pow(x, 2**k + 1) ^ F.inv(x)) for x in range(1, F.size))


def naive_k_prime(F: NaiveField, k: int) -> int:
    total = 0
    for v in range(1, F.size):
        if v == 1:
            total += 1
            continue
        q = F.pow(v, 2**k)
        den = q ^ v
        if den == 0:
            total -= 1  # pole: f(v) is not of the form y^2 + y
            continue
        fv = F.mul(F.mul(q ^ 1, q), F.inv(F.pow(den, 2**k + 1)))
        total += (-1) ** F.trace(fv)
    return total


def naive_cross_correlation(F: NaiveField, d: int, tau: int, alpha: int = 0b10) -> int:
    a = F.pow(alpha, tau)
    return sum((-1) ** F.trace(F.mul(a, x) ^ F.pow(x, d)) for x in range(1, F.size))


def naive_a1(F: NaiveField, k: int) -> int:
    e1, e2 = 2**k + 1, 2 ** (2 * k) + 1
    p1 = [F.pow(v, e1) for v in range(F.size)]
    p2 = [F.pow(v, e2) for v in range(F.size)]
    total = 0
    for x in range(F.size):
        for y in range(F.size):
            for z in range(F.size):
                u = 1 ^ x ^ y ^ z
                if p1[x] ^ p1[y] ^ p1[z] ^ p1[u] == 0 and p2[x] ^ p2[y] ^ p2[z] ^ p2[u] == 0:
                    total += 1
    return total


def naive_weight_distribution(F: NaiveField, k: int, alpha: int = 0b10) -> dict[int, int]:
    e1, e2 = 2**k + 1, 2 ** (2 * k) + 1
    g1 = [F.pow(alpha, (e1 * t) % F.order) for t in range(F.order)]
    g2 = [F.pow(alpha, (e2 * t) % F.order) for t in range(F.order)]
    # Tr(c g^t) once per (c, t); the word of (a, b) is the XOR of two rows.
    rows1 = [[F.trace(F.mul(b, g)) for g in g1] for b in range(F.size)]
    rows2 = [[F.trace(F.mul(a, g)) for g in g2] for a in range(F.size)]
    out: dict[int, int] = {}
    for r2 in rows2:
        for r1 in rows1:
            w = sum(x ^ y for x, y in zip(r2, r1))
            out[w] = out.get(w, 0) + 1
    return out


def naive_projective_count(poly_monomials, F: NaiveField) -> int:
    """Count projective zeros by enumerating all nonzero triples and dividing
    by the number of representatives per point (2^s - 1)."""
    hits = 0
    for x in range(F.size):
        for y in range(F.size):
            for z in range(F.size):
                if x == y == z == 0:
                    continue
                acc = 0
                for a, b, c in poly_monomials:
                    acc ^= F.mul(F.mul(F.pow(x, a), F.pow(y, b)), F.pow(z, c))
                if acc == 0:
                    hits += 1
    assert hits % F.order == 0
    return hits // F.order


def naive_power_sums(coeffs: list[int], s_max: int) -> list[float]:
    """Power sums of the reciprocal roots via numpy root extraction."""
    roots = np.roots(list(reversed(coeffs)))
    recip = 1.0 / roots
    return [complex(np.sum(recip**j)).real for j in range(1, s_max + 1)]


def root_modulus_check(L: LPolynomial, expected_sq: int = 2, tol: float = 1e-9) -> CheckResult:
    """Numeric check that every reciprocal root has |omega|^2 = expected_sq."""
    roots = np.roots(list(reversed(L.coefficients)))
    for t in roots:
        w = 1.0 / t
        if abs(abs(w) ** 2 - expected_sq) > tol * (1 + expected_sq):
            return CheckResult(False, f"reciprocal root {w} has |.|^2 = {abs(w)**2}")
    return CheckResult(True)


def catalog_lpoly_factors(name: str) -> list[LPolynomial]:
    """The individual factor polynomials of a catalog entry, unexpanded."""
    text = resources.files("char2kit.catalog").joinpath(f"{name}.lpoly").read_text()
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [LPolynomial(tuple(int(c) for c in line.split())) for line in lines if line]
