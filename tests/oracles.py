"""Independent brute-force oracles for the tests.

Everything here is deliberately naive: field arithmetic is shift-XOR
carryless multiplication with direct reduction (no log/antilog tables),
sums and counts are plain Python loops.  Only usable for small m, which is
the point: the fast library paths are checked against these.

The exception is the enumeration routes at the end, which read the
library's tables but visit every element where the library visits one per
Frobenius orbit or one spectrum: they reach the m where the loops cannot.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np
from hypothesis import settings

from char2kit.gf2m import Field, FieldError, get_field
from char2kit.verdict import Verdict
from char2kit.zeta import LPolynomial

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


def naive_cyclotomic_cosets(m: int) -> list[set[int]]:
    """The cyclotomic cosets {i 2^j mod 2^m - 1} that partition [0, 2^m - 1),
    each closed under doubling one element at a time."""
    order = (1 << m) - 1
    seen: set[int] = set()
    cosets = []
    for i in range(order):
        if i in seen:
            continue
        coset = set()
        while i not in coset:
            coset.add(i)
            i = 2 * i % order
        seen |= coset
        cosets.append(coset)
    return cosets


def rotation_filter_orbits(m: int, block: int = 1 << 20) -> tuple[np.ndarray, np.ndarray]:
    """(reps, sizes) by the rotation filter alone: reps as Field.orbits gives
    them, 0 and the odd i < 2^(m-1), block at a time, each kept iff
    i <= rot_j(i) for j = m-2 down to 2, with no zero-run test; the size of
    each, the least divisor d of m with rot_d(i) = i, tested on every rep,
    where Field._short_orbits lists only the sizes below m."""
    mask, half = (1 << m) - 1, 1 << (m - 1)

    def rot(i, j):
        return ((i << j) & mask) | (i >> (m - j))

    blocks = [np.zeros(1, dtype=np.uint32)]
    for lo in range(1, half, 2 * block):
        reps = np.arange(lo, min(lo + 2 * block, half), 2, dtype=np.uint32)  # uint32: the shift drops high bits
        for j in range(m - 2, 1, -1):
            reps = reps[reps <= rot(reps, j)]
        blocks.append(reps)
    reps = np.concatenate(blocks)
    sizes = np.full(len(reps), m, dtype=np.int64)
    for d in range(m - 1, 0, -1):  # descending, so the least period is written last
        if m % d == 0:
            sizes[rot(reps, d) == reps] = d
    return reps.astype(np.int64), sizes


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
    # Tr(c g^t) once per (c, t); the word of (a, b) is the XOR of two rows,
    # and one XOR-and-sum over the stacked rows weighs all 4^m words.
    rows1 = np.array([[F.trace(F.mul(b, g)) for g in g1] for b in range(F.size)], dtype=np.uint8)
    rows2 = np.array([[F.trace(F.mul(a, g)) for g in g2] for a in range(F.size)], dtype=np.uint8)
    weights, counts = np.unique((rows2[:, None] ^ rows1).sum(axis=-1), return_counts=True)
    return dict(zip(weights.tolist(), counts.tolist()))


def naive_evaluate(poly_monomials, F: NaiveField, x: int, y: int, z: int) -> int:
    """XOR of x^a y^b z^c over the monomials, one product at a time."""
    acc = 0
    for a, b, c in poly_monomials:
        acc ^= F.mul(F.mul(F.pow(x, a), F.pow(y, b)), F.pow(z, c))
    return acc


def naive_projective_count(poly_monomials, F: NaiveField) -> int:
    """Count projective zeros by enumerating all nonzero triples and dividing
    by the number of representatives per point (2^s - 1)."""
    hits = sum(1 for x in range(F.size) for y in range(F.size) for z in range(F.size)
               if (x, y, z) != (0, 0, 0) and naive_evaluate(poly_monomials, F, x, y, z) == 0)
    assert hits % F.order == 0
    return hits // F.order


def naive_singular_points(poly_monomials, F: NaiveField) -> list[tuple[int, int, int]]:
    """Points where the polynomial and its three formal partials vanish, listed
    as (x, y, 1) for x, then y; (x, 1, 0) for x; (1, 0, 0).

    The partial in a variable keeps the monomials of odd degree in it, that
    degree lowered by one; equal monomials cancel in the XOR of the evaluation.
    """
    polys = [list(poly_monomials)]
    for i in range(3):
        polys.append([t[:i] + (t[i] - 1,) + t[i + 1:] for t in poly_monomials if t[i] % 2])
    points = [(x, y, 1) for x in range(F.size) for y in range(F.size)]
    points += [(x, 1, 0) for x in range(F.size)] + [(1, 0, 0)]
    return [p for p in points if all(naive_evaluate(q, F, *p) == 0 for q in polys)]


def naive_power_sums(coeffs: list[int], s_max: int) -> list[float]:
    """Power sums of the reciprocal roots via numpy root extraction."""
    roots = np.roots(list(reversed(coeffs)))
    recip = 1.0 / roots
    return [complex(np.sum(recip**j)).real for j in range(1, s_max + 1)]


def root_modulus_check(L: LPolynomial, expected_sq: int = 2, tol: float = 1e-9) -> Verdict:
    """Numeric check that every reciprocal root has |omega|^2 = expected_sq:
    the reciprocal roots off that circle, against []."""
    recip = 1.0 / np.roots(list(reversed(L.coefficients)))
    return Verdict([w for w in recip if abs(abs(w) ** 2 - expected_sq) > tol * (1 + expected_sq)], [])


def catalog_lpoly_factors(name: str) -> list[LPolynomial]:
    """The individual factor polynomials of a catalog entry, unexpanded."""
    text = resources.files("char2kit.catalog").joinpath(f"{name}.lpoly").read_text()
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [LPolynomial(tuple(int(c) for c in line.split())) for line in lines if line]


# -- enumeration routes over the library's tables ------------------------------


def _exponents(e: int, order: int) -> np.ndarray:
    """e * i mod order for every i in [0, order), as int64 (the product reaches 2^48)."""
    i = np.arange(order, dtype=np.int64)
    if e % order != 1:  # e = 1 is the identity
        i *= e % order
        i %= order
    return i


def _enumerated_trace_zero_count(field: Field, a: int, b: int) -> int:
    """The number of i in [0, 2^m - 1) with Tr(alpha^(a i) + alpha^(b i)) = 0."""
    x = field.exp_table[_exponents(a, field.order)]
    x ^= field.exp_table[_exponents(b, field.order)]
    return int(np.count_nonzero(field.trace_table[x] == 0))


def _enumerated_k_prime_count(field: Field, k: int) -> int:
    """The trace-zero count of K'_m over every v = alpha^i, poles as trace one."""
    exp, order = field.exp_table, field.order
    log = field.log_table.astype(np.int64)  # uint16 sums wrap; log[0] is read only at a pole
    log_f = _exponents(1 << k, order)  # log q
    q = exp[log_f]
    den = q ^ exp
    log_f += log[q ^ 1]
    log_f -= ((1 << k) + 1) % order * log[den]
    log_f %= order
    return int(np.count_nonzero((field.trace_table[exp[log_f]] == 0) & (den != 0))) + 1


def enumerated_sums(m: int, k: int) -> dict[str, tuple[int, int, int]]:
    """(value, trace-zero count, domain size) of K, C, G^(k) and K' at (m, k),
    each by enumerating all 2^m - 1 exponents of GF(2^m)^*."""
    field = get_field(m)
    order = field.order
    counts = {"K": (_enumerated_trace_zero_count(field, 1, -1), order),
              "C": (_enumerated_trace_zero_count(field, (1 << k) + 1, 1) + 1, field.size),
              "G": (_enumerated_trace_zero_count(field, (1 << k) + 1, -1), order),
              "Kp": (_enumerated_k_prime_count(field, k), order)}
    return {name: (2 * n - size, n, size) for name, (n, size) in counts.items()}


def cross_correlation(m: int, d: int, tau: int) -> int:
    """C_d(tau) for a single shift, by enumeration of GF(2^m)^*."""
    field = get_field(m)
    A = field.trace_table[field.exp_table]
    order = field.order
    if math.gcd(d, order) != 1:
        raise FieldError(f"gcd(d={d}, 2^{m}-1) = {math.gcd(d, order)} != 1")
    if not 0 <= tau < order:
        raise FieldError(f"tau={tau} outside [0, 2^{m}-1)")
    j = np.arange(order, dtype=np.int64)
    bits = A[(tau + j) % order] ^ A[(d * j) % order]
    return int(order - 2 * np.count_nonzero(bits))


def pow_table(field: Field, e: int) -> np.ndarray:
    """v^e over every v in element order, int32, by scattering
    exp[e i mod 2^m - 1] to index exp[i]; e >= 0, and 0^e is 1 for e = 0 and
    0 otherwise (the empty product)."""
    if e < 0:
        raise FieldError("pow_table exponent must be >= 0")
    out = np.zeros(field.size, dtype=np.int32)
    if e == 0:
        out[:] = 1
        return out
    exp, order = field.exp_table, field.order
    idx = np.arange(order, dtype=np.int64)  # int64: idx * e reaches 2^48
    idx *= e % order
    idx %= order
    out[exp] = exp[idx]
    return out


def butterfly_transform(v) -> np.ndarray:
    """W(b) = sum over y of (-1)^popcount(b & y) v(y) for any integer vector v of
    length 2^m, by m butterfly passes that each stack a new int64 array."""
    w = np.asarray(v, dtype=np.int64)
    for i in range(len(w).bit_length() - 1):
        w = w.reshape(-1, 2, 1 << i)
        w = np.stack((w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]), axis=1)
    return w.reshape(-1)


def stacked_walsh_spectrum(field: Field, e: int) -> np.ndarray:
    """W(b) = sum over y of (-1)^(Tr(y^e) + b.y), e modulo 2^m - 1 and 0^e = 0,
    as the butterfly transform of (-1)^Tr(y^e) read off the element-indexed
    trace table."""
    e = e % field.order + field.order  # positive, so that pow_table gives 0^e = 0
    return butterfly_transform(1 - 2 * field.trace_table[pow_table(field, e)].astype(np.int64))


def sorted_pair_collision_a1(m: int, k: int) -> int:
    """A_1 by sorting all 2^(2m) ordered pair keys
    K = (x^(2^2k+1) + y^(2^2k+1), x^(2^k+1) + y^(2^k+1), x + y), packed into 3m
    bits with x + y lowest: (x, y, z, u) counts iff K(z, u) = K(x, y) xor 1, so
    A_1 = 2 sum over even K of n(K) n(K + 1), read off the runs of the sorted keys."""
    field = get_field(m)
    dtype = np.uint32 if 3 * m <= 32 else np.int64
    keys = np.zeros((field.size, field.size), dtype)
    P = np.zeros(field.size, dtype)  # v^e over v in element order; 0^e = 0
    for e in ((1 << (2 * k)) + 1, (1 << k) + 1, 1):
        P[1:] = field.exp_table[field.pow_log(e)]
        keys <<= m
        keys |= np.bitwise_xor.outer(P, P)
    keys = keys.ravel()
    keys.sort()
    edges = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    run_keys = keys[np.concatenate(([0], edges))]
    counts = np.diff(edges, prepend=0, append=len(keys))
    pair = (run_keys[1:] == run_keys[:-1] + 1) & (run_keys[:-1] % 2 == 0)
    return 2 * int(counts[:-1][pair] @ counts[1:][pair])


def row_loop_direct_weights(m: int, k: int) -> dict[int, int]:
    """Weight distribution of the words Tr(a g2^t + b g1^t), one unpacked row of
    a at a time against every row of b, each row read off the m-sequence, taken as
    the element-indexed trace table at each power of alpha."""
    field = get_field(m)
    order = field.order
    s = field.trace_table[field.exp_table]
    i = np.arange(order, dtype=np.int64)
    zero = np.zeros((1, order), dtype=np.uint8)
    bits_a, bits_b = (np.vstack((zero, s[np.add.outer(i, e * i % order) % order]))
                      for e in ((1 << (2 * k)) + 1, (1 << k) + 1))
    entries: dict[int, int] = {}
    for row in bits_a:
        for w in np.count_nonzero(row ^ bits_b, axis=1).tolist():
            entries[w] = entries.get(w, 0) + 1
    return dict(sorted(entries.items()))


def full_x_fast_count(P, s: int) -> int:
    """Projective zeros over F_{2^s} of a homogeneous P quadratic in y, by the
    trace criterion at every x of F_{2^s} in element order: each C_b and the
    line is one `pow_log` pass per monomial, and x = 0 takes the parity of
    the monomials with a = 0."""
    field = get_field(s)
    log, order = field.log_table.astype(np.int64), field.order  # log[c] + log_a - 2 log_b wraps in uint16

    def values(exponents):  # the sum of x^a over every x, in element order
        out = np.zeros(field.size, dtype=np.int32)
        for a in exponents:
            out[0] ^= a == 0
            out[1:] ^= field.exp_table[field.pow_log(a)]
        return out

    a, b, c = (values([a for a, j, _ in P.monomials if j == y]) for y in (2, 1, 0))
    n = field.size * np.count_nonzero((a == 0) & (b == 0) & (c == 0))
    n += np.count_nonzero((a == 0) != (b == 0))
    quad = (a != 0) & (b != 0)
    log_a, log_b, c = log[a[quad]], log[b[quad]], c[quad]
    tr_beta = field.trace_table[field.exp_table[(log[c] + log_a - 2 * log_b) % order]]  # Tr(c a / b^2); c = 0 has trace 0
    n += 2 * np.count_nonzero((c == 0) | (tr_beta == 0))
    line = values([a for a, _, z in P.monomials if z == 0])
    point = sum(b == z == 0 for _, b, z in P.monomials) % 2
    return int(n + np.count_nonzero(line == 0) + (point == 0))
