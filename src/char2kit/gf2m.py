"""Exact arithmetic in GF(2^m) for 1 <= m <= 24.

Field elements are plain Python ints: bit i of the int is the coefficient
of x^i in the polynomial-basis representative.  A :class:`Field` object
carries the reduction polynomial and precomputed log/antilog and trace
tables (numpy arrays) for every m.  There is no scalar arithmetic: the
higher modules multiply and raise to powers by gathers from these tables
over whole vectors of elements or exponents.  The antilog table is built
from the Frobenius powers of the reduction polynomial.  The library
reads every trace of a power alpha^i off the m-sequence Tr(alpha^i), by
exponent.  The element-indexed trace table is the independent route: no
library module reads it, so it is built on first read, from the trace
mask alone.

The shipped reduction polynomials are primitive, i.e. the class of x is a
generator of the multiplicative group.  Construction does not trust the
table: the antilog table closing is the primitivity check, so a degree-m
polynomial is accepted exactly when x^0, ..., x^(2^m - 2) cover every
nonzero residue.  Every quantity computed from the trace and power maps is
the same for any primitive reduction, so there is one field per m.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Field",
    "FieldError",
    "PRIMITIVE_POLY",
    "decimation_exponent",
    "get_field",
    "group_order",
]

MAX_M = 24  # the int32 exp and log tables take 128 MB at m = 24
LOG_BLOCK = 1 << 14  # exp entries per log-table scatter and trace_seq popcount pass
ORBIT_BLOCK = 1 << 20  # odd candidates per `orbits` filter pass; m <= 22 takes one

# One trinomial or pentanomial per degree.  The lower its second term, the
# more entries one block of `_exp_by_frobenius` writes.  The constructor's
# log closure checks that each of them is primitive.
PRIMITIVE_POLY: dict[int, int] = {
    1: 0b11,                    # x + 1
    2: 0b111,                   # x^2 + x + 1
    3: 0b1011,                  # x^3 + x + 1
    4: 0b10011,                 # x^4 + x + 1
    5: 0b100101,                # x^5 + x^2 + 1
    6: 0b1000011,               # x^6 + x + 1
    7: 0b10001001,              # x^7 + x^3 + 1
    8: 0b100011101,             # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,            # x^9 + x^4 + 1
    10: 0b10000001001,          # x^10 + x^3 + 1
    11: 0b100000000101,         # x^11 + x^2 + 1
    12: 0b1000001010011,        # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,       # x^13 + x^4 + x^3 + x + 1
    14: 0b100000000101011,      # x^14 + x^5 + x^3 + x + 1
    15: 0b1000000000000011,     # x^15 + x + 1
    16: 0b10000000000101101,    # x^16 + x^5 + x^3 + x^2 + 1
    17: 0b100000000000001001,   # x^17 + x^3 + 1
    18: 0b1000000000010000001,  # x^18 + x^7 + 1
    19: 0b10000000000000100111,     # x^19 + x^5 + x^2 + x + 1
    20: 0b100000000000000001001,    # x^20 + x^3 + 1
    21: 0b1000000000000000000101,   # x^21 + x^2 + 1
    22: 0b10000000000000000000011,  # x^22 + x + 1
    23: 0b100000000000000000100001,     # x^23 + x^5 + 1
    24: 0b1000000000000000010000111,    # x^24 + x^7 + x^2 + x + 1
}


class FieldError(ValueError):
    """Bad field parameters or an operation outside its domain."""


class Field:
    """GF(2^m) in polynomial basis with a primitive class of x as generator.

    Tables (numpy arrays, all read-only: a write raises ValueError):
        exp_table[i] = alpha^i for 0 <= i < 2^m - 1 (int32)
        log_table[v] = i with alpha^i = v for v != 0, and -1 at v = 0 (int32)
        trace_seq[i] = Tr(alpha^i) for 0 <= i < 2^m - 1, the m-sequence (uint8)
        trace_table[v] = Tr(v) (uint8), built on first read: no library
            module reads it; the test oracles and traced benchmark runs do
        orbits = (reps, sizes), built on first use: the least member and the
            size of each cyclotomic coset of exponents (int64)
        orbit_traces(e) = Tr(alpha^(e r)) over the reps r (uint8), built on
            first use for each residue e mod 2^m - 1

    log is scattered (through an intp index) and trace_seq counted in blocks
    of LOG_BLOCK entries, and trace_table is an outer XOR of two half-width
    parity tables, so no build step makes an int temporary of more than
    LOG_BLOCK entries.  Construction holds 9 bytes an element: exp, log and
    trace_seq.

    Past the two tables built on first read (orbits and trace_table, each
    a function of m and the reduction), the only state that changes after
    construction is two memos.  Behind
    orbit_traces: one vector of len(reps) ~ 2^m/m bytes per residue asked
    for.  The sums ask for 1, -1 and 2^k + 1, which has period m in k, so a
    field holds at most m + 2 of them.  And _sum_counts, where the sums of
    `expsums` keep each trace-zero count they compute: one int per exponent
    pair, at most 2m + 1 (K's, and C's and G's at each 2^k + 1), and one per
    K' residue 2^k mod 2^m - 1, at most m.  The memos live and die with the
    field, so get_field.cache_clear() drops them too.  Every operation is pure.
    """

    has_tables = True  # every field has its tables; kept for callers that ask

    def __init__(self, m: int, reduction: int | None = None):
        order = group_order(m)
        if reduction is None:
            reduction = PRIMITIVE_POLY[m]
        # Degree m keeps every residue below 2^m, inside the log table.
        if reduction.bit_length() != m + 1:
            raise FieldError(f"reduction polynomial 0x{reduction:x} does not have degree {m}")
        self.m = m
        self.reduction = reduction
        self.size = 1 << m
        self.order = order

        # The primitivity check: if x^0, ..., x^(2^m - 2) cover every nonzero
        # residue, each of them is a unit, so GF(2)[x]/(f) is a field and x
        # generates its multiplicative group.
        self.exp_table = self._exp_by_frobenius()
        self.log_table = np.full(self.size, -1, dtype=np.int32)
        for i in range(0, self.order, LOG_BLOCK):
            block = self.exp_table[i:i + LOG_BLOCK].astype(np.intp)  # an int32 index scatters slower
            self.log_table[block] = np.arange(i, i + len(block), dtype=np.int32)
        if np.any(self.log_table[1:] < 0):
            raise FieldError(f"0x{reduction:x} is not primitive: the powers of x "
                             "miss a nonzero residue")

        # Trace mask: trace(v) = parity(popcount(v & mask)), by linearity of
        # Tr over the basis 1, x, ..., x^(m-1).  Tr(x^i) is the sum of the
        # conjugates x^(i 2^j), j < m, read off the exp table.
        conj = np.outer(np.arange(m), 1 << np.arange(m, dtype=np.int64)) % self.order
        tr_basis = np.bitwise_xor.reduce(self.exp_table[conj], axis=1)
        self._trace_mask = mask = sum(int(t) << i for i, t in enumerate(tr_basis))
        # Tr(alpha^i) = parity(popcount(exp[i] & mask)), popcounts written as uint8.
        self.trace_seq = np.empty(self.order, dtype=np.uint8)
        for i in range(0, self.order, LOG_BLOCK):
            np.bitwise_count(self.exp_table[i:i + LOG_BLOCK] & mask, out=self.trace_seq[i:i + LOG_BLOCK])
        self.trace_seq &= 1
        for table in (self.exp_table, self.log_table, self.trace_seq):
            table.flags.writeable = False
        self._orbit_traces: dict[int, np.ndarray] = {}
        self._sum_counts: dict[tuple, int] = {}

    def _trace_by_parity(self) -> np.ndarray:
        """Tr(v) for 0 <= v < 2^m as uint8, from the trace mask alone: by
        linearity Tr(hi 2^h + lo) = Tr(hi 2^h) + Tr(lo), one XOR of two
        half-width parity tables.  It never reads trace_seq or exp_table, so
        it stays an independent route to the trace."""
        m, mask, h = self.m, self._trace_mask, self.m // 2
        hi = np.bitwise_count(np.arange(1 << (m - h)) & (mask >> h)) & 1
        lo = np.bitwise_count(np.arange(1 << h) & mask) & 1
        table = np.bitwise_xor.outer(hi, lo).ravel()
        table.flags.writeable = False
        return table

    trace_table = cached_property(_trace_by_parity)

    @cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """(reps, sizes): the least member of each cyclotomic coset
        {i 2^j mod 2^m - 1} of [0, 2^m - 1), ascending, and the coset's size.

        i 2^j mod 2^m - 1 is the m-bit left rotation rot_j(i), so i is a least
        member iff i <= rot_j(i) for j = 1..m-1, which forces i < 2^(m-1); the
        filter runs on the survivors of the previous j.  Below 2^(m-1), j = m-1
        (the right rotation) keeps exactly 0 and the odd i, and j = 1 keeps
        every i (rot_1(i) = 2i), so the filter starts from 0 and the odd i,
        ORBIT_BLOCK odd i at a time, and runs j = m-2 down to 2.
        The size is the least divisor d of m with rot_d(i) = i.  Built on first
        use, as int64 so that exponent products such as (2^k + 1) i stay exact.
        """
        m, mask, half = self.m, self.order, 1 << (self.m - 1)

        def rot(i, j):
            return ((i << j) & mask) | (i >> (m - j))

        blocks = [np.zeros(1, dtype=np.uint32)]
        for lo in range(1, half, 2 * ORBIT_BLOCK):
            reps = np.arange(lo, min(lo + 2 * ORBIT_BLOCK, half), 2, dtype=np.uint32)  # uint32: the shift drops high bits
            for j in range(m - 2, 1, -1):
                reps = reps[reps <= rot(reps, j)]
            blocks.append(reps)
        reps = np.concatenate(blocks)
        sizes = np.full(len(reps), m, dtype=np.int64)
        for d in range(m - 1, 0, -1):  # descending, so the least period is written last
            if m % d == 0:
                sizes[rot(reps, d) == reps] = d
        reps = reps.astype(np.int64)
        reps.flags.writeable = sizes.flags.writeable = False
        return reps, sizes

    def orbit_traces(self, e: int) -> np.ndarray:
        """Tr(alpha^(e r)) over the least members r of `orbits`, as uint8, for
        any int e.  Built on first use for each residue e mod 2^m - 1 and kept,
        read-only, so each later call with that residue is a dict lookup.

        x = r (e mod 2^m - 1) < 2^(2m-1) since r < 2^(m-1), and x = 2^m hi + lo
        is hi + lo < 2 (2^m - 1) modulo 2^m - 1, which the wrapping gather reduces.
        """
        e %= self.order
        t = self._orbit_traces.get(e)
        if t is None:
            x = self.orbits[0] * e
            x = (x & self.order) + (x >> self.m)
            t = self.trace_seq.take(x, mode="wrap")
            t.flags.writeable = False
            self._orbit_traces[e] = t
        return t

    def _exp_by_frobenius(self) -> np.ndarray:
        """alpha^i for 0 <= i < 2^m - 1, from the Frobenius powers of f.

        exp[i] = x^i for i < m.  With f = x^m + sum of x^a over the terms a < m,
        f(x)^(2^j) = f(x^(2^j)) gives x^(m 2^j) = sum of x^(a 2^j), so for
        T >= m 2^j, exp[T] is the XOR of exp[T - (m - a) 2^j] over those a.  With
        2^j the largest power of two at most n / m, a block of
        (m - a_max) 2^j entries past the first n reads only built entries, so
        it is the XOR of one contiguous slice per term, written in place: two
        slices for a trinomial, four for a pentanomial.  With no term below
        x^m the table stays zero past x^(m-1), and the log closure rejects f.
        """
        m, order, f = self.m, self.order, self.reduction
        exp = np.zeros(order, dtype=np.int32)
        exp[:m] = 1 << np.arange(m)
        terms = [a for a in range(m) if f >> a & 1]
        n = m
        while terms and n < order:
            p = 1 << ((n // m).bit_length() - 1)
            block = exp[n:n + min((m - terms[-1]) * p, order - n)]
            for a in terms:
                lo = n - (m - a) * p
                block ^= exp[lo:lo + len(block)]
            n += len(block)
        return exp

    def pow_log(self, e: int, start: int = 1, stop: int | None = None) -> np.ndarray:
        """e log v mod 2^m - 1 over v = start..stop - 1 in element order
        (1 <= start; stop defaults to 2^m), for any int e, as int64 (the
        product reaches 2^48): exp_table of it is v^e.  A caller that needs
        no 2^m-entry index asks for LOG_BLOCK elements at a time."""
        idx = self.log_table[start:stop].astype(np.int64)
        idx *= e % self.order
        idx %= self.order
        return idx

    def __repr__(self) -> str:
        return f"Field(m={self.m}, reduction=0x{self.reduction:x})"


def group_order(m: int) -> int:
    """2^m - 1, the order of the unit group, for an m that Field accepts; Field's error otherwise."""
    if not 1 <= m <= MAX_M:
        raise FieldError(f"extension degree m={m} outside supported range 1..{MAX_M}")
    return (1 << m) - 1


@lru_cache(maxsize=None)
def get_field(m: int) -> Field:
    """Shared Field instance for degree m with the shipped polynomial (tables built once)."""
    return Field(m)


def decimation_exponent(m: int, k: int) -> int:
    """The decimation d = (2^(2k)+1) / (2^k+1) as a residue modulo 2^m - 1.

    The fraction means multiplication by the modular inverse of 2^k + 1.
    Requires gcd(2^k + 1, 2^m - 1) = 1, and then d is a unit too, so no check
    follows: gcd(2^a + 1, 2^m - 1) > 1 iff the 2-adic valuation of m exceeds
    that of a, and if it exceeds that of 2k it exceeds that of k.
    """
    n = (1 << m) - 1
    den = (1 << k) + 1
    g = math.gcd(den, n)
    if g != 1:
        raise FieldError(f"2^{k}+1 = {den} is not invertible modulo 2^{m}-1 (gcd {g})")
    return ((1 << (2 * k)) + 1) * pow(den, -1, n) % n
