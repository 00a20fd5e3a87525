"""Exact arithmetic in GF(2^m) for 1 <= m <= 24.

Field elements are plain Python ints: bit i of the int is the coefficient
of x^i in the polynomial-basis representative.  A :class:`Field` object
carries the reduction polynomial and precomputed log/antilog and trace
tables (numpy arrays) for every m.  There is no scalar arithmetic: the
higher modules multiply and raise to powers by gathers from these tables
over whole vectors of elements or exponents.  The antilog table is built
from the Frobenius powers of the reduction polynomial.  The library
reads every trace of a power alpha^i by its exponent i, through
Field.trace, the parity of alpha^i & mask: at the orbit leaders and over
the whole period alike, so no m-sequence is kept.  The element-indexed
trace table is the independent route: no library module reads it, so it
is built on first read, from the trace mask alone.

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

MAX_M = 24  # the int32 exp and uint32 log tables take 128 MB at m = 24
LOG_BLOCK = 1 << 14  # exp entries per log-table scatter; half for fold and orbit_blocks
ORBIT_BLOCK = 1 << 13  # odd candidates per `orbits` block, before the zero-run test; m <= 15 takes one

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
        exp_table[i] = alpha^i for 0 <= i < 2^m - 1 (uint16 for m <= 16, int32 above)
        log_table[v] = i with alpha^i = v for v != 0, and at v = 0 the dtype's
            maximum, no exponent (uint16 for m <= 16, uint32 above)
        trace_table[v] = Tr(v) (uint8), built on first read: no library
            module reads it; the test oracles and traced benchmark runs do
        orbits = reps, built on first use: the least member (uint32) of each
            cyclotomic coset of exponents, so a caller multiplies a rep in
            int64; _short_orbits, the one record of coset sizes, indexes the
            cosets of fewer than m members, with m - size (int64)
        orbit_traces(e) = Tr(alpha^(e r)) over the reps r (uint8), built on
            first use for each residue e mod 2^m - 1

    trace(i) = Tr(alpha^i) (uint8) for an array i of reduced exponents, the
    parity of exp[i] & mask: how every library module reads a trace, with
    no 2^m-entry table.  fold(x) and orbit_total(v) are the library's one
    reduction of exponent arrays mod 2^m - 1 and its one weighting by coset
    size.

    log is scattered (through an intp index) in blocks of LOG_BLOCK entries,
    and trace_table is an outer XOR of two half-width parity tables, so no
    build step makes an int temporary of more than LOG_BLOCK entries.
    Construction holds 4 bytes an element through m = 16 and 8 above: exp
    and log, the only arrays of 2^m - 1 or more entries that a sum, count,
    spectrum or weight call leaves on the field.

    Past the tables built on first read (orbits, _short_orbits, orbit_blocks
    and trace_table, each a function of m and the reduction), the only
    state that changes after construction is two memos.  Behind
    orbit_traces: one vector of len(reps) ~ 2^m/m bytes per residue asked
    for.  The sums ask for 1, -1 and 2^k + 1, which has period m in k, so a
    field holds at most m + 2 of them.  And _sum_counts, where the sums of
    `expsums` keep each trace-zero count they compute: one int per exponent
    pair, at most 2m + 1 (K's, and C's and G's at each 2^k + 1), and one per
    K' residue 2^k mod 2^m - 1, at most m; the fast point counter's, one
    int per polynomial; the Walsh fibre column, (2^m - 1)/h bytes an h > 1.
    They die with the field (get_field.cache_clear()); each operation is pure.
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
        # generates its multiplicative group.  A residue they miss keeps log's
        # fill, the dtype's maximum, which is at least 2^m - 1: no exponent.
        self.exp_table = self._exp_by_frobenius()
        dtype = np.uint16 if m <= 16 else np.uint32
        self.log_table = np.full(self.size, np.iinfo(dtype).max, dtype=dtype)
        for i in range(0, self.order, LOG_BLOCK):
            block = self.exp_table[i:i + LOG_BLOCK].astype(np.intp)  # an int32 index scatters slower
            self.log_table[block] = np.arange(i, i + len(block), dtype=dtype)
            del block  # before the next block's
        if self.log_table[1:].max() >= self.order:  # a reduction: no 2^m-byte mask
            raise FieldError(f"0x{reduction:x} is not primitive: the powers of x "
                             "miss a nonzero residue")

        # Trace mask: trace(v) = parity(popcount(v & mask)), by linearity of
        # Tr over the basis 1, x, ..., x^(m-1).  Tr(x^i) is the sum of the
        # conjugates x^(i 2^j), j < m, read off the exp table.
        conj = np.outer(np.arange(m), 1 << np.arange(m, dtype=np.int64)) % self.order
        tr_basis = np.bitwise_xor.reduce(self.exp_table[conj], axis=1)
        self._trace_mask = sum(int(t) << i for i, t in enumerate(tr_basis))
        for table in (self.exp_table, self.log_table):
            table.flags.writeable = False
        self._orbit_traces: dict[int, np.ndarray] = {}
        self._sum_counts: dict[tuple, int | np.ndarray] = {}

    def _trace_by_parity(self) -> np.ndarray:
        """Tr(v) for 0 <= v < 2^m as uint8, from the trace mask alone: by
        linearity Tr(hi 2^h + lo) = Tr(hi 2^h) + Tr(lo), one XOR of two
        half-width parity tables.  It never reads trace or exp_table, so it
        stays an independent route to the trace."""
        m, mask, h = self.m, self._trace_mask, self.m // 2
        hi = np.bitwise_count(np.arange(1 << (m - h)) & (mask >> h)) & 1
        lo = np.bitwise_count(np.arange(1 << h) & mask) & 1
        table = np.bitwise_xor.outer(hi, lo).ravel()
        table.flags.writeable = False
        return table

    trace_table = cached_property(_trace_by_parity)

    def trace(self, i: np.ndarray) -> np.ndarray:
        """Tr(alpha^i) as uint8 for an int array i of exponents in [0, 2^m - 1),
        the parity of popcount(exp[i] & mask): one gather of exp and no
        2^m-entry table."""
        v = self.exp_table[i]
        v &= self._trace_mask
        t = np.bitwise_count(v)
        t &= 1
        return t

    @cached_property
    def orbits(self) -> np.ndarray:
        """The least member of each cyclotomic coset {i 2^j mod 2^m - 1} of
        [0, 2^m - 1), ascending, as uint32: 4 bytes a coset.

        i 2^j mod 2^m - 1 is the m-bit left rotation rot_j(i), so i is a least
        member iff i <= rot_j(i) for j = 1..m-1, which forces i < 2^(m-1).
        Below 2^(m-1), j = m-1 (the right rotation) keeps exactly 0 and the
        odd i, and j = 1 keeps every i (rot_1(i) = 2i), so the filter starts
        from 0 and the odd i, ORBIT_BLOCK of them at a time.

        Zero-run lemma: a least member i with exactly z leading zeros (of m
        bits) has no run of z + 1 zeros below its top bit, since the rotation
        that moves such a run to the top has more leading zeros, so it is
        less than i.  In bits: i | i >> 1 | ... | i >> z has every bit below
        2^(m-z) set.  The odd i in [2^(m-2), 2^(m-1)) (z = 1) and in
        [2^(m-3), 2^(m-2)) (z = 2), three quarters of them, pass this test
        first.  It also implies i <= rot_2(i): for z >= 2 rot_2(i) = 4i, and
        an i with z = 1 and no two adjacent zeros is at least 0101...01 in
        binary, so 3i >= 2^m - 1 and rot_2(i) = 4i - 2^m + 1 >= i.  So the
        rotation filter runs, j = m-2 down to 3, each j on the survivors of the
        previous one, on the survivors of the groups of a block, or of several
        blocks until ORBIT_BLOCK of them have gathered, and writes into the
        result, allocated at the number of cosets.
        """
        m, mask, half = self.m, self.order, 1 << (self.m - 1)

        def rot(i, j):
            r = i << j  # uint32: the shift drops high bits
            r &= mask
            r |= i >> (m - j)
            return r

        def candidates(lo, hi):  # the odd i in [lo, hi), all with the same z
            i = np.arange(lo | 1, hi, 2, dtype=np.uint32)
            z = m - (hi - 1).bit_length()
            if z > 2:
                return i
            run = i >> 1
            run |= i
            if z == 2:
                run |= run >> 1
            return i[run == (1 << (m - z)) - 1]

        # m-bit necklaces (Burnside) less the all-ones word, 2^m - 1 = 0.
        reps = np.zeros(sum(1 << math.gcd(j, m) for j in range(m)) // m - 1, dtype=np.uint32)
        n, pending = 1, []  # reps[0] = 0; the zero-run survivors not yet filtered
        for lo in range(0, half, 2 * ORBIT_BLOCK):
            hi = min(lo + 2 * ORBIT_BLOCK, half)
            cuts = [lo, *(c for c in (half >> 2, half >> 1) if lo < c < hi), hi]
            pending += [candidates(a, b) for a, b in zip(cuts, cuts[1:])]
            if sum(map(len, pending)) < ORBIT_BLOCK and hi < half:
                continue
            block, pending = np.concatenate(pending), []
            for j in range(m - 2, 2, -1):
                block = block[block <= rot(block, j)]
            reps[n:n + len(block)] = block
            n += len(block)
        reps.flags.writeable = False
        return reps

    @cached_property
    def _short_orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices into `orbits`, m - size) of the cosets of fewer than m
        members (381 of 699,251 at m = 24), the one record of coset sizes.  A
        coset's size is the least divisor d of m with rot_d(i) = i, i.e. with
        (2^m - 1) / (2^d - 1) dividing i: for each proper divisor d those
        2^d - 1 multiples are looked up in `orbits`, none as long as it."""
        reps, m, size = self.orbits, self.m, {}
        for d in (d for d in range(m - 1, 0, -1) if m % d == 0):  # the least period written last
            fixed = np.arange(0, self.order, self.order // ((1 << d) - 1), dtype=np.uint32)
            at = np.searchsorted(reps, fixed, side="right") - 1
            size.update(dict.fromkeys(at[reps[at] == fixed].tolist(), d))
        short = np.array(sorted(size), dtype=np.intp)
        deficit = np.array([m - size[i] for i in short.tolist()], dtype=np.int64)
        short.flags.writeable = deficit.flags.writeable = False
        return short, deficit

    @cached_property
    def orbit_blocks(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(lo, reps[lo:lo + LOG_BLOCK // 2]) cutting the least members of `orbits`
        into views, fold's block, for the passes over them; m <= 17 takes one."""
        reps, step = self.orbits, LOG_BLOCK // 2
        return tuple((lo, reps[lo:lo + step]) for lo in range(0, len(reps), step))

    def orbit_total(self, v: np.ndarray, lo: int = 0) -> int:
        """The sum of size * v over the cosets, for a vector v of small ints over
        the least members orbits[lo:lo + len(v)]: m sum(v) less (m - size) v
        over the short cosets, which are few, so no int64 vector as long as v is
        made.  A bool v is counted by count_nonzero, with no cast buffer."""
        short, deficit = self._short_orbits
        if len(v) < len(self.orbits):  # a block of them: its short cosets
            a, b = np.searchsorted(short, (lo, lo + len(v)))
            short, deficit = short[a:b] - lo, deficit[a:b]
        total = np.count_nonzero(v) if v.dtype == bool else v.sum()
        return self.m * int(total) - int(deficit @ v[short])

    def fold(self, x: np.ndarray) -> np.ndarray:
        """x mod 2^m - 1 in place, returned, for a contiguous int array x of any
        sign and shape, as x less (2^m - 1) floor(x / (2^m - 1)): numpy's floor
        division by one scalar takes about half the time of its %, and three
        steps where folding the 2^m-bit halves of x and making the result exact
        takes five.  LOG_BLOCK / 2 entries at a time, the one temporary's length."""
        flat = x if x.ndim == 1 else x.reshape(-1, copy=False)  # a view, or it raises
        for lo in range(0, len(flat), LOG_BLOCK // 2):
            block = flat[lo:lo + LOG_BLOCK // 2]
            q = block // self.order
            q *= self.order
            block -= q
            del q  # before the next block's
        return x

    def orbit_traces(self, e: int) -> np.ndarray:
        """Tr(alpha^(e r)) over the least members r of `orbits`, as uint8, for
        any int e.  Built on first use for each residue e mod 2^m - 1 and kept,
        read-only, so each later call with that residue is a dict lookup.
        r (e mod 2^m - 1) < 2^(2m-1) since r < 2^(m-1), so it folds, a block at a time."""
        e %= self.order
        t = self._orbit_traces.get(e)
        if t is None:
            t = np.empty(len(self.orbits), dtype=np.uint8)
            for lo, reps in self.orbit_blocks:
                t[lo:lo + len(reps)] = self.trace(self.fold(np.multiply(reps, e, dtype=np.int64)))
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
        slices for a trinomial, four for a pentanomial: the first copied in,
        so each page of the table is written once, and the others XORed in.
        With no term below x^m the table is zero past x^(m-1), and the log
        closure rejects f.
        """
        m, order, f = self.m, self.order, self.reduction
        exp = np.empty(order, dtype=np.uint16 if m <= 16 else np.int32)
        exp[:m] = 1 << np.arange(m)
        terms = [a for a in range(m) if f >> a & 1]
        if not terms:
            exp[m:] = 0
        n = m
        while terms and n < order:
            p = 1 << ((n // m).bit_length() - 1)
            block = exp[n:n + min((m - terms[-1]) * p, order - n)]
            lows = [n - (m - a) * p for a in terms]
            block[:] = exp[lows[0]:lows[0] + len(block)]
            for lo in lows[1:]:
                block ^= exp[lo:lo + len(block)]
            n += len(block)
        return exp

    def pow_log(self, e: int, start: int = 1, stop: int | None = None) -> np.ndarray:
        """e log v mod 2^m - 1 over v = start..stop - 1 in element order
        (1 <= start; stop defaults to 2^m), for any int e, as int64 (the
        product reaches 2^48), by fold: exp_table of it is v^e.  A caller that
        needs no 2^m-entry index asks for LOG_BLOCK elements at a time."""
        return self.fold(self.log_table[start:stop] * np.int64(e % self.order))

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
