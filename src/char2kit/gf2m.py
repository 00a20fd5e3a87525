"""Exact arithmetic in GF(2^m) for 1 <= m <= 24.

Field elements are plain Python ints: bit i of the int is the coefficient
of x^i in the polynomial-basis representative.  A :class:`Field` object
carries the reduction polynomial and, for m <= TABLE_LIMIT, precomputed
log/antilog and trace tables (numpy arrays) so that enumeration loops in
the higher modules can be vectorized.

The shipped reduction polynomials are primitive, i.e. the class of x is a
generator of the multiplicative group; construction re-validates both
irreducibility and primitivity rather than trusting the table.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "Field",
    "FieldError",
    "PRIMITIVE_POLY",
    "decimation_exponent",
    "get_field",
    "load_reduction_config",
]

MAX_M = 24
# Up to here mul/inv/trace go through log/antilog tables (<= 8 MiB for m=20);
# above, carryless shift-XOR multiplication with on-the-fly reduction.
TABLE_LIMIT = 20

# Primitive polynomials over GF(2), one per degree, from the standard
# published tables (Zierler-Brillhart style trinomials/pentanomials).
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
    14: 0b100010001000011,      # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,     # x^15 + x + 1
    16: 0b10001000000001011,    # x^16 + x^12 + x^3 + x + 1
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


def _clmul(a: int, b: int) -> int:
    """Carryless (GF(2)[x]) product of two polynomial bitmasks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _clmod(a: int, f: int) -> int:
    """Remainder of the bitmask a modulo the polynomial bitmask f."""
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _modmul(a: int, b: int, f: int) -> int:
    return _clmod(_clmul(a, b), f)


def _modsqr(a: int, f: int) -> int:
    # Squaring in GF(2)[x] just spreads the bits.
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << (2 * i)
        a >>= 1
        i += 1
    return _clmod(r, f)


def _modpow(a: int, e: int, f: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _modmul(r, a, f)
        a = _modmul(a, a, f)
        e >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _validate_reduction(m: int, reduction: int) -> None:
    if reduction.bit_length() != m + 1:
        raise FieldError(f"reduction polynomial 0x{reduction:x} does not have degree {m}")
    # Irreducible over GF(2): x^(2^m) == x mod f, and x^(2^(m/p)) != x for
    # every prime p dividing m.
    x = 0b10 if m > 1 else _clmod(0b10, reduction)

    def frob(v: int, j: int) -> int:
        for _ in range(j):
            v = _modsqr(v, reduction)
        return v

    if frob(x, m) != x:
        raise FieldError(f"0x{reduction:x} is not irreducible over GF(2)")
    for p in _prime_factors(m):
        if frob(x, m // p) == x:
            raise FieldError(f"0x{reduction:x} is not irreducible over GF(2)")
    # Primitive: the class of x has multiplicative order exactly 2^m - 1.
    order = (1 << m) - 1
    for p in _prime_factors(order):
        if _modpow(x, order // p, reduction) == 1:
            raise FieldError(
                f"0x{reduction:x} is irreducible but x is not a generator "
                f"(order divides {(order // p)})"
            )


class Field:
    """GF(2^m) in polynomial basis with a primitive class of x as generator.

    Immutable after construction (tables included); safe to share across
    workers.  All operations are pure.
    """

    def __init__(self, m: int, reduction: int | None = None, validate: bool = True):
        if not 1 <= m <= MAX_M:
            raise FieldError(f"extension degree m={m} outside supported range 1..{MAX_M}")
        if reduction is None:
            reduction = PRIMITIVE_POLY[m]
        if validate:
            _validate_reduction(m, reduction)
        self.m = m
        self.reduction = reduction
        self.size = 1 << m
        self.order = self.size - 1

        # Trace mask: trace(v) = parity(popcount(v & mask)), by linearity of
        # Tr over the basis 1, x, ..., x^(m-1).
        mask = 0
        for i in range(m):
            if self._trace_slow(1 << i):
                mask |= 1 << i
        self._trace_mask = mask

        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._trace_arr: np.ndarray | None = None
        if m <= TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _trace_slow(self, a: int) -> int:
        acc = a
        t = a
        for _ in range(self.m - 1):
            t = _modsqr(t, self.reduction)
            acc ^= t
        if acc not in (0, 1):
            raise FieldError(f"trace of {a:#x} landed outside GF(2); bad reduction?")
        return acc

    def _build_tables(self) -> None:
        exp = np.zeros(self.order, dtype=np.int64)
        log = np.full(self.size, -1, dtype=np.int64)
        red = self.reduction
        top = 1 << self.m
        v = 1
        for i in range(self.order):
            exp[i] = v
            log[v] = i
            v <<= 1
            if v & top:
                v ^= red
        if v != 1:
            raise FieldError("antilog table did not close; x is not primitive")
        self._exp = exp
        self._log = log
        tr = np.bitwise_count(np.arange(self.size, dtype=np.int64) & self._trace_mask) & 1
        self._trace_arr = tr.astype(np.uint8)

    # -- table access (numpy) ------------------------------------------------

    @property
    def has_tables(self) -> bool:
        return self._exp is not None

    @property
    def exp_table(self) -> np.ndarray:
        """exp_table[i] = alpha^i for 0 <= i < 2^m - 1."""
        if self._exp is None:
            raise FieldError(f"no log/antilog tables for m={self.m} > {TABLE_LIMIT}")
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
        if self._log is None:
            raise FieldError(f"no log/antilog tables for m={self.m} > {TABLE_LIMIT}")
        return self._log

    @property
    def trace_table(self) -> np.ndarray:
        if self._trace_arr is None:
            raise FieldError(f"no trace table for m={self.m} > {TABLE_LIMIT}")
        return self._trace_arr

    def pow_table(self, e: int) -> np.ndarray:
        """Vector of v^e over all v in the field (index = element).

        0^e is 0 for e > 0 and 1 for e == 0 (empty product convention).
        """
        if e < 0:
            raise FieldError("pow_table exponent must be >= 0")
        out = np.zeros(self.size, dtype=np.int64)
        if e == 0:
            out[:] = 1
            return out
        exp, order = self.exp_table, self.order
        idx = (np.arange(order, dtype=np.int64) * (e % order if self.m > 1 else e)) % order
        out[exp] = exp[idx]
        return out

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product of two arrays of elements."""
        exp, log, order = self.exp_table, self.log_table, self.order
        nz = (a != 0) & (b != 0)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        prod_idx = (log[a] + log[b]) % order
        out[nz] = exp[prod_idx[nz]]
        return out

    def vec_inv(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse; raises on any zero entry."""
        if np.any(a == 0):
            raise FieldError("vec_inv of array containing 0")
        exp, log, order = self.exp_table, self.log_table, self.order
        return exp[(order - log[a]) % order]

    # -- scalar operations ---------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise FieldError(f"{a} is not a canonical element of GF(2^{self.m})")
        return a

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % self.order])
        return _modmul(a, b, self.reduction)

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        """a^e with e >= 0; nonzero bases reduce e modulo 2^m - 1."""
        if e < 0:
            raise FieldError("negative exponent; use inv() explicitly")
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return int(self._exp[(int(self._log[a]) * e) % self.order])
        e %= self.order
        return _modpow(a, e, self.reduction)

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("0 has no multiplicative inverse")
        return self.pow(a, self.order - 1)

    def trace(self, a: int) -> int:
        self.check(a)
        return (a & self._trace_mask).bit_count() & 1

    def generator_power(self, t: int) -> int:
        """alpha^t for 0 <= t < 2^m - 1 (alpha = the class of x)."""
        if self.m == 1:
            if t != 0:
                raise FieldError("GF(2)^* is trivial; t must be 0")
            return 1
        if not 0 <= t < self.order:
            raise FieldError(f"t={t} outside [0, {self.order})")
        if self._exp is not None:
            return int(self._exp[t])
        return _modpow(0b10, t, self.reduction)

    def elements(self) -> range:
        return range(self.size)

    def nonzero(self) -> range:
        return range(1, self.size)

    def __repr__(self) -> str:
        return f"Field(m={self.m}, reduction=0x{self.reduction:x})"


def load_reduction_config(path: str) -> dict[int, int]:
    """Read a config file mapping m -> hexadecimal reduction bitmask.

    JSON object whose keys are decimal degrees and values hex strings,
    e.g. {"5": "0x25"}.
    """
    with open(path) as fh:
        raw = json.load(fh)
    return {int(k): int(v, 16) for k, v in raw.items()}


_OVERRIDES: dict[int, int] = {}


def set_reduction_overrides(overrides: dict[int, int]) -> None:
    """Install reduction-polynomial overrides used by subsequent get_field calls."""
    _OVERRIDES.clear()
    _OVERRIDES.update(overrides)
    get_field.cache_clear()


@lru_cache(maxsize=None)
def get_field(m: int) -> Field:
    """Shared, validated Field instance for degree m (tables built once)."""
    return Field(m, _OVERRIDES.get(m))


def decimation_exponent(m: int, k: int) -> int:
    """The decimation d = (2^(2k)+1) / (2^k+1) as a residue modulo 2^m - 1.

    The fraction means multiplication by the modular inverse of 2^k + 1.
    Requires gcd(2^k + 1, 2^m - 1) = 1; then gcd(d, 2^m - 1) = 1, so the second
    raise is unreachable: gcd(2^a + 1, 2^m - 1) > 1 iff the 2-adic valuation
    of m exceeds that of a, and if it exceeds that of 2k it exceeds that of k.
    """
    n = (1 << m) - 1
    den = (1 << k) + 1
    g = math.gcd(den, n)
    if g != 1:
        raise FieldError(f"2^{k}+1 = {den} is not invertible modulo 2^{m}-1 (gcd {g})")
    d = ((1 << (2 * k)) + 1) * pow(den, -1, n) % n
    if math.gcd(d, n) != 1:
        raise FieldError(f"d = {d} is not invertible modulo 2^{m}-1")
    return d
