"""Cross-correlation of decimated m-sequences and related counts.

The sequence is s_t = Tr(alpha^t); the cross-correlation with its
d-decimation at shift tau is C_d(tau) = sum over x != 0 of
(-1)^Tr(alpha^tau x + x^d).  The decimations of interest are
d = (2^(2k)+1)/(2^k+1) modulo 2^m - 1.

The correlation spectrum and the code weights (one per class of b) are Walsh
spectra of fibre sums, computed by a fast Walsh-Hadamard transform.

Also here: the count A_1 of ordered quadruples (x, y, z, u) with
x+y+z+u = 1 and vanishing (2^k+1)- and (2^(2k)+1)-power sums, by the
derivative count of y^d, and its exponential-sum formula; the five-value
multiplicity formulas; and the weight distribution of the two-nonzero
cyclic codes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expsums
from .expsums import theorem1_applies
from .gf2m import LOG_BLOCK, Field, FieldError, decimation_exponent, get_field, group_order

__all__ = [
    "A1Report",
    "CorrelationDistribution",
    "WeightDistribution",
    "a1_bruteforce",
    "a1_formula",
    "correlation_distribution",
    "derivative_counts",
    "match_multiplicities",
    "one_sixth_slack",
    "theorem1_multiplicities",
    "walsh_spectrum",
    "walsh_transform",
    "weight_distribution",
]

@dataclass(frozen=True)
class CorrelationDistribution:
    m: int
    d: int
    entries: dict[int, int]


@dataclass(frozen=True)
class WeightDistribution:
    m: int
    k: int
    entries: dict[int, int]


@dataclass(frozen=True)
class A1Report:
    m: int
    k: int
    formula_value: int
    brute_count: int | None = None


def walsh_spectrum(field: Field, e1: int, e2: int = 1, c: int | None = 0) -> np.ndarray:
    """W(a) = sum over z of F(z) (-1)^(a.z), a.z the parity of a & z, of the fibre sums
    F(z) = sum over x^e2 = z of (-1)^Tr(b x^e1), b = alpha^c (b = 0 if c is None), 0^e = 0:
    as a -> (z -> a.z) runs over all linear forms, {W(a)} = {sum of (-1)^Tr(a x^e2 + b x^e1)}.

    Let h = gcd(e2, 2^m - 1), n = (2^m - 1)/h and e = e1 e', e' (e2/h) = 1 mod n.  At h = 1
    and b != 0, F(z) = (-1)^Tr(alpha^(c + e log z)): one Field.trace gather a block of z in
    element order.  Otherwise e1 must be prime to h, as 2^k + 1 is to 2^(2k) + 1: the fibre
    of alpha^(h s) is alpha^(s e' + t n), t < h, so F there is h less twice the sum of column
    (c + s e) mod n of the m-sequence as an (h, n) array (F = h at b = 0).  The h rows, each
    read contiguously through Field.trace, are summed into one column vector once a field
    (Field.kept, under h, as it does not depend on c), which a block of s reads at one gather.
    One float32 buffer takes (h - F)/2, the fibre members with Tr(b x^e1) = 1, LOG_BLOCK
    entries at a time (half that at h = 1, as fold adds a quotient to the int64 exponents);
    it becomes F in place, and walsh_transform turns that into W in place, exactly: every
    partial sum is within sum |F| = 2^m.
    """
    order = field.order
    h = math.gcd(e2, order)
    n = order // h
    e = e1 * pow(e2 // h, -1, n) % order
    if math.gcd(e1, h) > 1:
        raise FieldError(f"e1={e1} is not prime to gcd(e2={e2}, 2^{field.m}-1) = {h}")
    w = np.empty(field.size, dtype=np.float32)  # (h - F)/2
    w[0] = (h - 1) / 2  # F(0) = (-1)^Tr(0)
    if h == 1 and c is not None:
        step = max(LOG_BLOCK // 2, 1)
        for lo in range(1, field.size, step):
            x = field.log_table[lo:lo + step] * np.int64(e)
            x += c
            w[lo:lo + step] = field.trace(field.fold(x))
            del x  # before the next block's
    else:
        w[1:] = h / 2  # F = 0 off the h-th powers

        def column():
            col = np.zeros(n, dtype=np.min_scalar_type(h))
            for row in range(0, order, n):
                for lo in range(0, n, LOG_BLOCK):
                    col[lo:lo + LOG_BLOCK] += field.trace(np.arange(row + lo, row + min(lo + LOG_BLOCK, n)))
            return col

        col = None if c is None else field.kept(("column", h), column)
        for lo in range(0, n, LOG_BLOCK):
            x = np.arange(lo, min(lo + LOG_BLOCK, n), dtype=np.int64)
            x *= e
            x += c or 0
            x %= n  # the column whose h entries are the fibre's traces
            odd = 0 if c is None else col[x]
            x[:] = field.exp_table[h * lo:h * (lo + LOG_BLOCK):h]  # z = alpha^(h s), as an index
            w[x] = odd
            del x, odd  # before the next block's
    w *= -2
    w += h
    return walsh_transform(w)


# H[i, j] = (-1)^popcount(i & j), i, j < 16; H[:2^r, :2^r] is the order-2^r block.
_SYLVESTER = np.bitwise_count(np.bitwise_and.outer(np.arange(16), np.arange(16))) & 1
_SYLVESTER = 1 - 2 * _SYLVESTER.astype(np.float32)
_SYLVESTER.flags.writeable = False


def walsh_transform(w: np.ndarray) -> np.ndarray:
    """W(b) = sum over y of (-1)^popcount(b & y) w(y), for a float32 w of 2^m
    integers, in place: the result is w's own memory viewed as int32.

    It is exact while every partial sum is an integer of magnitude <= 2^24,
    as for any vector of +-1 at m <= 24.  Good's factorization of the Hadamard
    matrix gives stages that each contract r <= 4 index bits with the
    Sylvester block H[:2^r, :2^r], as GEMMs into one spare buffer of
    max(2^span, 16) entries, 2^span the largest power of two <= LOG_BLOCK.
    Every GEMM has M N K <= 2^18, which keeps OpenBLAS on the calling thread;
    its threads gained no time here.

    The `low` low bits come first, one chunk of 2^span contiguous entries at a
    time: a stage views each 2^low-entry piece as (2^r, 2^(low-r)), transposed,
    times H, which contracts the leading r bits and moves them to the end, so
    after the last stage the bits are back in order.  The stages alternate
    between the chunk and the spare buffer.  Past m = span, the high m - low bits
    (a multiple of 4, so that no more than ceil(m/4) stages run) are
    contracted in place, r at a time: H times a column block of the 2^r rows
    that differ only in bits p..p+r-1, into the spare buffer and back, the last
    stage writing int32.  Below that, one in-place cast ends the transform.
    """
    m = len(w).bit_length() - 1
    span = min(m, LOG_BLOCK.bit_length() - 1)
    low = max(0, m - 4 * -(-(m - span) // 4))  # -(-x // 4) = ceil(x / 4)
    spare = np.empty(max(1 << span, 16), dtype=np.float32)
    out = w.view(np.int32)
    for lo in range(0, len(w), 1 << span):
        chunk = src = w[lo:lo + (1 << span)]
        dst = spare[:len(chunk)]
        for done in range(0, low, 4):
            r = min(4, low - done)
            np.matmul(src.reshape(-1, 1 << r, 1 << (low - r)).transpose(0, 2, 1),
                      _SYLVESTER[:1 << r, :1 << r], out=dst.reshape(-1, 1 << (low - r), 1 << r))
            src, dst = dst, src
        if src is not chunk:
            chunk[:] = src
    if low == m:
        np.copyto(out, w, casting="unsafe")  # element by element, in place
        return out
    for p in range(low, m, 4):
        r = min(4, m - p)
        rows = w.reshape(-1, 1 << r, 1 << p)
        dest = rows if p + r < m else out.reshape(rows.shape)
        width = len(spare) >> r
        for a in range(len(rows)):
            for c in range(0, 1 << p, width):
                block = rows[a, :, c:c + width]
                product = spare[:block.size].reshape(block.shape)
                np.matmul(_SYLVESTER[:1 << r, :1 << r], block, out=product)
                np.copyto(dest[a, :, c:c + width], product, casting="unsafe")
    return out


def correlation_distribution(m: int, d: int) -> CorrelationDistribution:
    """Multiplicity map of C_d(tau) over all shifts tau in [0, 2^m - 1).

    C_d(tau) + 1 is the sum over all y of (-1)^Tr(alpha^tau y + y^d), so the
    values are W(b) - 1 over the nonzero b of walsh_spectrum(field, d).
    """
    order = group_order(m)
    if math.gcd(d, order) != 1:
        raise FieldError(f"gcd(d={d}, 2^{m}-1) = {math.gcd(d, order)} != 1")
    runs = _runs(walsh_spectrum(get_field(m), d)[1:])
    return CorrelationDistribution(m, d, {v - 1: n for values, lengths in runs
                                          for v, n in zip(values.tolist(), lengths.tolist())})


def _runs(values: np.ndarray):
    """Sort a nonempty 1-d array in place and yield its runs, ascending, as
    (values, lengths), one window of LOG_BLOCK neighbour pairs at a time: the
    pieces of np.unique(values, return_counts=True), which copies its input
    twice.  A run is yielded in the window where it ends, and the lengths are
    written over that window's edge index, so nothing as long as the array is made.
    """
    values.sort()
    start = 0  # where the run that is still open began
    for lo in range(0, len(values), LOG_BLOCK):
        window = values[lo:lo + LOG_BLOCK + 1]
        # True at 0, where a run begins, and, in the last window, past the end
        edges = np.ones(len(window) + (len(window) <= LOG_BLOCK), dtype=bool)
        np.not_equal(window[1:], window[:-1], out=edges[1:len(window)])
        edges = np.flatnonzero(edges)
        run_values = window[edges[:-1]]
        edges[0] = start - lo
        start = lo + int(edges[-1])
        np.subtract(edges[1:], edges[:-1], out=edges[:-1])  # reads ahead of its output: no copy
        yield run_values, edges[:-1]


def derivative_counts(m: int, d: int) -> tuple[int, int]:
    """(delta(1), sum over t of delta(t)^2), delta(t) = #{y : y^d + (y+1)^d = t}
    in GF(2^m), d a unit modulo 2^m - 1.  W = walsh_spectrum(field, d) has
    sum W^3 = 2^(2m) delta(1) and sum W^4 = 2^(2m) sum delta^2 (Chabaud-Vaudenay).

    y and y xor 1 give the same t, so delta(t) is twice the count of t among
    the 2^(m-1) differences y^d xor (y+1)^d at even y, built LOG_BLOCK
    elements at a time into one uint32 array, whose squared run lengths _runs
    gives, so no other temporary exceeds LOG_BLOCK entries.
    """
    order = group_order(m)
    if math.gcd(d, order) != 1:
        raise FieldError(f"gcd(d={d}, 2^{m}-1) = {math.gcd(d, order)} != 1")
    field, e = get_field(m), np.int64(d % order)  # e log v reaches 2^48
    D = np.empty(field.size // 2, dtype=np.uint32)
    D[0] = 1  # y = 0, 1: 0^d + 1^d = 1
    for lo in range(0, field.size, LOG_BLOCK):
        P = field.exp_table[field.fold(field.log_table[max(lo, 2):lo + LOG_BLOCK] * e)]  # v^d
        np.bitwise_xor(P[0::2], P[1::2], out=D[max(lo, 2) // 2:(lo + LOG_BLOCK) // 2], casting="unsafe")
    squares = sum(int(lengths @ lengths) for _, lengths in _runs(D))  # sorts D
    return 2 * int(np.searchsorted(D, np.uint32(2)) - np.searchsorted(D, np.uint32(1))), 4 * squares


def a1_bruteforce(m: int, k: int) -> int:
    """A_1, the number of ordered quadruples (x, y, z, u) in GF(2^m)^4 with
    x + y + z + u = 1 and zero sums of their (2^k+1)-th and (2^(2k)+1)-th
    powers.  For odd m and gcd(k, m) = 1, where x^(2^k+1) is an APN
    permutation (Nyberg), A_1 = sum of delta(t)^2 - 2^(m+1), delta from
    derivative_counts at d = decimation_exponent(m, k).  Other (m, k) are
    refused before the field is built.
    """
    if not theorem1_applies(m, k):
        raise FieldError(f"A_1 requires odd m and gcd(k, m) = 1, not m={m}, k={k}")
    return derivative_counts(m, decimation_exponent(m, k))[1] - (1 << (m + 1))


def a1_formula(m: int, k: int, brute: bool = False) -> A1Report:
    """A_1 = 2^m + 1 + 3 G_m^(k) - 2 K'_m - 2 C_m (for k = 1, K'_m is K_m), C_m read
    in closed form (C3 checks it against the orbit sum c_sum).

    brute=True also fills the derivative count of a1_bruteforce.
    """
    if not theorem1_applies(m, k):
        raise FieldError(f"A_1 requires odd m and gcd(k, m) = 1, not m={m}, k={k}")
    g = expsums.g_sum(m, k).value
    kp = expsums.kloosterman(m).value if k == 1 else expsums.k_prime(m, k).value
    value = (1 << m) + 1 + 3 * g - 2 * kp - 2 * expsums.c_sum_closed_form(m, k)
    return A1Report(m, k, value, a1_bruteforce(m, k) if brute else None)


def theorem1_multiplicities(m: int, A1: int) -> dict[str, int | Fraction]:
    """Multiplicities (N0, N1, N-1, N2, N-2) of the five correlation values.

    Case 3 coprime to m:
        N2 = N-2 = A1/96,
        N+-1 = (3*2^(m+1) +- 3*2^((m+3)/2) - A1) / 24,
        N0 = 2^(m-1) - 1 + A1/16.
    Case 3 | m:
        N+-2 = (+-3*2^((m+5)/2) + A1) / 96,  N1 = N-1 = (3*2^(m+1) - A1)/24,
        same N0.
    Each value is the exact quotient, an int or else a Fraction, which equals
    no count ("571/2" in --json); a negative value is returned as it is.
    """
    if m % 2 == 0:
        raise FieldError("the five-value distribution requires odd m")
    vals: dict[str, int | Fraction] = {}

    def put(name: str, num: int, den: int) -> None:
        q, r = divmod(num, den)
        vals[name] = Fraction(num, den) if r else q

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
    put("N0", 16 * (2 ** (m - 1) - 1) + A1, 16)
    return vals


def one_sixth_slack(m: int) -> int:
    """N0 - 6*N2 under theorem 1 for odd m; A1 cancels.

    It is >= 0, which is the paper's bound N2 <= N0/6, and 0 only at m = 1, 3.
    """
    return 2 ** (m - 1) - 1 - (3 * 2 ** ((m - 3) // 2) if m % 3 == 0 else 0)


def match_multiplicities(dist: CorrelationDistribution) -> dict[str, int]:
    """Bucket an observed distribution into (N0, N+-1, N+-2) by |value + 1|.

    Value -1 goes to N0, |value + 1| = 2^((m+1)/2) to N+-1 and
    |value + 1| = 2^((m+3)/2) to N+-2, the sign of value + 1 picking the +-
    side.  Absent values count 0.  Any other value v is filed under its own
    key "C_d=v", after the five, so a comparison with the theorem-1 keys fails.
    """
    out = {"N0": 0, "N1": 0, "N-1": 0, "N2": 0, "N-2": 0}
    tiers = {0: 0, 1 << ((dist.m + 1) // 2): 1, 1 << ((dist.m + 3) // 2): 2}
    for v, n in dist.entries.items():
        tier = tiers.get(abs(v + 1))
        out[f"C_d={v}" if tier is None else f"N{'-' if v + 1 < 0 else ''}{tier}"] = n
    return out


def weight_distribution(m: int, k: int, mode: str = "via_correlation") -> WeightDistribution:
    """Weight distribution of the 2^(2m) words c_{a,b}(t) = Tr(a g2^t + b g1^t), t over
    one period, g1 = alpha^e1, g2 = alpha^e2, e1 = 2^k+1 and e2 = 2^(2k)+1.

    With g = gcd(e1, 2^m - 1), each b != 0 is alpha^c u^e1 for one c < g, and x -> x/u
    permutes the positions and sends the word (a, b) to (a u^(-e2), alpha^c): class c
    has (2^m - 1)/g members, of weights (2^m - W(a))/2, W = walsh_spectrum(field, e1,
    e2, c), and b = 0 the weights of c = None: where e2 is a unit (as g = 1 forces),
    the zero word and 2^m - 1 words of weight 2^(m-1).  Squaring, (a, b) -> (a^2, b^2),
    permutes the positions and sends class c to class 2c mod g, so one spectrum serves
    each orbit of c under doubling mod g: its least class, weighted by the orbit's size
    times (2^m - 1)/g.  Both modes run this one route; mode stays for the benchmark
    (ROADMAP item 1).
    """
    if k < 1:
        raise FieldError("k must be >= 1")
    if mode not in ("direct", "via_correlation"):
        raise ValueError(f"unknown mode {mode!r} (use 'direct' or 'via_correlation')")
    order = group_order(m)  # each refusal below reads m, k and order, before the field is built
    e1 = ((1 << k) + 1) % order
    e2 = ((1 << (2 * k)) + 1) % order
    # The code has dimension |C(e1) u C(e2)|, C(e) = {e 2^j mod 2^m - 1}: the
    # 2^(2m) words are distinct only if the cosets differ and both have m members.
    cosets = {e * (1 << j) % order for e in (e1, e2) for j in range(m)}
    if len(cosets) < 2 * m:
        raise FieldError(f"degenerate code: the cyclotomic cosets of 2^{k}+1 and 2^{2 * k}+1 "
                         f"modulo 2^{m}-1 hold {len(cosets)} < 2m = {2 * m} exponents, "
                         f"so the 2^{2 * m} words are not distinct")
    field, g = get_field(m), math.gcd(e1, order)
    orbit_sizes = Counter(min((c << j) % g for j in range(m)) for c in range(g))  # by least class
    classes = [(c, size * order // g) for c, size in orbit_sizes.items()]  # (c, members of its orbit)
    entries = Counter()
    if math.gcd(e2, order) == 1:  # b = 0: the zero word and 2^m - 1 words of weight 2^(m-1)
        entries.update({0: 1, 1 << (m - 1): order})
    else:
        classes.append((None, 1))
    for c, members in classes:
        for values, lengths in _runs(walsh_spectrum(field, e1, e2, c)):
            for v, n in zip(values.tolist(), lengths.tolist()):
                entries[(field.size - v) // 2] += n * members
    return WeightDistribution(m, k, dict(sorted(entries.items())))
