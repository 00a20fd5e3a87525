"""Integer L-polynomial arithmetic: Newton's identities and point counts.

An L-polynomial here is sigma_0 + sigma_1 t + ... + sigma_r t^r with
sigma_0 = 1, written L(t) = prod (1 - omega_j t).  Power sums
P_j = sum omega_j^j follow from the coefficients by Newton's identities
without ever extracting roots; all arithmetic is exact (Python ints).

The catalog ships the zeta numerators of the curves in the curve catalog,
all over F_2, in factored form: one factor per record, from sigma_0 up.
`records` reads that format for every catalog file, curves too.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, reduce
from importlib import resources
from operator import mul

from .verdict import Verdict

__all__ = [
    "CORRECTION_FACTORS",
    "L1PRIME_EXPANSION",
    "LPolynomial",
    "ZetaError",
    "catalog_lpoly",
    "catalog_lpoly_names",
    "functional_equation_check",
    "l1prime_expansion_check",
    "parse_lpoly",
    "power_sums",
    "predicted_count",
    "reconstruct_from_counts",
    "records",
    "singular_correction",
    "singular_correction_sums",
    "vanishing_residue_check",
]


class ZetaError(ValueError):
    pass


@dataclass(frozen=True)
class LPolynomial:
    """Integer polynomial with constant term 1 over F_q; a curve's numerator has genus degree / 2."""

    coefficients: tuple[int, ...]
    q: int = 2

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise ZetaError("constant term must be 1")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __mul__(self, other: "LPolynomial") -> "LPolynomial":
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return LPolynomial(tuple(out), self.q)

    def __repr__(self) -> str:
        return f"LPolynomial({list(self.coefficients)})"


def power_sums(L: LPolynomial, s_max: int) -> list[int]:
    """[P_1, ..., P_s_max] of the reciprocal roots, by Newton's identities.

    P_j + sigma_1 P_{j-1} + ... + sigma_{j-1} P_1 + j sigma_j = 0 for j <= r,
    and P_j + sigma_1 P_{j-1} + ... + sigma_r P_{j-r} = 0 for j > r.
    """
    if s_max < 1:
        raise ZetaError("s_max must be >= 1")
    sigma, r = L.coefficients, L.degree
    P: list[int] = []
    for j in range(1, s_max + 1):
        acc = sum(map(mul, sigma[1:j], reversed(P)))  # sigma_i P_(j-i), 1 <= i <= min(j - 1, r)
        P.append(-acc - j * sigma[j] if j <= r else -acc)
    return P


def predicted_count(L: LPolynomial, s: int) -> int:
    """Point count q^s + 1 - P_s predicted by the zeta numerator L."""
    return L.q**s + 1 - power_sums(L, s)[-1]


def reconstruct_from_counts(counts: list[int], q: int, g: int) -> LPolynomial:
    """Recover the genus-g L-polynomial from point counts N_1..N_g.

    Newton's identities, in the convolution form of power_sums, give
    j sigma_j = -(P_j + sigma_1 P_(j-1) + ... + sigma_(j-1) P_1) from
    P_s = q^s + 1 - N_s; the functional equation (_mirror) supplies the top
    half.  Raises where j does not divide the right side (the counts are
    inconsistent with a genus-g curve over F_q).
    """
    if g < 1 or len(counts) < g:
        raise ZetaError(f"need point counts N_1..N_{g}")
    P = [q**s + 1 - counts[s - 1] for s in range(1, g + 1)]
    sigma = [1]
    for j in range(1, g + 1):
        rhs = -(P[j - 1] + sum(map(mul, sigma[1:j], reversed(P[:j - 1]))))
        sj, r = divmod(rhs, j)
        if r:
            raise ZetaError(f"non-integral sigma_{j} = {rhs}/{j}; counts are not from a genus-{g} curve")
        sigma.append(sj)
    return LPolynomial(_mirror(sigma, q), q)


def _mirror(low: Sequence[int], q: int) -> tuple[int, ...]:
    """sigma_0..sigma_2g from sigma_0..sigma_g by the Weil functional equation
    sigma_(2g-j) = q^(g-j) sigma_j."""
    g = len(low) - 1
    return tuple(low) + tuple(q ** (g - j) * low[j] for j in range(g - 1, -1, -1))


def functional_equation_check(L: LPolynomial) -> Verdict:
    """The coefficients of L against sigma_0..sigma_g mirrored to degree 2g
    over F_q, g = degree // 2 and q = L.q; an odd degree fails by length."""
    return Verdict(L.coefficients, _mirror(L.coefficients[:L.degree // 2 + 1], L.q))


def vanishing_residue_check(L: LPolynomial, modulus: int, bound: int) -> Verdict:
    """Every nonzero P_m(L) with m <= bound and m % modulus != 0, against {}.
    They vanish when L is a polynomial in t^modulus, which is not read here
    (l1prime_expansion_check reads l1prime).
    """
    P = power_sums(L, bound)
    return Verdict({m: P[m - 1] for m in range(1, bound + 1) if m % modulus and P[m - 1]}, {})


def singular_correction(s: int) -> int:
    """S_s = 2^(1 + delta) with delta = 0 when 3 does not divide s, else 2.

    The difference between the point counts of the genus-31 singular curve
    and its nonsingular model over F_{2^s}.
    """
    return 2 ** (1 + (2 if s % 3 == 0 else 0))


def singular_correction_sums(s: int) -> int:
    """P_s of the extra factor (t^2+t+1)^2 (t-1)^4; equals singular_correction(s)."""
    extra = catalog_lpoly("singular_extra")
    return power_sums(extra, s)[-1]


# Published expansion of the degree-60 quotient l1prime, transcribed
# coefficient-by-coefficient as double-entry bookkeeping against the
# factored catalog form (only indices divisible by 3 are nonzero).
L1PRIME_EXPANSION: dict[int, int] = {
    0: 1, 3: 2, 6: 5, 9: -48, 12: -104, 15: -288, 18: 1168, 21: 2304,
    24: 8960, 27: -26624, 30: -41984, 33: -212992, 36: 573440, 39: 1179648,
    42: 4784128, 45: -9437184, 48: -27262976, 51: -100663296,
    54: 83886080, 57: 268435456, 60: 1073741824,
}


def l1prime_expansion_check() -> Verdict:
    """The nonzero sigma_j of the factored l1prime against the published expansion."""
    L = catalog_lpoly("l1prime")
    return Verdict({j: s for j, s in enumerate(L.coefficients) if s}, L1PRIME_EXPANSION)


# -- catalog ---------------------------------------------------------------


def records(text: str) -> list[tuple[int, ...]]:
    """The catalog data format: one tuple of ints per non-blank line, the line cut at '#'."""
    lines = (line.split("#", 1)[0].split() for line in text.splitlines())
    return [tuple(map(int, fields)) for fields in lines if fields]


def parse_lpoly(text: str) -> LPolynomial:
    """The product of one factor per record over F_2, each from sigma_0 up."""
    factors = [LPolynomial(r) for r in records(text)]
    if not factors:
        raise ZetaError("no factors found")
    return reduce(mul, factors)


CATALOG = resources.files("char2kit.catalog")  # the shipped data files; never rebound
_CATALOG_NAMES = ("z1", "z2", "z3", "z4", "l1prime", "l3prime", "singular_extra")
# Catalog entries that are correction factors, not a curve's zeta numerator:
# their reciprocal roots have modulus 1, so neither the q = 2 functional
# equation nor the count q^s + 1 - P_s applies to them.
CORRECTION_FACTORS = ("singular_extra",)


def catalog_lpoly_names() -> tuple[str, ...]:
    return _CATALOG_NAMES


@cache
def catalog_lpoly(name: str) -> LPolynomial:
    """Built-in zeta numerators and derived factors, expanded once per process (an LPolynomial is
    frozen, so every caller can share it); each outside CORRECTION_FACTORS has genus degree / 2."""
    if name not in _CATALOG_NAMES:
        raise ZetaError(f"unknown catalog L-polynomial {name!r} (have {_CATALOG_NAMES})")
    L = parse_lpoly(CATALOG.joinpath(f"{name}.lpoly").read_text())
    if name not in CORRECTION_FACTORS and not functional_equation_check(L).holds:
        raise ZetaError(f"catalog L-polynomial {name!r} fails the functional equation at genus {L.degree // 2}")
    return L

