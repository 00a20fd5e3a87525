"""Sparse trivariate polynomials over F_2 and projective point counting.

A polynomial is a set of exponent triples (a, b, c) with implicit
coefficient 1; adding a duplicate monomial cancels it (characteristic 2).
Projective points over F_{2^s} are enumerated in the three standard
representative charts, in the fixed order

    (x, y, 1) for all x, y;   (x, 1, 0) for all x;   (1, 0, 0)

so each point is counted exactly once.  On each chart a homogeneous P is a
polynomial in one variable.  On z = 1 it is the sum of C_b(x) y^b, where
C_b(x) is the sum of x^a over the monomials (a, b, c), so the row at x is a
polynomial in y with coefficients C_b[x].  On z = 0 it is the sum of x^a
over the monomials with c = 0, and at (1, 0, 0) it is the parity of the
number of monomials (a, 0, 0).  One evaluator, `_values`, gives the C_b
vectors, the rows and the line at the points it is given as exponents, x = 0
always included: all of F_{2^s}^* in element order for `singular_points`,
which lists points, and one x = alpha^r per Frobenius orbit for the
counters.  P has its coefficients in F_2, so (x, y) -> (x^2, y^2) maps the
zeros over x onto those over x^2, and a counter weights the zeros over r by
the size of its orbit.

Two counters are provided: a generic one that walks every y of one z = 1 row
per orbit, and a fast one for curves that are (at most) quadratic in y,
which solves the quadratic at every orbit at once via the trace criterion
(y^2 + y = beta is solvable iff Tr(beta) = 0, and then has exactly two
roots).  A curve file holds one monomial "a b c" per zeta.records record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import zeta
from .gf2m import Field, FieldError, get_field

__all__ = [
    "CurveCatalogEntry",
    "TrivariatePoly",
    "catalog_curve",
    "catalog_curve_names",
    "count_projective_points",
    "count_projective_points_fast",
    "f_k_affine",
    "homogenize",
    "singular_points",
]

COUNT_CAP = 12       # generic rows cost ~4^s/s * |monomials|; singular_points walks all ~4^s
FAST_COUNT_CAP = 20  # the fast counter costs ~2^s/s * |monomials|


@dataclass(frozen=True)
class TrivariatePoly:
    """Homogeneous-or-not trivariate polynomial over F_2 in x, y, z; frozen,
    so that a cached catalog entry can be shared.  Built from any iterable of
    exponent triples, which __post_init__ reduces to a frozenset."""

    monomials: frozenset[tuple[int, int, int]] = frozenset()

    def __post_init__(self):
        mono = set()
        for t in self.monomials:
            a, b, c = t
            if a < 0 or b < 0 or c < 0:
                raise ValueError(f"negative exponent in monomial {t}")
            mono ^= {(a, b, c)}  # char 2: duplicates cancel
        object.__setattr__(self, "monomials", frozenset(mono))

    @property
    def degree(self) -> int:
        return max((a + b + c for a, b, c in self.monomials), default=0)

    def is_homogeneous(self) -> bool:
        degs = {a + b + c for a, b, c in self.monomials}
        return len(degs) <= 1

    def __mul__(self, other: "TrivariatePoly") -> "TrivariatePoly":
        return TrivariatePoly((a1 + a2, b1 + b2, c1 + c2)  # equal products cancel in __post_init__
                              for a1, b1, c1 in self.monomials for a2, b2, c2 in other.monomials)

    def __pow__(self, e: int) -> "TrivariatePoly":
        out = TrivariatePoly([(0, 0, 0)])
        for _ in range(e):
            out = out * self
        return out

    def derivative(self, variable: str) -> "TrivariatePoly":
        """Formal partial in characteristic 2: even exponents vanish."""
        i = "xyz".index(variable)
        return TrivariatePoly(t[:i] + (t[i] - 1,) + t[i + 1:] for t in self.monomials if t[i] % 2)

    def y_degree(self) -> int:
        return max((b for _, b, _ in self.monomials), default=0)

    def __repr__(self) -> str:
        terms = []
        for a, b, c in sorted(self.monomials, reverse=True):
            parts = [f"{v}^{e}" if e > 1 else v for v, e in (("x", a), ("y", b), ("z", c)) if e]
            terms.append("*".join(parts) if parts else "1")
        return " + ".join(terms) if terms else "0"

    @classmethod
    def parse(cls, text: str) -> "TrivariatePoly":
        """The catalog data format (zeta.records), one monomial "a b c" per record."""
        return cls(zeta.records(text))


def homogenize(f: TrivariatePoly, degree: int) -> TrivariatePoly:
    """z^degree * f(x/z, y/z); restriction to z = 1 recovers f."""
    if any(c != 0 for _, _, c in f.monomials):
        raise ValueError("homogenize expects a bivariate polynomial (all z-exponents 0)")
    if degree < f.degree:
        raise ValueError(f"target degree {degree} below total degree {f.degree}")
    return TrivariatePoly([(a, b, degree - a - b) for a, b, _ in f.monomials])


def f_k_affine(k: int) -> TrivariatePoly:
    """The affine curve x^(2^k) + 1 + (y^2+y)(x^(2^2k) + x^(2^2k-2^k+1) + x^(2^k) + x)."""
    q = 1 << k
    q2 = 1 << (2 * k)
    mono = [(q, 0, 0), (0, 0, 0)]
    for b in (2, 1):
        mono += [(q2, b, 0), (q2 - q + 1, b, 0), (q, b, 0), (1, b, 0)]
    return TrivariatePoly(mono)


def _field_for(P: TrivariatePoly, s: int, cap: int) -> Field:
    """F_{2^s} for a search on P, once P is homogeneous and s is within cap."""
    if not P.is_homogeneous():
        raise ValueError("projective point search requires a homogeneous polynomial")
    if s > cap:
        raise FieldError(f"s={s} exceeds cap {cap}")
    return get_field(s)


def _values(field: Field, polys: list[dict[int, int]], logs: np.ndarray) -> np.ndarray:
    """Polynomials in one variable v, each given as {e: k} for its terms k v^e,
    at v = 0 and at v = alpha^l for each l in logs: one int32 row per
    polynomial, with v = 0 in column 0 and v = alpha^logs[j] in column j + 1.

    For v != 0, k v^e is exp[(log k + (e mod 2^s - 1) l) mod 2^s - 1]; e is
    reduced first, so the int64 index stays below 2^(2s).  Each distinct term
    (e mod 2^s - 1, k) is one row of one index and of one exp gather, and each
    polynomial is one XOR-reduce over its rows.  At v = 0 only the terms with
    e = 0 remain: e = 2^s - 1 gives 1 at every v != 0 but 0 there.
    """
    terms: dict[tuple[int, int], int] = {}
    rows = [[terms.setdefault((e % field.order, k), len(terms)) for e, k in p.items() if k] for p in polys]
    e, k = np.array(list(terms), dtype=np.int64).reshape(-1, 2).T
    idx = np.multiply.outer(e, logs)
    idx += field.log_table[k][:, None]
    vals = field.exp_table[field.fold(idx)]
    del idx  # before the XOR-reduces' copies
    out = np.empty((len(polys), 1 + len(logs)), dtype=np.int32)
    out[:, 0] = [p.get(0, 0) for p in polys]
    for i, r in enumerate(rows):
        np.bitwise_xor.reduce(vals[r], axis=0, out=out[i, 1:])
    return out


def _chart(field: Field, P: TrivariatePoly, logs: np.ndarray, d: int) -> np.ndarray:
    """P on its charts at x = 0 and at x = alpha^l for each l in logs, from one
    _values call: rows C_0, ..., C_d for a y-degree of at most d, the sums of
    x^a over the monomials (a, b, c), so that P(x, y, 1) is the sum of
    C_b(x) y^b; then the line P(x, 1, 0), the sum of x^a over the monomials
    with c = 0.  P is homogeneous, so the a of one b, and those of c = 0, are
    distinct."""
    polys: list[dict[int, int]] = [{} for _ in range(d + 2)]
    for a, b, c in P.monomials:
        polys[b][a] = 1
        if c == 0:
            polys[-1][a] = 1
    return _values(field, polys, logs)


def _point(P: TrivariatePoly) -> int:
    """P(1, 0, 0): the parity of the number of monomials (a, 0, 0)."""
    return sum(b == c == 0 for _, b, c in P.monomials) % 2


def _rows(field: Field, charts: list[np.ndarray]):
    """The z = 1 rows of several polynomials, one x (a column of their charts)
    at a time: one _values call gives each polynomial's sum of C_b[x] y^b over
    all y of F_{2^s} in element order."""
    ys = field.log_table[1:]
    for x in range(charts[0].shape[1]):
        yield _values(field, [dict(enumerate(chart[:-1, x].tolist())) for chart in charts], ys)


def count_projective_points(P: TrivariatePoly, s: int) -> int:
    """Projective zeros of a homogeneous P over F_{2^s}: every y of the z = 1
    row at x = 0 and at one x per Frobenius orbit, weighted by its size."""
    field = _field_for(P, s, COUNT_CAP)
    chart = _chart(field, P, field.orbits, P.y_degree())
    zeros = np.array([np.count_nonzero(row == 0) for (row,) in _rows(field, [chart])])
    zeros += chart[-1] == 0  # and (x, 1, 0)
    return int(zeros[0] + field.orbit_total(zeros[1:]) + (_point(P) == 0))


def count_projective_points_fast(P: TrivariatePoly, s: int) -> int:
    """Same count as count_projective_points, for curves quadratic in y.

    Solves a y^2 + b y + c = 0 at x = 0 and at one x per Frobenius orbit, with
    a, b, c = C_2, C_1, C_0, and weights each x by its orbit's size (the
    roots over x^2 are the squares of those over x): for a != 0, b != 0 the
    substitution y = (b/a) w turns it into w^2 + w = c a / b^2 with 2 or 0
    roots by Tr(c a / b^2); a != 0, b = 0 gives the unique square root;
    a = 0 is linear.
    """
    field = _field_for(P, s, FAST_COUNT_CAP)
    if P.y_degree() > 2:
        raise ValueError("fast counter requires a polynomial quadratic in y")

    def count():
        n = int(_point(P) == 0)
        for lo, reps in field.orbit_blocks:  # each block's column 0 is x = 0
            chart = _chart(field, P, reps, 2)
            c, b, a, line = chart
            log_c, log_b, log_a = field.log_table[chart[:3]].astype(np.int64)
            # Tr(beta), beta = c a / b^2, read by Field.trace at log beta; read only
            # where a, b != 0, as log 0 is no exponent; c = 0 gives beta 0, trace 0.
            tr = field.trace(field.fold(log_c + log_a - 2 * log_b))
            roots = np.where((a != 0) & (b != 0), 2 * ((c == 0) | (tr == 0)),
                             np.where((a | b) != 0, 1, field.size * (c == 0)))
            roots += line == 0
            n += field.orbit_total(roots[1:], lo)
        return n + int(roots[0])

    return field.kept(("count", P.monomials), count)  # by Field.kept, a recount is a lookup


def singular_points(P: TrivariatePoly, s: int) -> list[tuple[int, int, int]]:
    """Projective points over F_{2^s} where P and all three partials vanish.

    Representatives in the standard charts, in chart order; the search is
    exhaustive over F_{2^s} only (no algebraic closure), so it walks every x,
    in element order: column v of each chart is x = v.
    """
    field = _field_for(P, s, COUNT_CAP)
    polys = [P, P.derivative("x"), P.derivative("y"), P.derivative("z")]
    charts = [_chart(field, q, field.log_table[1:], q.y_degree()) for q in polys]
    out = []
    for x, rows in enumerate(_rows(field, charts)):
        out += [(x, y, 1) for y in np.flatnonzero(~rows.any(axis=0)).tolist()]
    hit = ~np.any([chart[-1] for chart in charts], axis=0)
    out += [(x, 1, 0) for x in np.flatnonzero(hit).tolist()]
    if not any(_point(q) for q in polys):
        out.append((1, 0, 0))
    return out


# -- catalog ---------------------------------------------------------------


@dataclass(frozen=True)
class CurveCatalogEntry:
    name: str
    polynomial: TrivariatePoly
    l_polynomial_name: str | None
    # Count over F_{2^s} of this (possibly singular) model, in terms of the
    # nonsingular-model count n predicted by the L-polynomial:
    #   "exact"      -> n        (curve is nonsingular)
    #   "minus_one"  -> n - 1    (one F_2-rational singular point)
    #   "minus_s1"   -> n - S_s  (S_s = 2^(1+delta), delta = 2 iff 3 | s)
    correction: str | None
    # Singular points over F_2 in chart order; None where they are not pinned.
    expected_singular_points: tuple[tuple[int, int, int], ...] | None

    def corrected_prediction(self, n: int, s: int) -> int:
        if self.correction == "exact":
            return n
        if self.correction == "minus_one":
            return n - 1
        if self.correction == "minus_s1":
            return n - zeta.singular_correction(s)
        raise ValueError(f"no count prediction for curve {self.name!r}")


_CATALOG_META = {
    # name: (lpoly, correction, singular points over F_2); the genus is the lpoly's degree / 2
    "fbar3": (None, None, None),
    "p1tilde": ("z1", "minus_s1", None),
    "kloosterman": ("z2", "exact", ()),
    "p3": ("z3", "minus_one", ((0, 1, 0),)),
    "p4": ("z4", "minus_one", ((0, 1, 0),)),
}


def catalog_curve_names() -> tuple[str, ...]:
    return tuple(_CATALOG_META)


@cache
def catalog_curve(name: str) -> CurveCatalogEntry:
    """The catalog entry, parsed once per process (the entry is frozen)."""
    if name not in _CATALOG_META:
        raise ValueError(f"unknown catalog curve {name!r} (have {tuple(_CATALOG_META)})")
    poly = TrivariatePoly.parse(zeta.CATALOG.joinpath(f"{name}.curve").read_text())
    return CurveCatalogEntry(name, poly, *_CATALOG_META[name])
