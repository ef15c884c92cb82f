"""Exact rational linear algebra and valuation polygons.

All arithmetic is over `fractions.Fraction` and nothing here ever rounds.
The only float in the module is `math.inf`, used as the conventional
valuation of zero.

Slope convention, used by everything downstream: `newton_polygon` returns
the NEGATED slopes of the lower convex hull of the points ``(i, v_p(a_i))``.
The returned numbers are therefore the valuations of the roots of the
polynomial, so the slope multiset of a Frobenius matrix equals the valuation
multiset of its eigenvalues.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

INFINITY = math.inf

Row = tuple  # a row vector: tuple of Fractions


class InputError(ValueError):
    """Malformed user-supplied data (bad rationals, non-primes, schema errors)."""


class FlagRequiredError(InputError):
    """An operation needing an explicit flag got weights-only Hodge data."""


def rat(x) -> Fraction:
    """Coerce x (int, Fraction, or string 'a/b' / 'a') to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if "." in s or "e" in s or "E" in s:
            raise InputError(f"rationals must be exact 'a/b' strings, got {x!r}")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational string {x!r}") from exc
    raise InputError(f"not a rational: {x!r} (floats are rejected)")


def rat_str(q: Fraction) -> str:
    """Serialize a Fraction as 'a/b', or 'a' when the denominator is 1."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_prime(n: int) -> bool:
    if not isinstance(n, int) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise InputError(f"p must be a prime integer >= 2, got {p!r}")
    return p


def _vp_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(q, p):
    """Exact p-adic valuation of a rational; +infinity for 0.

    Satisfies v(xy) = v(x) + v(y) for nonzero x, y.
    """
    check_prime(p)
    q = rat(q)
    if q == 0:
        return INFINITY
    return _vp_int(abs(q.numerator), p) - _vp_int(q.denominator, p)


# ---------------------------------------------------------------------------
# matrices


class RatMatrix:
    """Immutable matrix of Fractions, row-major.

    Determinants use fraction-free Bareiss elimination; everything else is
    straightforward exact Gaussian elimination.  Products with a zero factor
    are skipped, since the matrices met here are often sparse.  Sizes here
    are desk-scale (rank <= ~12), nothing is tuned beyond that.
    """

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable]):
        ent = tuple(tuple(rat(x) for x in row) for row in rows)
        if ent:
            w = len(ent[0])
            if any(len(r) != w for r in ent):
                raise InputError("ragged matrix rows")
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "RatMatrix":
        return cls([[Fraction(0)] * c for _ in range(r)])

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.entries)
        return f"RatMatrix[{body}]"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in row] for row in self.entries])

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix([[c * a for a in row] for row in self.entries])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise InputError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().entries
        out = []
        for row in self.entries:
            nonzero = [(j, a) for j, a in enumerate(row) if a]
            out.append([sum((a * col[j] for j, a in nonzero), Fraction(0)) for col in ot])
        return RatMatrix(out)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.entries))) if self.entries else RatMatrix([])

    def trace(self) -> Fraction:
        self._need_square()
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def apply(self, v: Sequence) -> Row:
        """Apply to a column vector given as a flat sequence; returns a tuple."""
        if len(v) != self.cols:
            raise InputError("vector length mismatch")
        nonzero = [(j, x) for j, x in enumerate(rat(x) for x in v) if x]
        return tuple(
            sum((row[j] * x for j, x in nonzero if row[j]), Fraction(0))
            for row in self.entries
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError("shape mismatch")

    def _need_square(self):
        if not self.is_square():
            raise InputError(f"square matrix required, got {self.rows}x{self.cols}")

    def det(self) -> Fraction:
        """Exact determinant via fraction-free Bareiss elimination."""
        self._need_square()
        n = self.rows
        if n == 0:
            return Fraction(1)
        m = [list(r) for r in self.entries]
        sign = 1
        prev = Fraction(1)
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
                m[i][k] = Fraction(0)
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def rref(self) -> tuple["RatMatrix", tuple]:
        """Reduced row-echelon form and the tuple of pivot columns."""
        m = [list(r) for r in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pr = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            if pv != 1:
                m[r] = [x / pv if x else x for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return RatMatrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "RatMatrix":
        self._need_square()
        n = self.rows
        aug = RatMatrix(
            [list(self.entries[i]) + [Fraction(i == j) for j in range(n)] for i in range(n)]
        )
        red, piv = aug.rref()
        if tuple(range(n)) != piv[:n] or len(piv) != n:
            raise InputError("matrix is singular")
        return RatMatrix([row[n:] for row in red.entries])

    def nullspace(self) -> tuple[Row, ...]:
        """Canonical (RREF'd) basis of the right kernel, as row vectors."""
        red, piv = self.rref()
        free = [c for c in range(self.cols) if c not in piv]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, c in enumerate(piv):
                v[c] = -red.entries[r][f]
            basis.append(tuple(v))
        return rref_rows(basis, self.cols)

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker product self (x) other."""
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                out.append(
                    [
                        self.entries[i][j] * other.entries[k][l]
                        for j in range(self.cols)
                        for l in range(other.cols)
                    ]
                )
        if not out:
            return RatMatrix([])
        return RatMatrix(out)

    def to_strings(self) -> list[list[str]]:
        return [[rat_str(x) for x in row] for row in self.entries]


def charpoly(m: RatMatrix) -> list[Fraction]:
    """Exact characteristic polynomial of a square matrix.

    Returned monic, coefficients in ascending degree order (Faddeev-LeVerrier;
    divisions by integers are exact over the rationals).
    """
    if not isinstance(m, RatMatrix):
        m = RatMatrix(m)
    m._need_square()
    n = m.rows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    if n == 0:
        return coeffs
    mk = RatMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        c = -mk.trace() / k
        coeffs[n - k] = c
        if k < n:
            mk = mk + RatMatrix.identity(n).scale(c)
    return coeffs


# ---------------------------------------------------------------------------
# polygons


class Polygon:
    """Lower-convex polygon: integer x's strictly increasing, slopes non-decreasing."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable):
        vs = tuple((int(x), rat(y)) for x, y in vertices)
        for (x1, _), (x2, _) in zip(vs, vs[1:]):
            if x2 <= x1:
                raise InputError("polygon x-coordinates must strictly increase")
        slopes = [
            (y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(vs, vs[1:])
        ]
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 < s1:
                raise InputError("polygon is not convex from below")
        object.__setattr__(self, "vertices", vs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polygon is immutable")

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon{list(self.vertices)!r}"

    @classmethod
    def lower_hull(cls, points: Iterable) -> "Polygon":
        """Lower convex hull of a finite point set (monotone chain, exact)."""
        best: dict[int, Fraction] = {}
        for x, y in points:
            x = int(x)
            y = rat(y)
            if x not in best or y < best[x]:
                best[x] = y
        pts = sorted(best.items())
        if not pts:
            raise InputError("no points")
        hull: list[tuple[int, Fraction]] = []
        for p in pts:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                # cross <= 0: turning clockwise or collinear, pop
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return cls(hull)

    def slopes(self) -> list[tuple[Fraction, int]]:
        """Segment slopes with their integer horizontal runs, left to right."""
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            out.append(((y2 - y1) / (x2 - x1), x2 - x1))
        return out


def newton_polygon(coefficients: Sequence, p: int) -> list[tuple[Fraction, int]]:
    """Root valuations of a polynomial from its p-adic Newton polygon.

    `coefficients` are in ascending degree order.  The constant and leading
    coefficients must be nonzero (strip zero roots before calling).  Returns
    (valuation, multiplicity) pairs sorted by ascending valuation; these are
    the NEGATED lower-hull slopes, and the multiplicities sum to the degree.
    """
    check_prime(p)
    coeffs = [rat(c) for c in coefficients]
    if not coeffs:
        raise InputError("empty coefficient list")
    if all(c == 0 for c in coeffs):
        raise InputError("zero polynomial has no Newton polygon")
    if coeffs[-1] == 0:
        raise InputError("leading coefficient must be nonzero")
    if coeffs[0] == 0:
        raise InputError("constant coefficient must be nonzero (strip zero roots first)")
    if len(coeffs) == 1:
        return []
    pts = [(i, valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]
    hull = Polygon.lower_hull(pts)
    out = [(-s, m) for s, m in hull.slopes()]
    out.sort(key=lambda t: t[0])
    return out


# ---------------------------------------------------------------------------
# row-space helpers
#
# Subspaces are passed around as tuples of row vectors; the canonical form of
# a subspace is the tuple of nonzero rows of its RREF, which makes equality,
# hashing and the lexicographic tie-breaks used by the Harder-Narasimhan
# machinery deterministic.


def rref_rows(rows: Iterable, ncols: int) -> tuple[Row, ...]:
    """Canonical RREF basis (nonzero rows only) of the span of `rows`."""
    rows = [tuple(rat(x) for x in r) for r in rows]
    for r in rows:
        if len(r) != ncols:
            raise InputError("row length mismatch")
    if not rows:
        return ()
    red, piv = RatMatrix(rows).rref()
    return tuple(red.entries[i] for i in range(len(piv)))


def coordinates(basis: Sequence[Row], v: Sequence) -> Optional[tuple]:
    """Coefficients of v in the given (independent) basis rows, or None."""
    v = tuple(rat(x) for x in v)
    if not basis:
        return () if all(x == 0 for x in v) else None
    n = len(basis[0])
    aug = RatMatrix([[basis[r][c] for r in range(len(basis))] + [v[c]] for c in range(n)])
    red, piv = aug.rref()
    k = len(basis)
    if k in piv:
        return None  # inconsistent
    coeffs = [Fraction(0)] * k
    for r, c in enumerate(piv):
        coeffs[c] = red.entries[r][k]
    return tuple(coeffs)


def span_contains(basis: Sequence[Row], v: Sequence) -> bool:
    return coordinates(basis, v) is not None


def span_leq(a: Sequence[Row], b: Sequence[Row]) -> bool:
    return all(span_contains(b, v) for v in a)


def span_sum(a: Sequence[Row], b: Sequence[Row], ncols: int) -> tuple[Row, ...]:
    return rref_rows(list(a) + list(b), ncols)


def span_intersect(a: Sequence[Row], b: Sequence[Row], ncols: int) -> tuple[Row, ...]:
    """Canonical basis of the intersection of two row spaces."""
    if not a or not b:
        return ()
    stacked = RatMatrix(list(a) + list(b)).transpose()  # columns are the vectors
    out = []
    for c in stacked.nullspace():
        v = [Fraction(0)] * ncols
        for i, coef in enumerate(c[: len(a)]):
            for j in range(ncols):
                v[j] += coef * a[i][j]
        out.append(tuple(v))
    return rref_rows(out, ncols)


def restriction_matrix(m: RatMatrix, basis: Sequence[Row]) -> Optional[RatMatrix]:
    """Matrix of m restricted to the span of `basis`, or None if not stable.

    basis rows b_i; the returned k x k matrix A satisfies m(b_i) = sum_j A[i][j] b_j.
    """
    rows = []
    for v in basis:
        c = coordinates(basis, m.apply(v))
        if c is None:
            return None
        rows.append(c)
    if not rows:
        return RatMatrix([])
    return RatMatrix(rows)


def complement_basis(inner: Sequence[Row], outer: Sequence[Row], ncols: int) -> tuple[Row, ...]:
    """Deterministic complement of span(inner) inside span(outer).

    Greedily extends `inner` by RREF basis rows of `outer`; requires
    span(inner) <= span(outer).
    """
    if not span_leq(inner, outer):
        raise InputError("inner space is not contained in outer space")
    current = list(inner)
    chosen = []
    cur_span = rref_rows(current, ncols)
    for v in rref_rows(outer, ncols):
        if not span_contains(cur_span, v):
            chosen.append(v)
            current.append(v)
            cur_span = rref_rows(current, ncols)
    return tuple(chosen)
