"""Exact rational linear algebra and valuation polygons.

All arithmetic is exact, over `fractions.Fraction` and Python ints, and
nothing here ever rounds.  The only float in the module is `math.inf`, used
as the conventional valuation of zero.  Every elimination (`RatMatrix.rref`,
`rank`, `det`, `nullspace`, and the row-space helpers: solving,
containment, intersection) runs on integer rows, and Fractions are built
only for the entries a function returns.  So does the polynomial section:
the characteristic polynomial, its rational roots and its Newton polygon.

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
    if type(x) is Fraction or isinstance(x, Fraction):  # the first test skips the ABC check
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


def is_row_list(x) -> bool:
    """Whether x is a list (or tuple) of lists (or tuples), as matrices and bases are."""
    return isinstance(x, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in x)


def json_int(x, what: str) -> int:
    """A JSON integer (not a bool, a string or a float), else InputError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be integers, got {x!r}")
    return x


def json_int_field(obj: dict, key: str, default=None) -> int:
    """The integer field `key` of a JSON object; a missing key gives `default`."""
    if key not in obj and default is not None:
        return default
    return json_int(obj.get(key), f"{key!r} fields")


def torsion_entry(entry) -> tuple[str, tuple]:
    """One torsion entry (point, lengths), checked before any merge or sort.

    The point is a nonempty string and the lengths a nonempty list or tuple
    of positive integers; `bc` and `sheaf` apply this rule to raw entries and
    to their normal forms.
    """
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise InputError("a torsion entry is a (point, lengths) pair")
    point, lengths = entry
    if not isinstance(point, str) or not point:
        raise InputError("torsion point labels must be nonempty strings")
    if not isinstance(lengths, (list, tuple)) or not lengths:
        raise InputError("torsion entries need a nonempty list of lengths")
    if any(json_int(m, "torsion lengths") < 1 for m in lengths):
        raise InputError("torsion lengths must be positive integers")
    return point, tuple(lengths)


def torsion_normal_form(entries) -> tuple:
    """((point, lengths descending), ...) by point: checked `entries` merged by point."""
    tors: dict[str, list[int]] = {}
    for entry in entries:
        point, lengths = torsion_entry(entry)  # before the sort, which compares them
        tors.setdefault(point, []).extend(lengths)
    return tuple((pt, tuple(sorted(ls, reverse=True))) for pt, ls in sorted(tors.items()))


def rat_str(q: Fraction) -> str:
    """Serialize a Fraction as 'a/b', or 'a' when the denominator is 1."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Dimension:
    """(dim, ht) pair with exact componentwise arithmetic.

    It lives here, not in `bc` (which re-exports it), so that `hn` and `sheaf`
    can use it without loading `bc`; it is written out rather than as a
    dataclass so that loading this module does not load `dataclasses`.
    """

    __slots__ = ("dim", "ht")

    def __init__(self, dim: int, ht: int):
        for v in (dim, ht):
            if isinstance(v, bool) or not isinstance(v, int):
                raise InputError(f"Dimension components must be integers, got {v!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ht", ht)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Dimension is immutable")

    def __eq__(self, other):
        if type(other) is not Dimension:
            return NotImplemented
        return (self.dim, self.ht) == (other.dim, other.ht)

    def __hash__(self):
        return hash((self.dim, self.ht))

    def __repr__(self):
        return f"Dimension(dim={self.dim!r}, ht={self.ht!r})"

    def __add__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.dim + other.dim, self.ht + other.ht)

    def __sub__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.dim - other.dim, self.ht - other.ht)

    def is_zero(self) -> bool:
        return self.dim == 0 and self.ht == 0

    def to_obj(self):
        return {"dim": self.dim, "ht": self.ht}

    @classmethod
    def from_obj(cls, obj) -> "Dimension":
        if not isinstance(obj, dict) or "dim" not in obj or "ht" not in obj:
            raise InputError("Dimension JSON must be {'dim': int, 'ht': int}")
        return cls(obj["dim"], obj["ht"])


ZERO_DIM = Dimension(0, 0)


# Miller-Rabin with the first 13 primes as bases is exact below MR_LIMIT
# (Sorenson and Webster, Math. Comp. 86 (2017), "Strong pseudoprimes to
# twelve prime bases"); no base set is proven above it.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: trial division by MR_BASES, then deterministic Miller-Rabin.

    An n with no factor among the bases and n >= MR_LIMIT is an InputError.
    """
    if not isinstance(n, int) or n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= MR_LIMIT:
        raise InputError(f"primality is decided only below {MR_LIMIT}, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

    Elimination runs on Python ints: `rref` and `rank` first scale each row
    by the lcm of its denominators and then keep every row gcd-primitive,
    `det` is Bareiss elimination with exact integer division on those rows,
    and Fractions are built once, when a reduced row-echelon form is
    emitted.  Products with a zero factor are skipped, since the matrices met
    here are often sparse.  Sizes here are desk-scale (rank <= ~12), nothing
    is tuned beyond that.
    """

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence]):
        if not is_row_list(rows):
            raise InputError("a matrix must be a list of row lists")
        ent = tuple(tuple(rat(x) for x in row) for row in rows)
        if ent:
            w = len(ent[0])
            if any(len(r) != w for r in ent):
                raise InputError("ragged matrix rows")
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def _trusted(cls, entries: tuple) -> "RatMatrix":
        """Wrap a tuple of equal-length tuples of Fractions without re-checking it."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        return self

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
        return cls._trusted(tuple(tuple(_ONE if i == j else _ZERO for j in range(n))
                                  for i in range(n)))

    @classmethod
    def zeros(cls, r: int, c: int) -> "RatMatrix":
        return cls._trusted(((_ZERO,) * c,) * r)

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
        return RatMatrix._trusted(tuple(zip(*self.entries)))

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
        """Exact determinant: Bareiss elimination on the denominator-cleared rows,
        divided by the product of the row multipliers."""
        self._need_square()
        if self.rows == 0:
            return Fraction(1)
        rows, scale = [], 1
        for row in self.entries:
            d = _row_denominator(row)
            rows.append(_scaled(row, d))
            scale *= d
        return Fraction(int_det(rows), scale)

    def rref(self) -> tuple["RatMatrix", tuple]:
        """Reduced row-echelon form and the tuple of pivot columns."""
        rows = [int_row(r) for r in self.entries]
        pivots = _gauss_jordan(rows, self.cols)
        out = [_normalized(row, c) for row, c in zip(rows, pivots)]
        zero_row = (_ZERO,) * self.cols
        out.extend(zero_row for _ in range(self.rows - len(pivots)))
        return RatMatrix._trusted(tuple(out)), tuple(pivots)

    def rank(self) -> int:
        return len(int_echelon(int_row(r) for r in self.entries))

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
        """Canonical (RREF'd) basis of the right kernel, as row vectors.

        The kernel rows of `int_kernel`; one more elimination makes them canonical.
        """
        n = self.cols
        basis = int_kernel([int_row(r) for r in self.entries], n)
        return tuple(_normalized(row, c) for row, c in zip(basis, _gauss_jordan(basis, n)))

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


# ---------------------------------------------------------------------------
# integer rows
#
# Elimination is done on Python ints.  A rational row enters as the row times
# the lcm of its denominators (`int_row`); a matrix that acts as a linear map
# is cleared with ONE denominator for all of its entries (`int_matrix`), since
# scaling its rows separately would change the map.  An echelon is a list of
# (pivot column, gcd-primitive int row) in insertion order, each row zero at
# the pivots of the rows before it; reducing a vector by its rows in that
# order leaves a residue that is zero exactly when the vector lies in their
# span.

_ZERO, _ONE = Fraction(0), Fraction(1)


def _row_denominator(row) -> int:
    # a loop that skips denominators of 1 beats math.lcm on these short rows
    d = 1
    for x in row:
        q = x.denominator
        if q != 1 and d % q:
            d = d * q // math.gcd(d, q)
    return d


def _scaled(row, d: int) -> list:
    if d == 1:
        return [x.numerator for x in row]
    return [x.numerator * (d // x.denominator) if x else 0 for x in row]


def int_row(v: Sequence) -> list:
    """The rational row v times the lcm of its denominators, as a list of ints."""
    return _scaled(v, _row_denominator(v))


def int_matrix(m: RatMatrix) -> tuple[list, int]:
    """(D*m as int rows, D) with D the common denominator of every entry of m."""
    d = math.lcm(*[_row_denominator(row) for row in m.entries])
    return [_scaled(row, d) for row in m.entries], d


def int_apply(rows: Sequence, v: Sequence) -> list:
    """The int matrix `rows` times the int column vector v."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero) for row in rows]


def int_matmul(a: Sequence, b: Sequence) -> list:
    """Product of two int matrices given as row lists."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def _primitive(row: list) -> list:
    g = math.gcd(*row)
    return row if g < 2 else [a // g for a in row]


def _normalized(row: Sequence, c: int) -> Row:
    """The int row divided by its entry at column c, as Fractions."""
    pv = row[c]
    return tuple(Fraction(a, pv) if a else _ZERO for a in row)


def int_residue(v: list, echelon: Sequence) -> list:
    """v reduced by the rows of `echelon`: zero iff v lies in their span."""
    for c, row in echelon:
        f = v[c]
        if f:
            pv = row[c]
            v = [pv * a - f * b for a, b in zip(v, row)]
    return v


def int_echelon(rows: Iterable, echelon: Sequence = ()) -> list:
    """`echelon` extended by the residues of `rows`; its length is the rank."""
    out = list(echelon)
    for v in rows:
        r = int_residue(v, out)
        c = next((j for j, a in enumerate(r) if a), None)
        if c is not None:
            out.append((c, _primitive(r)))
    return out


def _gauss_jordan(rows: list, ncols: int) -> list:
    """Reduce int rows in place to reduced echelon form; returns the pivots.

    Row i ends as a gcd-primitive multiple of row i of the rational RREF.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r] = _primitive(rows[r])
        pv = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _primitive([pv * a - f * b for a, b in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
    return pivots


def int_kernel(rows: list, ncols: int) -> list:
    """Int basis of the right kernel of the int rows (consumed), by one elimination.

    Kernel vector f (free column f) times the lcm L of the pivot entries of
    the int RREF is an int row.
    """
    pivots = _gauss_jordan(rows, ncols)
    lcm = math.lcm(*(row[c] for row, c in zip(rows, pivots)))
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = lcm
        for row, c in zip(rows, pivots):
            if row[f]:
                v[c] = -row[f] * (lcm // row[c])
        basis.append(v)
    return basis


def int_rref(rows: list, ncols: int) -> tuple:
    """Canonical key of the span of the int rows (consumed), by one elimination:
    (pivot, RREF row as a gcd-primitive int tuple with a positive pivot) pairs."""
    pivots = _gauss_jordan(rows, ncols)
    return tuple(
        (c, tuple(row) if row[c] > 0 else tuple(-a for a in row)) for row, c in zip(rows, pivots)
    )


def rat_rref(key: tuple) -> tuple[Row, ...]:
    """The canonical RREF basis, as Fractions, of an `int_rref` key."""
    return tuple(_normalized(row, c) for c, row in key)


def int_det(rows: list) -> int:
    """Determinant of a square int matrix by Bareiss elimination (rows are consumed)."""
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            pr = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pr is None:
                return 0
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        rk = rows[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
        prev = pk
    return sign * rows[n - 1][n - 1]


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


# ---------------------------------------------------------------------------
# polynomials
#
# Coefficient lists are in ascending degree order.  The characteristic
# polynomial, its rational roots and its Newton polygon all run on Python
# ints; Fractions are built only for what they return.


def charpoly(m: RatMatrix) -> list[Fraction]:
    """Exact characteristic polynomial of a square matrix.

    Returned monic, coefficients in ascending degree order.  Faddeev-LeVerrier
    runs on the integer matrix D*m, D the common denominator of all entries:
    its coefficients c_k are integers, the trace division by k is exact, and
    the coefficient of degree n-k of the polynomial of m is c_k / D^k.
    """
    if not isinstance(m, RatMatrix):
        m = RatMatrix(m)
    m._need_square()
    n = m.rows
    if n == 0:
        return [Fraction(1)]
    b, den = int_matrix(m)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = int_matmul(b, mk)
        c, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise AssertionError(f"internal: Faddeev-LeVerrier trace not divisible by {k}")
        coeffs[n - k] = Fraction(c, den**k)
        if k < n:
            for i in range(n):
                mk[i][i] += c
    return coeffs


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[list[tuple[Fraction, int]], int]:
    """Rational roots with multiplicities, plus the leftover (unsplit) degree.

    Runs on Python ints: the polynomial is cleared of denominators and its
    zero roots are split off (they are not reported but count in the
    leftover).  A root a/b in lowest terms has a | const and b | lead, of the
    polynomial deflated so far; each such coprime pair, in both signs, is
    tried by exact division by (b*x - a) over Z, which by Gauss's lemma
    succeeds exactly at a root, and repeated for its multiplicity.  Fractions
    are built only for the roots returned, in ascending order.  Gives up
    (returns leftover = full remaining degree) if the divisor enumeration
    would need to factor integers beyond 10**12.
    """
    poly = list(coeffs)
    while poly and poly[-1] == 0:
        poly.pop()
    deg = len(poly) - 1
    if deg <= 0:
        return [], 0
    denom = math.lcm(*(c.denominator for c in poly))
    ints = [c.numerator * (denom // c.denominator) for c in poly]
    zeros = next(i for i, c in enumerate(ints) if c)
    ints = ints[zeros:]
    lead, const = abs(ints[-1]), abs(ints[0])
    if lead > 10**12 or const > 10**12:
        return [], deg
    roots = []
    lead_divisors = _divisors(lead)
    for a in _divisors(const):
        for b in lead_divisors:
            if len(ints) == 1 or ints[0] % a:
                break
            if ints[-1] % b or math.gcd(a, b) != 1:
                continue
            for s in (a, -a):
                mult = 0
                while len(ints) > 1:
                    quo = _divide_linear(ints, s, b)
                    if quo is None:
                        break
                    ints, mult = quo, mult + 1
                if mult:
                    roots.append((Fraction(s, b), mult))
    roots.sort()
    return roots, zeros + len(ints) - 1


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})


def _divide_linear(poly: list, a: int, b: int) -> Optional[list]:
    """poly / (b*x - a) over Z (ascending int coefficients), or None if it does not divide."""
    quo = [0] * (len(poly) - 1)
    acc = 0
    for i in range(len(poly) - 1, 0, -1):
        acc, rem = divmod(poly[i] + a * acc, b)
        if rem:
            return None
        quo[i - 1] = acc
    return quo if poly[0] + a * acc == 0 else None


def newton_polygon(coefficients: Sequence, p: int) -> list[tuple[Fraction, int]]:
    """Root valuations of a polynomial from its p-adic Newton polygon.

    `coefficients` are in ascending degree order.  The constant and leading
    coefficients must be nonzero (strip zero roots before calling).  Returns
    (valuation, multiplicity) pairs sorted by ascending valuation; these are
    the NEGATED lower-hull slopes, and the multiplicities sum to the degree.
    The hull of the integer points (i, v_p(a_i)) is built by one monotone
    chain with integer cross products (a collinear middle point is dropped);
    its slopes rise from left to right, so their negations, read from the
    right, ascend.
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
    hull: list[tuple[int, int]] = []
    for x, c in enumerate(coeffs):
        if c:
            y = _vp_int(abs(c.numerator), p) - _vp_int(c.denominator, p)
            while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                     <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
                hull.pop()
            hull.append((x, y))
    return [(Fraction(y1 - y2, x2 - x1), x2 - x1)
            for (x1, y1), (x2, y2) in zip(reversed(hull[:-1]), reversed(hull[1:]))]


# ---------------------------------------------------------------------------
# row-space helpers
#
# Subspaces are passed around as tuples of row vectors; the canonical form of
# a subspace is the tuple of nonzero rows of its RREF, which makes equality,
# hashing and the lexicographic tie-breaks used by the Harder-Narasimhan
# machinery deterministic.  Each query below is one elimination on integer
# rows, and Fractions are built only for the entries returned: containment is
# a zero residue modulo an `int_echelon`, solving is one `_gauss_jordan` of
# the augmented transpose for all targets, an intersection one Zassenhaus
# reduction.  Entries are coerced with `rat`, so strings 'a/b' work.


def _rat_rows(rows: Iterable, ncols: int) -> tuple:
    rows = tuple(tuple(map(rat, r)) for r in rows)
    if any(len(r) != ncols for r in rows):
        raise InputError("row length mismatch")
    return rows


def rref_rows(rows: Iterable, ncols: int) -> tuple[Row, ...]:
    """Canonical RREF basis (nonzero rows only) of the span of `rows`."""
    rows = _rat_rows(rows, ncols)
    if not rows:
        return ()
    red, piv = RatMatrix._trusted(rows).rref()
    return tuple(red.entries[i] for i in range(len(piv)))


def coordinates(basis: Sequence[Row], v: Sequence) -> Optional[tuple]:
    """Coefficients of v in the basis rows, or None if v is outside their span.

    Row c of the augmented transpose [basis | v] is the equation of
    coordinate c, cleared by its own lcm (which keeps its solutions); a pivot
    in the last column means v is not in the span.  Unknowns without a pivot
    (a dependent basis) are zero.
    """
    if not basis:
        return None if any(rat(x) for x in v) else ()
    k, n = len(basis), len(basis[0])
    cols = _rat_rows(list(basis) + [v], n)
    rows = [int_row([col[c] for col in cols]) for c in range(n)]
    pivots = _gauss_jordan(rows, k + 1)
    if pivots and pivots[-1] == k:
        return None
    coeffs = [_ZERO] * k
    for row, c in zip(rows, pivots):
        if row[k]:
            coeffs[c] = Fraction(row[k], row[c])
    return tuple(coeffs)


def span_contains(basis: Sequence[Row], v: Sequence) -> bool:
    return span_leq([v], basis)


def span_leq(a: Sequence[Row], b: Sequence[Row]) -> bool:
    """Whether span(a) <= span(b): b's echelon is built once for all of a."""
    if not a:
        return True
    echelon = int_echelon(map(int_row, _rat_rows(b, len(a[0]))))
    return not any(any(int_residue(int_row(v), echelon)) for v in _rat_rows(a, len(a[0])))


def span_sum(a: Sequence[Row], b: Sequence[Row], ncols: int) -> tuple[Row, ...]:
    return rref_rows(list(a) + list(b), ncols)


def span_intersect(a: Sequence[Row], b: Sequence[Row], ncols: int) -> tuple[Row, ...]:
    """Canonical basis of the intersection of two row spaces (Zassenhaus).

    The reduced echelon form of the rows [a_i | a_i] and [b_j | 0] has a zero
    left half exactly in its rows with a pivot at or past ncols, and their
    right halves, divided by the pivot, are the RREF of span(a) & span(b).
    """
    if not a or not b:
        return ()
    rows = [int_row(v + v) for v in _rat_rows(a, ncols)]
    rows += [int_row(v) + [0] * ncols for v in _rat_rows(b, ncols)]
    pivots = _gauss_jordan(rows, 2 * ncols)
    return tuple(
        _normalized(row[ncols:], c - ncols) for row, c in zip(rows, pivots) if c >= ncols
    )


def restriction_matrix(m: RatMatrix, basis: Sequence[Row]) -> Optional[RatMatrix]:
    """Matrix of m restricted to the span of `basis`, or None if not stable.

    basis rows b_i; the returned k x k matrix A satisfies m(b_i) = sum_j A[i][j] b_j.
    m(b_i) is computed on int rows: with v_i = d_i * b_i (`int_row`) and D*m
    cleared by one denominator, u_i = D * d_i * m(b_i).  One elimination of
    the augmented transpose [v | u] solves u_i = sum_j X[i][j] v_j for all i
    (None if a pivot lands in a target column), and A[i][j] is
    X[i][j] * d_j / (D * d_i).
    """
    if not basis:
        return RatMatrix([])
    m._need_square()
    rows = _rat_rows(basis, m.cols)
    mat, den = int_matrix(m)
    scales = [_row_denominator(b) for b in rows]
    ints = [_scaled(b, d) for b, d in zip(rows, scales)]
    images = [int_apply(mat, v) for v in ints]
    k = len(ints)
    eqs = [[v[c] for v in ints] + [u[c] for u in images] for c in range(m.cols)]
    pivots = _gauss_jordan(eqs, 2 * k)
    if pivots and pivots[-1] >= k:
        return None
    out = []
    for i, d in enumerate(scales):
        coeffs = [_ZERO] * k
        for row, c in zip(eqs, pivots):
            if row[k + i]:
                coeffs[c] = Fraction(row[k + i] * scales[c], row[c] * den * d)
        out.append(tuple(coeffs))
    return RatMatrix._trusted(tuple(out))


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
