"""Exact rational linear algebra: matrices, their integer-row kernel, the
characteristic polynomial and its rational roots, and row spaces.

All arithmetic is exact, over `fractions.Fraction` and Python ints, and
nothing here ever rounds.  Every elimination (`RatMatrix.rref`, `rank`,
`det`, `nullspace`, and the row-space helpers: solving, containment,
intersection) runs on integer rows, and Fractions are built only for the
entries a function returns.  So does the polynomial section: the
characteristic polynomial and its rational roots.  Scalars, records and
valuation polygons are in `base`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .base import InputError, RatMemo, is_row_list, rat, rat_str

Row = tuple  # a row vector: tuple of Fractions


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

    __slots__ = ("entries", "_ints")  # `_ints`: the conversion `int_matrix` keeps

    def __init__(self, rows: Sequence[Sequence]):
        if not is_row_list(rows):
            raise InputError("a matrix must be a list of row lists")
        ent = tuple(map(RatMemo().row, rows))
        if ent:
            w = len(ent[0])
            if any(len(r) != w for r in ent):
                raise InputError("ragged matrix rows")
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatMatrix is immutable")

    def __reduce__(self):  # a copy (`pickle`, `copy.deepcopy`) drops `_ints`
        return RatMatrix, (self.entries,)

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
        """The n x n identity, one shared instance per n: callers must not change
        its kept int rows, and `hn.sub_invariants` recognises V by its entries."""
        if n not in _IDENTITY:
            _IDENTITY[n] = cls._trusted(tuple(tuple(_ONE if i == j else _ZERO for j in range(n))
                                              for i in range(n)))
        return _IDENTITY[n]

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
        """Kronecker product self (x) other; a zero factor costs no product."""
        zeros = (_ZERO,) * other.cols
        out = []
        for ra in self.entries:
            for rb in other.entries:
                row = []
                for x in ra:
                    row.extend([x * y if y else _ZERO for y in rb] if x else zeros)
                out.append(tuple(row))
        return RatMatrix._trusted(tuple(out))

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
# span.  Per-entry loops run in builtins: `sum(map(mul, ...))`, `for` pivots.

_ZERO, _ONE = Fraction(0), Fraction(1)
_IDENTITY: dict = {}  # n -> the shared `RatMatrix.identity(n)`


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
    """(D*m as int rows, D) with D the common denominator of every entry of m.

    Kept on m, so each matrix is converted once: callers must not change the rows.
    """
    if not hasattr(m, "_ints"):
        d = math.lcm(*[_row_denominator(row) for row in m.entries])
        object.__setattr__(m, "_ints", ([_scaled(row, d) for row in m.entries], d))
    return m._ints


def int_apply(rows: Sequence, v: Sequence) -> list:
    """The int matrix `rows` times the int column vector v, zero entries included."""
    return [sum(map(mul, row, v)) for row in rows]


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
        for c, a in enumerate(r):
            if a:
                out.append((c, _primitive(r)))
                break
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
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
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
# polynomials
#
# Coefficient lists are in ascending degree order.  The characteristic
# polynomial and its rational roots run on Python ints; Fractions are built
# only for what they return.  The Newton polygon is `base.newton_polygon`.


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

    Greedily extends `inner` by RREF basis rows of `outer`, each tested
    against one integer echelon that grows by the rows chosen; requires
    span(inner) <= span(outer).
    """
    if not span_leq(inner, outer):
        raise InputError("inner space is not contained in outer space")
    echelon = int_echelon(map(int_row, _rat_rows(inner, ncols)))
    chosen = []
    for v in rref_rows(outer, ncols):
        grown = int_echelon([int_row(v)], echelon)
        if len(grown) > len(echelon):
            chosen.append(v)
            echelon = grown
    return tuple(chosen)
