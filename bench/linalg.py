"""Small exact linear algebra for the benchmark's generators and oracles.

Written independently so that the correctness checks share no code with the
library they check.  Ranks and determinants clear denominators row by row and
eliminate over the integers; nothing here rounds.
"""

from fractions import Fraction
from math import gcd


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def str_rows(rows):
    return [[_str(x) for x in row] for row in rows]


def _str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def apply(m, v):
    """m times the column vector v."""
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _integer_rows(rows):
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        if any(ints):
            out.append(ints)
    return out


def rank(rows):
    """Rank of a list of rational row vectors (fraction-free elimination)."""
    m = _integer_rows(rows)
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                row = [top[c] * x - f * y for x, y in zip(m[i], top)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == len(m):
            break
    return r


def det(rows):
    """Exact determinant of a square rational matrix (Bareiss over integers)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    m = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        scale /= den
        m.append([int(x * den) for x in row])
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * scale * m[n - 1][n - 1]


def coordinates(basis, v):
    """Coefficients c with sum c_i basis_i = v, or None; basis independent."""
    k = len(basis)
    n = len(v)
    aug = [[basis[i][c] for i in range(k)] + [v[c]] for c in range(n)]
    pivots = []
    r = 0
    for c in range(k + 1):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        if c == k:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    out = [Fraction(0)] * k
    for row, c in enumerate(pivots):
        out[c] = aug[row][k]
    return out


def vp(q, p):
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v
