import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc.rational import (
    INFINITY,
    MR_LIMIT,
    InputError,
    Polygon,
    RatMatrix,
    charpoly,
    complement_basis,
    coordinates,
    int_kernel,
    int_row,
    int_rref,
    is_prime,
    newton_polygon,
    rat_rref,
    rat,
    rat_str,
    restriction_matrix,
    rref_rows,
    span_contains,
    span_intersect,
    span_leq,
    valuation,
)


def brute_valuation(q, p):
    # independent oracle: strip factors of p one by one
    q = F(q)
    if q == 0:
        return INFINITY
    v = 0
    while (q.numerator % p) == 0:
        q /= p
        v += 1
    while q.denominator % p == 0:
        q *= p
        v -= 1
    return v


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(200_000) if is_prime(n)] == [
            n for n in range(200_000) if trial(n)
        ]

    def test_large_primes_accepted_quickly(self):
        start = time.perf_counter()
        for p in (2**61 - 1, 10**15 + 37):
            assert is_prime(p)
            assert valuation(F(p**3, 7), p) == 3
        assert time.perf_counter() - start < 1

    def test_pseudoprimes_rejected(self):
        # a Carmichael number, then the least strong pseudoprimes to the
        # bases 2, 3, 5, 7 and to the first nine primes
        for n in (561, 3215031751, 3825123056546413051):
            assert not is_prime(n)

    def test_beyond_the_proven_bound(self):
        # the bound is itself composite and a strong pseudoprime to all 13 bases
        with pytest.raises(InputError):
            is_prime(MR_LIMIT)
        with pytest.raises(InputError):
            valuation(1, MR_LIMIT + 142)
        assert not is_prime(2 * MR_LIMIT)  # a factor among the bases still decides


class TestValuation:
    def test_zero_is_infinite(self):
        assert valuation(0, 5) == INFINITY

    def test_unit(self):
        assert valuation(1, 3) == 0

    def test_eighteen_twentyfifths(self):
        # 18/25 = 2 * 3^2 / 5^2, so v_5 = -2
        assert valuation(F(18, 25), 5) == -2

    def test_rejects_non_prime(self):
        with pytest.raises(InputError):
            valuation(F(1, 2), 6)
        with pytest.raises(InputError):
            valuation(1, 1)

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=60),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_matches_brute_force(self, q, p):
        assert valuation(q, p) == brute_valuation(q, p)

    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(lambda q: q != 0),
        st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(lambda q: q != 0),
        st.sampled_from([2, 3, 5]),
    )
    def test_multiplicative(self, x, y, p):
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def poly_mul(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


class TestNewtonPolygon:
    def test_linear_unit_root(self):
        # x - 1
        assert newton_polygon([-1, 1], 7) == [(F(0), 1)]

    def test_x2_minus_p(self):
        # hull through (0,1), (2,0): slope -1/2, so root valuation 1/2 twice
        assert newton_polygon([-5, 0, 1], 5) == [(F(1, 2), 2)]

    def test_split_polygon(self):
        # x^2 - (1+p)x + p: hull (0,1), (1,0), (2,0)
        p = 3
        assert newton_polygon([p, -(1 + p), 1], p) == [(F(0), 1), (F(1), 1)]

    def test_errors(self):
        with pytest.raises(InputError):
            newton_polygon([], 2)
        with pytest.raises(InputError):
            newton_polygon([0, 0], 2)
        with pytest.raises(InputError):
            newton_polygon([0, 1], 2)  # zero constant coefficient
        with pytest.raises(InputError):
            newton_polygon([1, 1, 0], 2)  # zero leading coefficient

    def test_degree_zero(self):
        assert newton_polygon([F(3, 2)], 2) == []

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.sampled_from([2, 3, 5]),
    )
    def test_multiplicativity(self, f, g, p):
        # valuations of roots of f*g = multiset union of those of f and of g
        f = [F(c) for c in f]
        g = [F(c) for c in g]
        if not f[0] or not f[-1] or not g[0] or not g[-1]:
            return
        fg = poly_mul(f, g)

        def expand(pairs):
            out = []
            for s, m in pairs:
                out.extend([s] * m)
            return sorted(out)

        assert expand(newton_polygon(fg, p)) == sorted(
            expand(newton_polygon(f, p)) + expand(newton_polygon(g, p))
        )

    @staticmethod
    def polygon_route(coeffs, p):
        """Root valuations by `Polygon.lower_hull` on Fraction points, the route
        `newton_polygon` took before its integer hull."""
        pts = [(i, valuation(c, p)) for i, c in enumerate(coeffs) if c]
        return sorted(((-s, m) for s, m in Polygon.lower_hull(pts).slopes()), key=lambda t: t[0])

    @staticmethod
    def seeded_polynomial(rng, p, kind):
        """Nonzero end coefficients; "collinear" puts every valuation on a line
        of integer slope, "rational" gives coefficients denominators."""
        deg = rng.randint(1, 9)
        step, base = rng.randint(-3, 3), rng.randint(-4, 4)
        coeffs = []
        for i in range(deg + 1):
            v = base + step * i if kind == "collinear" else rng.randint(-3, 6)
            c = F(rng.choice([1, -1, 3, -7, 11]), rng.choice([1, 4, 9]) if kind == "rational" else 1)
            coeffs.append(c * F(p) ** v)
            if 0 < i < deg and rng.random() < 0.25:
                coeffs[-1] = F(0)
        return coeffs

    @staticmethod
    def off_vertex_on_hull(coeffs, p):
        """Whether a point that is not a hull vertex lies on the lower hull."""
        pts = [(i, valuation(c, p)) for i, c in enumerate(coeffs) if c]
        vertices = Polygon.lower_hull(pts).vertices
        return any((y - y1) * (x2 - x1) == (y2 - y1) * (x - x1)
                   for (x1, y1), (x2, y2) in zip(vertices, vertices[1:])
                   for x, y in pts if x1 < x < x2)

    def test_integer_hull_equals_the_polygon_route_and_the_cli_walk(self):
        from slopecalc.cli import _oracle_newton

        rng = random.Random(1616)
        seen = set()
        for _ in range(600):
            p = rng.choice([2, 3, 5])
            coeffs = self.seeded_polynomial(rng, p, rng.choice(["plain", "rational", "collinear"]))
            got = newton_polygon(coeffs, p)
            assert got == self.polygon_route(coeffs, p)
            _oracle_newton(coeffs, p, got)  # raises on disagreement
            seen.update({"rational"} if any(c.denominator > 1 for c in coeffs) else set())
            seen.update({"interior zero"} if 0 in coeffs[1:-1] else set())
            seen.update({"collinear"} if self.off_vertex_on_hull(coeffs, p) else set())
            seen.update({"one segment"} if len(got) == 1 else set())
            seen.update({"several segments"} if len(got) > 2 else set())
        assert seen == {"rational", "interior zero", "collinear", "one segment", "several segments"}

    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=7), st.sampled_from([2, 5]))
    def test_multiplicities_sum_to_degree(self, coeffs, p):
        if not coeffs[0] or not coeffs[-1]:
            return
        pairs = newton_polygon(coeffs, p)
        assert sum(m for _, m in pairs) == len(coeffs) - 1


def det_by_permutations(m: RatMatrix):
    # independent oracle: Leibniz expansion
    import itertools

    n = m.rows
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = F(1)
        for i in range(n):
            term *= m.entries[i][perm[i]]
        total += sign * term
    return total


class TestMatrix:
    def test_charpoly_identity(self):
        assert charpoly(RatMatrix.identity(2)) == [F(1), F(-2), F(1)]

    def test_charpoly_diag(self):
        p = 5
        m = RatMatrix([[1, 0], [0, p]])
        assert charpoly(m) == [F(p), F(-(1 + p)), F(1)]

    def test_charpoly_companion(self):
        p = 2
        m = RatMatrix([[0, p], [1, 0]])
        assert charpoly(m) == [F(-p), F(0), F(1)]

    def test_charpoly_rank_zero(self):
        assert charpoly(RatMatrix([])) == [F(1)]

    @settings(max_examples=40)
    @given(
        st.lists(
            st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_bareiss_matches_permutation_expansion(self, rows):
        m = RatMatrix(rows)
        assert m.det() == det_by_permutations(m)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    def test_charpoly_kills_eigenvalues(self, diag):
        n = len(diag)
        m = RatMatrix([[F(diag[i]) if i == j else F(0) for j in range(n)] for i in range(n)])
        coeffs = charpoly(m)
        for lam in diag:
            value = sum(c * F(lam) ** k for k, c in enumerate(coeffs))
            assert value == 0

    def test_inverse(self):
        m = RatMatrix([[1, 2], [3, 5]])
        assert m @ m.inverse() == RatMatrix.identity(2)
        with pytest.raises(InputError):
            RatMatrix([[1, 2], [2, 4]]).inverse()

    def test_nullspace(self):
        m = RatMatrix([[1, 2, 3], [2, 4, 6]])
        ns = m.nullspace()
        assert len(ns) == 2
        for v in ns:
            assert m.apply(v) == (F(0), F(0))

    def test_kron_shape(self):
        a = RatMatrix([[1, 2], [0, 1]])
        b = RatMatrix([[3]])
        assert a.kron(b) == RatMatrix([[3, 6], [0, 3]])


class TestPolygon:
    def test_lower_hull(self):
        poly = Polygon.lower_hull([(0, 1), (1, 0), (2, 0), (1, 5)])
        assert poly.vertices == ((0, F(1)), (1, F(0)), (2, F(0)))

    def test_rejects_concave(self):
        with pytest.raises(InputError):
            Polygon([(0, F(0)), (1, F(1)), (2, F(0))])

    def test_rejects_non_increasing_x(self):
        with pytest.raises(InputError):
            Polygon([(0, F(0)), (0, F(1))])

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(-5, 5)), min_size=1, max_size=8))
    def test_hull_below_all_points(self, pts):
        poly = Polygon.lower_hull(pts)
        verts = dict(poly.vertices)
        for x, y in pts:
            # interpolate the hull at x and compare
            vs = poly.vertices
            if x < vs[0][0] or x > vs[-1][0]:
                continue
            for (x1, y1), (x2, y2) in zip(vs, vs[1:]):
                if x1 <= x <= x2:
                    hull_y = y1 + (F(y2) - y1) * (x - x1) / (x2 - x1)
                    assert hull_y <= y
                    break
            else:
                assert vs[0][0] == x and vs[0][1] <= y


class TestSpans:
    def test_coordinates_and_containment(self):
        basis = rref_rows([(F(1), F(0), F(1)), (F(0), F(1), F(1))], 3)
        assert coordinates(basis, (F(1), F(1), F(2))) is not None
        assert not span_contains(basis, (F(0), F(0), F(1)))

    def test_intersection(self):
        a = rref_rows([(F(1), F(0)), (F(0), F(1))], 2)
        b = rref_rows([(F(1), F(1))], 2)
        inter = span_intersect(a, b, 2)
        assert inter == b

    def test_restriction(self):
        m = RatMatrix([[1, 0], [0, 5]])
        sub = rref_rows([(F(0), F(1))], 2)
        restr = restriction_matrix(m, sub)
        assert restr == RatMatrix([[5]])
        assert restriction_matrix(RatMatrix([[0, 1], [1, 0]]), sub) is None

    def test_complement(self):
        inner = rref_rows([(F(1), F(0), F(0))], 3)
        outer = rref_rows([(F(1), F(0), F(0)), (F(0), F(1), F(0))], 3)
        comp = complement_basis(inner, outer, 3)
        assert len(comp) == 1 and span_contains(outer, comp[0])


class TestRatParsing:
    def test_strings(self):
        assert rat("3/4") == F(3, 4)
        assert rat("-2") == F(-2)
        assert rat_str(F(3, 4)) == "3/4"
        assert rat_str(F(5)) == "5"

    def test_rejects_floats_and_decimals(self):
        with pytest.raises(InputError):
            rat(1.5)
        with pytest.raises(InputError):
            rat("1.5")
        with pytest.raises(InputError):
            rat("1e3")


class TestComplementErrors:
    def test_inner_must_lie_inside_outer(self):
        inner = rref_rows([(F(1), F(0))], 2)
        outer = rref_rows([(F(0), F(1))], 2)
        with pytest.raises(InputError):
            complement_basis(inner, outer, 2)


# ---------------------------------------------------------------------------
# the integer-row kernel against from-scratch Fraction references


def ref_rref(rows, ncols):
    """Gauss-Jordan over Fractions: (all rows of the RREF, pivot columns)."""
    rows = [[F(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(r) for r in rows], tuple(pivots)


def ref_charpoly(m: RatMatrix):
    """Ascending coefficients from principal minors: c_{n-k} = (-1)^k sum det A[S, S]."""
    import itertools

    n = m.rows
    coeffs = [F(0)] * (n + 1)
    for k in range(n + 1):
        total = F(0)
        for sub in itertools.combinations(range(n), k):
            minor = RatMatrix([[m.entries[i][j] for j in sub] for i in sub]) if sub else None
            total += det_by_permutations(minor) if minor is not None else F(1)
        coeffs[n - k] = (-1) ** k * total
    return coeffs


def ref_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def kernel_cases():
    """Seeded matrices: a different denominator in each row, zero rows, rank
    deficiency, non-square shapes, and the empty and 1x1 cases."""
    import random

    rng = random.Random(1968)
    cases = [RatMatrix([]), RatMatrix([[F(0)]]), RatMatrix([[F(-7, 3)]]), RatMatrix([[], []])]
    for shape in [(2, 2), (3, 3), (4, 4), (5, 5), (2, 3), (3, 5), (4, 2), (5, 3)] * 4:
        r, c = shape
        dens = rng.sample([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 25], r)
        rows = [[F(rng.randint(-9, 9), d) for _ in range(c)] for d in dens]
        roll = rng.random()
        if roll < 0.25 and r > 1:
            rows[rng.randrange(r)] = [F(0)] * c  # a zero row
        elif roll < 0.6 and r > 2:
            i, j, k = rng.sample(range(r), 3)  # row i depends on rows j and k
            a, b = F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 7)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        cases.append(RatMatrix(rows))
    return cases


KERNEL_CASES = kernel_cases()


class TestIntegerKernel:
    def test_rref_and_rank(self):
        for m in KERNEL_CASES:
            red, piv = m.rref()
            want_rows, want_piv = ref_rref(m.entries, m.cols)
            assert (red.entries, piv) == (tuple(want_rows), want_piv), m
            assert all(isinstance(x, F) for row in red.entries for x in row)
            assert m.rank() == len(want_piv), m

    def test_det(self):
        for m in KERNEL_CASES:
            if m.is_square():
                assert m.det() == det_by_permutations(m), m
            else:
                with pytest.raises(InputError):
                    m.det()

    def test_charpoly(self):
        for m in filter(RatMatrix.is_square, KERNEL_CASES):
            got = charpoly(m)
            assert got == ref_charpoly(m), m
            assert all(isinstance(x, F) for x in got)

    def test_nullspace(self):
        for m in KERNEL_CASES:
            basis = m.nullspace()
            want_rows, want_piv = ref_rref(m.entries, m.cols)
            assert len(basis) == m.cols - len(want_piv), m
            for v in basis:
                assert all(sum((a * x for a, x in zip(row, v)), F(0)) == 0 for row in m.entries)
            assert list(basis) == ref_rref(basis, m.cols)[0][: len(basis)], m

    def test_int_kernel(self):
        for m in KERNEL_CASES:
            basis = int_kernel([int_row(r) for r in m.entries], m.cols)
            assert all(isinstance(x, int) for v in basis for x in v)
            assert rref_rows(basis, m.cols) == m.nullspace(), m

    def test_int_rref_keys_spans(self):
        # equal spans share a key however they are spanned, and the key gives the RREF
        for m in KERNEL_CASES:
            rows = [int_row(r) for r in m.entries]
            key = int_rref(rows[:], m.cols)
            assert rat_rref(key) == rref_rows(m.entries, m.cols), m
            assert all(row[c] > 0 and math.gcd(*row) == 1 for c, row in key)
            # the rows reversed, and row i replaced by 3 row i - row i-1 (3 - shift is invertible)
            mixed = [[3 * a - b for a, b in zip(rows[i], rows[i - 1])] for i in range(len(rows))]
            assert int_rref(rows[::-1], m.cols) == key == int_rref(mixed, m.cols), m

    def test_inverse(self):
        singular = 0
        for m in filter(RatMatrix.is_square, KERNEL_CASES[1:]):
            if det_by_permutations(m) == 0:
                singular += 1
                with pytest.raises(InputError):
                    m.inverse()
                continue
            inv = m.inverse().entries
            ident = [[F(i == j) for j in range(m.rows)] for i in range(m.rows)]
            assert ref_mul(m.entries, inv) == ident == ref_mul(inv, m.entries), m
        assert singular > 0


# ---------------------------------------------------------------------------
# the row-space helpers against from-scratch Fraction references


def ref_span(rows, ncols):
    """Nonzero rows of the Fraction RREF: the canonical basis of span(rows)."""
    red, piv = ref_rref(rows, ncols)
    return red[: len(piv)]


def ref_kernel(rows, ncols):
    """Canonical basis of {x : r.x = 0 for every row r}, from the Fraction RREF."""
    red, piv = ref_rref(rows, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in piv):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, c in enumerate(piv):
            v[c] = -red[r][f]
        out.append(v)
    return ref_span(out, ncols)


def ref_contains(basis, v, ncols):
    return len(ref_span(list(basis) + [v], ncols)) == len(ref_span(basis, ncols))


def ref_coordinates(basis, v):
    """Solve sum x_i basis_i = v over Fractions, free unknowns zero; None if inconsistent."""
    k = len(basis)
    aug = [[b[c] for b in basis] + [v[c]] for c in range(len(v))]
    red, piv = ref_rref(aug, k + 1)
    if k in piv:
        return None
    x = [F(0)] * k
    for r, c in enumerate(piv):
        x[c] = red[r][k]
    return tuple(x)


def ref_intersect(a, b, ncols):
    # span(a) & span(b) = ann(ann(a) + ann(b))
    return ref_kernel(ref_kernel(a, ncols) + ref_kernel(b, ncols), ncols)


def ref_complement(inner, outer, ncols):
    chosen = []
    for v in ref_span(outer, ncols):
        if not ref_contains(list(inner) + chosen, v, ncols):
            chosen.append(v)
    return tuple(chosen)


def span_cases():
    """Seeded (ncols, basis) pairs: a different denominator in each row, bases
    that are not in RREF, dependent rows, zero rows, the empty basis and the
    full space."""
    import random

    rng = random.Random(1993)
    dens = [1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 25]
    cases = []
    for _ in range(120):
        n = rng.randint(1, 5)
        k = rng.randint(0, n + 1)
        rows = [[F(rng.randint(-6, 6), d) for _ in range(n)] for d in rng.sample(dens, k)]
        roll = rng.random()
        if roll < 0.2 and k:
            rows[rng.randrange(k)] = [F(0)] * n
        elif roll < 0.45 and k > 2:
            i, j, l = rng.sample(range(k), 3)
            a, b = F(rng.randint(-3, 3), 5), F(rng.randint(-3, 3), 11)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
        elif roll < 0.55:
            rows = [[F(i == j, dens[i]) for j in range(n)] for i in range(n)]
        cases.append((n, [tuple(r) for r in rows]))
    return cases


def krylov(m, v):
    """span(v, mv, m^2 v, ...): the smallest m-stable subspace holding v."""
    rows = [tuple(v)]
    while True:
        nxt = m.apply(rows[-1])
        if ref_contains(rows, nxt, m.cols):
            return rows
        rows.append(nxt)


SPAN_CASES = span_cases()


class TestRowSpaceHelpers:
    def vectors(self, n, basis, rng):
        """In-span combinations, zero, unit vectors and random vectors."""
        out = [tuple(F(0) for _ in range(n))]
        out += [tuple(F(i == j) for j in range(n)) for i in range(n)]
        out += [tuple(F(rng.randint(-4, 4), rng.choice([1, 3, 8])) for _ in range(n))]
        if basis:
            cs = [F(rng.randint(-3, 3), rng.choice([1, 2, 7])) for _ in basis]
            out.append(tuple(sum((c * b[j] for c, b in zip(cs, basis)), F(0)) for j in range(n)))
        return out

    def test_coordinates_and_containment(self):
        import random

        rng = random.Random(7)
        inside = outside = 0
        for n, basis in SPAN_CASES:
            targets = self.vectors(n, basis, rng)
            want = [ref_coordinates(basis, v) if basis else
                    (() if not any(v) else None) for v in targets]
            for v, w in zip(targets, want):
                assert coordinates(basis, v) == w, (basis, v)
                assert span_contains(basis, v) == ref_contains(basis, v, n), (basis, v)
                inside += w is not None
                outside += w is None
        assert inside and outside

    def test_span_leq(self):
        seen = set()
        for (n, a), (m, b) in zip(SPAN_CASES, SPAN_CASES[1:] + SPAN_CASES[:1]):
            pairs = [(a, a)]
            if n == m:
                pairs += [(a, b), (b, a), ([], b), (a, []), (a, ref_span(a, n) + ref_span(b, n))]
            for x, y in pairs:
                want = all(ref_contains(y, v, n) for v in x)
                assert span_leq(x, y) == want, (x, y)
                seen.add(want)
        assert seen == {True, False}

    def test_span_intersect(self):
        nonzero = 0
        for (n, a), (m, b) in zip(SPAN_CASES, SPAN_CASES[1:] + SPAN_CASES[:1]):
            if n != m:
                continue
            for x, y in [(a, b), (b, a), (a, a), (a, []), ([], b)]:
                want = tuple(ref_intersect(x, y, n)) if x and y else ()
                got = span_intersect(x, y, n)
                assert got == want, (x, y)
                assert all(isinstance(e, F) for row in got for e in row)
                nonzero += bool(want) and len(want) < n
        assert nonzero

    def test_nullspace(self):
        for n, basis in SPAN_CASES:
            if basis:
                assert RatMatrix(basis).nullspace() == tuple(ref_kernel(basis, n)), basis

    def test_restriction_matrix(self):
        import random

        rng = random.Random(11)
        stable = unstable = 0
        for n, basis in SPAN_CASES:
            m = RatMatrix([[F(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in range(n)]
                           for _ in range(n)])
            for sub in (basis, krylov(m, basis[0]) if basis and any(basis[0]) else []):
                want = [ref_coordinates(sub, m.apply(b)) for b in sub]
                got = restriction_matrix(m, sub)
                if None in want:
                    assert got is None, (m, sub)
                    unstable += 1
                else:
                    assert got == RatMatrix([list(r) for r in want]), (m, sub)
                    stable += bool(sub)
        assert stable and unstable

    def test_complement_basis(self):
        for (n, a), (m, b) in zip(SPAN_CASES, SPAN_CASES[1:] + SPAN_CASES[:1]):
            outer = list(a) + list(b) if n == m else list(a)
            for inner in (a, ref_intersect(a, b, n) if n == m else [], []):
                assert complement_basis(inner, outer, n) == ref_complement(inner, outer, n)

    def test_string_entries_and_length_mismatch(self):
        basis = [("1/2", "0", "1"), ("0", "3", "-1/4")]
        assert coordinates(basis, ("1", "3", "7/4")) == (F(2), F(1))
        assert span_contains(basis, ("1/2", "3", "3/4"))
        assert span_intersect(basis, [("1", "0", "2")], 3) == ((F(1), F(0), F(2)),)
        for call in (lambda: coordinates(basis, (1, 2)),
                     lambda: span_contains(basis, (1, 2)),
                     lambda: span_intersect(basis, [(1, 2)], 3)):
            with pytest.raises(InputError):
                call()


class TestSampledPathStability:
    def test_repeated_eigenvalue_with_uneven_row_denominators(self):
        # phi = S diag(1/2, 1/2, 1) S^-1 and N = S E S^-1 with E mapping the
        # 1-line into the 1/2-plane, so N.phi = 2.phi.N; the rows of phi
        # carry different denominators, so clearing them row by row would
        # change the map the sampled closure grows under
        from slopecalc.filtration import HodgeData
        from slopecalc.hn import FilteredPhiModule, enumerate_subobjects
        from slopecalc.isocrystal import PhiModule

        s = RatMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        diag = RatMatrix([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, 1]])
        e = RatMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        phi = s @ diag @ s.inverse()
        nil = s @ e @ s.inverse()
        assert len({max(x.denominator for x in row) for row in phi.entries}) > 1
        mod = PhiModule.from_matrices(2, phi, nil)  # construction checks the rule
        hodge = HodgeData.from_flag([(1, [[1, 1, 0], [0, 1, 2]]), (2, [[1, 1, 0]])], rank=3)
        lattice = enumerate_subobjects(FilteredPhiModule(mod, hodge))
        assert lattice.strategy == "sample" and not lattice.certified
        assert len(lattice.keys) > 3
        for basis in map(lattice.basis, lattice.keys):
            assert restriction_matrix(phi, basis) is not None
            assert all(span_contains(basis, nil.apply(v)) for v in basis)
