"""The integer-row layers of the re-check (`induced_on_subspace`,
`restriction_matrix`) against their Fraction references in `_fraction_reference`."""

import random
from fractions import Fraction as F

import pytest

import _fraction_reference as ref
from slopecalc.filtration import HodgeData, induced_on_subspace
from slopecalc.base import FlagRequiredError, InputError
from slopecalc.rational import RatMatrix, complement_basis, restriction_matrix, span_intersect

DENS = [1, 1, 2, 3, 4, 5, 7, 9]


def rational_row(rng, n, height=4):
    return [F(rng.randint(-height, height), rng.choice(DENS)) for _ in range(n)]


def mixed(rng, rows):
    """Another spanning set of span(rows): each row plus multiples of the
    later ones (a unitriangular change), in shuffled order, not in RREF."""
    out = []
    for i, row in enumerate(rows):
        v = list(row)
        for other in rows[i + 1 :]:
            if rng.random() < 0.5:
                c = F(rng.randint(-2, 2), rng.choice([1, 3]))
                v = [a + c * b for a, b in zip(v, other)]
        out.append(v)
    rng.shuffle(out)
    return out


def wide_flag(rng, n):
    """A flag whose jumps lie up to 40 indices apart, each subspace also
    listed (in another presentation) at indices between the jumps."""
    base = [rational_row(rng, n) for _ in range(n)]
    dims = sorted(rng.sample(range(n), rng.randint(1, n)), reverse=True)
    entries, index = [], rng.randint(-30, 10)
    for d in dims:
        entries.append((index, mixed(rng, base[:d])))
        gap = rng.randint(1, 40)
        for extra in sorted(rng.sample(range(1, gap), min(gap - 1, 2))):
            entries.append((index + extra, mixed(rng, base[:d])))
        index += gap
    rng.shuffle(entries)
    return HodgeData.from_flag(entries, rank=n)


def subspaces(rng, h):
    """(label, rows) spanning sets of subspaces of the flag's ambient space."""
    n = h.rank
    ident = [[F(i == j) for j in range(n)] for i in range(n)]
    k = rng.randint(1, n)
    rows = [rational_row(rng, n) for _ in range(k)]
    dependent = rows + [[a - 2 * b for a, b in zip(rows[0], rows[-1])], [F(0)] * n]
    top = h.subspace_at(h.support()[0] + 1)  # the largest proper level
    return [
        ("random", rows),
        ("dependent", mixed(rng, dependent)),
        ("empty", []),
        ("zero rows", [[F(0)] * n, [F(0)] * n]),
        ("full", mixed(rng, ident)),
        ("complement", mixed(rng, complement_basis(top, ident, n))),
        ("inside a level", mixed(rng, top[: rng.randint(1, len(top))]) if top else []),
    ]


class TestInducedAgainstReference:
    def test_seeded_cases(self):
        rng = random.Random(2024)
        seen = {"wide": 0, "repeated": 0, "missed": 0}
        for _ in range(150):
            h = wide_flag(rng, rng.randint(1, 5))
            levels = [b for _, b in h.flag]
            seen["wide"] += len(levels) >= 40
            seen["repeated"] += len(set(levels)) < len(levels)
            for label, rows in subspaces(rng, h):
                got = induced_on_subspace(h, rows)
                assert got == ref.induced_on_subspace(h, rows), (h, label, rows)
                if label == "complement" and rows:
                    assert got.weights == (h.support()[0],) * got.rank
                    seen["missed"] += 1
        assert all(seen.values()), seen

    def test_exact_meets(self):
        # W = span(e1 + e2, e3) on Q^3; Fil^1 = span(e1, e2), Fil^2 = span(e1)
        h = HodgeData.from_flag([(1, [[1, 0, 0], [0, 1, 0]]), (2, [[1, 0, 0]])], rank=3)
        w = [[F(1, 2), F(1, 2), F(3)], [0, 0, F(1, 7)]]
        got = induced_on_subspace(h, w)
        assert got == ref.induced_on_subspace(h, w)
        # Fil^1 & W = span(e1 + e2), in W's RREF coordinates (1, 0); Fil^2 & W = 0
        assert got.flag == ((1, ((F(1), F(0)),)),) and got.weights == (0, 1)
        assert span_intersect(h.subspace_at(2), w, 3) == ()

    def test_errors_match(self):
        h = HodgeData.from_flag([(1, [[1, 0]])], rank=2)
        for f in (induced_on_subspace, ref.induced_on_subspace):
            with pytest.raises(InputError):
                f(h, [[1, 0, 0]])
            with pytest.raises(FlagRequiredError):
                f(HodgeData.from_weights([0, 1]), [[1, 0]])


def krylov_rows(m, v):
    """v, mv, m^2 v, ... up to the rank: a stable subspace's spanning set,
    dependent once the orbit closes."""
    rows = [list(v)]
    for _ in range(m.rows - 1):
        rows.append(list(m.apply(rows[-1])))
    return rows


class TestRestrictionAgainstReference:
    def test_seeded_cases(self):
        rng = random.Random(77)
        stable = unstable = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            m = RatMatrix([rational_row(rng, n, 3) for _ in range(n)])
            ident = [[F(i == j) for j in range(n)] for i in range(n)]
            orbit = krylov_rows(m, rational_row(rng, n))
            cases = [
                [rational_row(rng, n) for _ in range(rng.randint(1, n))],
                mixed(rng, orbit),
                orbit + [[F(0)] * n],
                [[F(0)] * n],
                mixed(rng, ident),
                [],
            ]
            # e_1 spans an eigenline of the upper triangle of m; e_n in general does not
            tri = RatMatrix([[x if j >= i else F(0) for j, x in enumerate(row)]
                             for i, row in enumerate(m.entries)])
            lines = [[[F(3, 2)] + [F(0)] * (n - 1)], [[F(0)] * (n - 1) + [F(1)]]]
            for mat, basis in [(m, c) for c in cases + lines] + [(tri, c) for c in lines]:
                want = ref.restriction_matrix(mat, basis)
                assert restriction_matrix(mat, basis) == want, (mat, basis)
                stable += want is not None and bool(basis)
                unstable += want is None
        assert stable and unstable

    def test_exact_values(self):
        # phi = diag(2, 1/3) on Q^2; the rows (1/2, 0) and (0, 5) are eigenvectors
        phi = RatMatrix([[2, 0], [0, F(1, 3)]])
        basis = [[F(1, 2), 0], [0, 5]]
        assert restriction_matrix(phi, basis) == RatMatrix([[2, 0], [0, F(1, 3)]])
        # a non-diagonal map on a plane it preserves, given by non-RREF rows
        m = RatMatrix([[0, 1, 1], [F(1, 2), 0, 0], [0, 0, 3]])
        basis = [[1, 1, 0], [1, -1, 0]]
        want = ref.restriction_matrix(m, basis)
        assert want is not None and restriction_matrix(m, basis) == want
        assert restriction_matrix(m, [[0, 0, 1]]) is None

    def test_errors_match(self):
        m = RatMatrix([[1, 0], [0, 1]])
        for f in (restriction_matrix, ref.restriction_matrix):
            with pytest.raises(InputError):
                f(m, [[1, 0, 0]])
