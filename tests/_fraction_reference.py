"""Test-only references for the integer-row code behind the reading of
rationals and flags, the re-check of subobjects, the sampled subobject
lattice, the rational-root search, the closed-mask listing of part lattices,
the scoring of t_H, the hyperplane of a lowering step and the HN filtration.

Most are the straightforward Fraction (or exhaustive) forms of ten
library functions:

  * `base.rat`: every string read by `fractions.Fraction` and its regex;
  * `HodgeData.from_flag`: each entry row-reduced to its canonical basis by
    `rref_rows`, and the nesting of each in the one before checked by
    `span_leq`, the ambient space standing before the first;

  * `induced_on_subspace`: the subspace row-reduced to its canonical basis,
    then every index of the filtration's support intersected with it
    (Zassenhaus, `span_intersect`), the intersection rewritten in subspace
    coordinates by `fraction_coordinates`, and the chain validated by
    `HodgeData.from_flag` rather than the library's internal flag builder;
  * `restriction_matrix`: the images m(b_i) computed over Fractions, then
    each solved for in the basis by `fraction_coordinates`;
  * `hn._sample_subobjects`: every Krylov closure grown from scratch over
    Fractions and collected in a set of canonical bases, whose iteration
    order picks the ten closures that are paired;
  * `rational.rational_roots`: every candidate a/b with a | const and b | lead
    (the same 10**12 give-up bound) tried by Fraction synthetic division;
  * `hn._n_closed_sums`: all 2^n part masks scanned for N-closure, as the
    library did before it walked the closed masks only;
  * `hn.lattice_scorer`'s t_H, the weight sum of leading columns in
    coordinates adapted to the flag: lo * dim W plus, for each index
    lo < j < hi, dim(W & Fil^j) from the rank formula
    dim W + dim Fil^j - dim(W + Fil^j), each rank by plain Fraction
    elimination;
  * `hn._top_hyperplane`: the kernels of the small-integer functionals on a
    complement of the protected part, walked in lexicographic order until one
    misses the positive part, as the library did before its closed form;
  * `hn.hn_filtration`: the greedy walk the library ran before it read the
    steps off the upper hull of the per-rank maximal degrees.  Each step is
    the element containing the current one (by `span_leq`) of largest slope
    over it, then largest rank, then smallest canonical basis, on the
    degrees of `lattice_scorer`.

The library versions eliminate on integer rows and must return equal values.
`fraction_coordinates` solves for coordinates by plain Fraction elimination,
so no reference runs the library's integer elimination.

The integer-row kernel of `rational` (`int_apply`, `_primitive`,
`int_residue`, `int_echelon`, `_gauss_jordan`, `int_kernel`, `int_rref`,
`int_det`) is kept here as it was written before its per-entry loops moved
into builtins: generator products that skip zero entries and `next(...)`
pivot searches.  The library must return the same integers, of the same
types, with the same pivots and the same effects on the rows it mutates.
"""

import itertools
import math
import random
from fractions import Fraction

from slopecalc.filtration import HodgeData
from slopecalc.hn import HNFiltration, HNStep, lattice_scorer
from slopecalc.base import InputError, is_row_list, json_int
from slopecalc.rational import RatMatrix, complement_basis, rref_rows, span_intersect, span_leq


def rat(x) -> Fraction:
    if type(x) is Fraction or isinstance(x, Fraction):
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


def from_flag(entries, rank=None) -> HodgeData:
    if rank is not None:
        json_int(rank, "flag ranks", 0)
    norm = []
    ncols = rank
    for idx, basis in entries:
        json_int(idx, "flag indices")
        if not is_row_list(basis):
            raise InputError("flag bases must be lists of row lists")
        rows = [tuple(rat(x) for x in row) for row in basis]
        for row in rows:
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise InputError("flag basis rows have inconsistent length")
        norm.append((idx, rows))
    if ncols is None:
        raise InputError("flag rank cannot be inferred; pass rank explicitly")
    if ncols == 0:
        return HodgeData((), ())
    norm.sort(key=lambda t: t[0])
    for (i1, _), (i2, _) in zip(norm, norm[1:]):
        if i1 == i2:
            raise InputError(f"duplicate flag index {i1}")
    raw = [(idx, rref_rows(rows, ncols)) for idx, rows in norm]
    if not raw:
        raise InputError("a flag on a nonzero space needs at least one entry")
    prev = tuple(RatMatrix.identity(ncols).entries)
    for _, basis in raw:
        if not span_leq(basis, prev):
            raise InputError("flag subspaces must be nested")
        prev = basis
    return HodgeData._from_chain(raw, ncols)


def induced_on_subspace(h: HodgeData, subspace) -> HodgeData:
    h.require_flag("induced_on_subspace")
    w_basis = rref_rows([tuple(rat(x) for x in row) for row in subspace], h.rank)
    k = len(w_basis)
    if k == 0:
        return HodgeData((), ())
    lo, hi = h.support()
    chain = []
    for j in range(lo, hi + 1):
        inter = span_intersect(h.subspace_at(j), w_basis, h.rank)
        coords = [fraction_coordinates(w_basis, v) for v in inter]
        if None in coords:
            raise InputError("vector not in subspace")
        chain.append((j, rref_rows(coords, k)))
    return HodgeData.from_flag(chain, rank=k)


def restriction_matrix(m: RatMatrix, basis):
    if not basis:
        return RatMatrix([])
    rows = [fraction_coordinates(basis, m.apply(v)) for v in basis]
    return None if None in rows else RatMatrix([list(r) for r in rows])


def fraction_coordinates(basis, v):
    """x with sum x_i basis_i = v, free unknowns zero, or None if v is outside the span.

    Gauss-Jordan over Fractions on the augmented transpose [basis^T | v]."""
    k = len(basis)
    rows = [[Fraction(b[c]) for b in basis] + [Fraction(v[c])] for c in range(len(v))]
    x, r = [Fraction(0)] * k, 0
    for c in range(k + 1):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        if c == k:
            return None  # a pivot in the target column: v is outside the span
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [a / rows[r][c] for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        r += 1
    for row in rows[:r]:
        x[next(c for c, a in enumerate(row) if a)] = row[k]
    return tuple(x)


def sample_subobjects(m, roots) -> tuple:
    mod, n = m.module, m.rank
    rng = random.Random(0)
    found = {(), tuple(RatMatrix.identity(n).entries)}

    def closure(vectors):
        span = rref_rows(vectors, n)
        while True:
            images = [op.apply(v) for op in (mod.phi, mod.nilpotent) for v in span]
            grown = rref_rows(list(span) + images, n)
            if grown == span:
                return span
            span = grown

    ident = RatMatrix.identity(n)
    for r, _mult in roots:
        for v in (mod.phi - ident.scale(r)).nullspace():
            found.add(closure([v]))
    power = ident
    for _ in range(n):
        power = power @ mod.nilpotent
        ker = power.nullspace()
        if ker:
            found.add(closure(list(ker)))
    for _ in range(12 * max(n, 1)):
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        if any(v):
            found.add(closure([v]))
        if len(found) >= 64:
            break
    singles = [b for b in found if b]
    for b1, b2 in itertools.combinations(singles[:10], 2):
        found.add(closure(list(b1) + list(b2)))
    return tuple(sorted(found, key=lambda b: (len(b), b)))


def divisors(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small) | {n // k for k in small})


def deflate(poly, r: Fraction):
    """Synthetic division of poly (ascending Fraction coeffs) by (x - r): (quotient, remainder)."""
    n = len(poly) - 1
    out = [Fraction(0)] * n
    acc = Fraction(0)
    for i in range(n, 0, -1):
        acc = poly[i] + acc * r
        out[i - 1] = acc
    return out, poly[0] + acc * r


def rational_roots(coeffs):
    """Rational roots with multiplicities and the leftover degree, by deflation alone."""
    poly = list(coeffs)
    while poly and poly[-1] == 0:
        poly.pop()
    deg = len(poly) - 1
    if deg <= 0:
        return [], 0
    denom = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * denom) for c in poly]
    lead, const = abs(ints[-1]), abs(next(i for i in ints if i))
    if lead > 10**12 or const > 10**12:
        return [], deg
    candidates = {Fraction(s * a, b) for a in divisors(const) for b in divisors(lead) for s in (1, -1)}
    roots = []
    for r in sorted(candidates):
        mult = 0
        while True:
            quo, rem = deflate(poly, r)
            if rem:
                break
            poly, mult = quo, mult + 1
        if mult:
            roots.append((r, mult))
    return roots, len(poly) - 1


def closed_masks(sizes, supports) -> tuple:
    """Every mask holding the support of each of its parts, by (dimension, mask)."""
    closed = []
    for mask in range(1 << len(sizes)):
        picked = [i for i in range(len(sizes)) if mask >> i & 1]
        if all(supports[i] & ~mask == 0 for i in picked):
            closed.append((sum(sizes[i] for i in picked), mask))
    return tuple(mask for _, mask in sorted(closed))


def fraction_rank(rows) -> int:
    """Rank of Fraction rows by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def t_h_by_ranks(h: HodgeData, basis) -> int:
    """t_H(W) = lo * dim W + the sum over lo < j < hi of dim(W & Fil^j)."""
    k = fraction_rank(basis)
    lo, hi = h.support()
    total = lo * k
    for j in range(lo + 1, hi):
        level = h.subspace_at(j)
        total += k + len(level) - fraction_rank(list(basis) + list(level))
    return total


def hyperplane_candidates(fil_top, protect, n):
    """Codimension-one subspaces of span(fil_top) holding span(protect).

    Kernels of the functionals with entries in -2..2 and a positive first
    nonzero entry on `complement_basis(protect, fil_top, n)`, in
    lexicographic order.  The walk is exhaustive (5^k tuples for a
    complement of dimension k), so it is practical only for k up to about 6
    or when an early candidate is the one wanted.
    """
    comp = complement_basis(protect, fil_top, n)
    k = len(comp)
    for coeffs in itertools.product(range(-2, 3), repeat=k):
        first = next((c for c in coeffs if c), 0)
        if first <= 0:
            continue  # the zero functional, or one normalised up to sign
        ker = RatMatrix([list(coeffs)]).nullspace()  # k-1 rows in comp coordinates
        rows = list(protect) + [
            tuple(sum((cvec[i] * comp[i][j] for i in range(k)), Fraction(0)) for j in range(n))
            for cvec in ker
        ]
        yield rref_rows(rows, n)


def top_hyperplane(fil_top, protect, inter, n):
    """The first candidate whose sum with `inter` is all of span(fil_top)."""
    return next(
        (h for h in hyperplane_candidates(fil_top, protect, n)
         if rref_rows(list(h) + list(inter), n) == fil_top),
        None,
    )


def greedy_filtration(m, lattice) -> HNFiltration:
    """The greedy maximal-destabilizing walk over every element of `lattice`."""
    scored = [(lattice.basis(key), inv) for key, inv in lattice_scorer(m, lattice)()]
    steps, current, cur_rank, cur_deg = [], (), 0, 0
    while cur_rank < m.rank:
        best, tied = None, []  # best: (degree, rank) over the current step
        for basis, (k, _, _, d) in scored:
            if k <= cur_rank or not span_leq(current, basis):
                continue
            dd, dk = d - cur_deg, k - cur_rank
            # sign of (slope, rank) against the best's, slopes cross-multiplied
            order = 1 if best is None else dd * best[1] - best[0] * dk or dk - best[1]
            if order > 0:
                best, tied = (dd, dk), [basis]
            elif order == 0:
                tied.append(basis)
        current = min(tied)
        cur_rank, cur_deg = cur_rank + best[1], cur_deg + best[0]
        steps.append(HNStep(current, Fraction(*best), cur_rank, best[1], Fraction(best[0])))
    return HNFiltration(tuple(steps), lattice.certified)


# ---------------------------------------------------------------------------
# the integer-row kernel, in its generator form


def int_apply(rows, v) -> list:
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero) for row in rows]


def _primitive(row: list) -> list:
    g = math.gcd(*row)
    return row if g < 2 else [a // g for a in row]


def int_residue(v: list, echelon) -> list:
    for c, row in echelon:
        f = v[c]
        if f:
            pv = row[c]
            v = [pv * a - f * b for a, b in zip(v, row)]
    return v


def int_echelon(rows, echelon=()) -> list:
    out = list(echelon)
    for v in rows:
        r = int_residue(v, out)
        c = next((j for j, a in enumerate(r) if a), None)
        if c is not None:
            out.append((c, _primitive(r)))
    return out


def _gauss_jordan(rows: list, ncols: int) -> list:
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
    pivots = _gauss_jordan(rows, ncols)
    return tuple(
        (c, tuple(row) if row[c] > 0 else tuple(-a for a in row)) for row, c in zip(rows, pivots)
    )


def int_det(rows: list) -> int:
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
