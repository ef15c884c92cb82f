"""Test-only references for the integer-row code behind the re-check of
subobjects, the sampled subobject lattice, the rational-root search and the
closed-mask listing of part lattices.

These are the straightforward Fraction (or exhaustive) forms of five
library functions:

  * `induced_on_subspace`: the subspace row-reduced to its canonical basis,
    then every index of the filtration's support intersected with it
    (Zassenhaus, `span_intersect`), the intersection rewritten in subspace
    coordinates by one `solve_coordinates`, and the chain validated by
    `HodgeData.from_flag` rather than the library's internal flag builder;
  * `restriction_matrix`: the images m(b_i) computed over Fractions, then
    all of them solved for at once in the basis;
  * `hn._sample_subobjects`: every Krylov closure grown from scratch over
    Fractions and collected in a set of canonical bases, whose iteration
    order picks the ten closures that are paired;
  * `hn._rational_roots`: every candidate a/b with a | const and b | lead
    (the same 10**12 give-up bound) tried by Fraction synthetic division;
  * `hn._n_closed_sums`: all 2^n part masks scanned for N-closure, as the
    library did before it walked the closed masks only.

The library versions eliminate on integer rows and must return equal values.
"""

import itertools
import math
import random
from fractions import Fraction

from slopecalc.filtration import KIND_FLAG, HodgeData
from slopecalc.rational import (
    InputError,
    RatMatrix,
    rat,
    rref_rows,
    solve_coordinates,
    span_intersect,
)


def induced_on_subspace(h: HodgeData, subspace) -> HodgeData:
    h.require_flag("induced_on_subspace")
    w_basis = rref_rows([tuple(rat(x) for x in row) for row in subspace], h.rank)
    k = len(w_basis)
    if k == 0:
        return HodgeData(KIND_FLAG, 0, (), ())
    lo, hi = h.support()
    chain = []
    for j in range(lo, hi + 1):
        inter = span_intersect(h.subspace_at(j), w_basis, h.rank)
        coords = solve_coordinates(w_basis, inter)
        if coords is None:
            raise InputError("vector not in subspace")
        chain.append((j, rref_rows(coords, k)))
    return HodgeData.from_flag(chain, rank=k)


def restriction_matrix(m: RatMatrix, basis):
    if not basis:
        return RatMatrix([])
    rows = solve_coordinates(basis, [m.apply(v) for v in basis])
    return None if rows is None else RatMatrix([list(r) for r in rows])


def sample_subobjects(m, seed: int, roots) -> tuple:
    mod, n = m.module, m.rank
    rng = random.Random(seed)
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
