"""Seeded random instance generators shared by the test modules.

Certified filtered-module instances come in two families:

  * conjugated diagonals: rational eigenvalues u * p^a with pairwise distinct
    exponents (so the subobject lattice is the certified eigenline lattice),
    optionally with a monodromy operator along eigenvalue chains;
  * slope normal forms with distinct slopes (one block per slope).

`chain_instance` and `block_chain_instance` always give N along the chains
that exist, and `chain_instance` allows repeated eigenvalues (a sampled
lattice).  Flags are random full flags with small-height rational entries.
"""

import random
from fractions import Fraction as F

from slopecalc.filtration import HodgeData
from slopecalc.hn import FilteredPhiModule
from slopecalc.isocrystal import PhiModule, SlopeMultiset, dm_blocks, from_slopes
from slopecalc.rational import RatMatrix


def random_unimodular(rng: random.Random, n: int) -> RatMatrix:
    """Product of elementary integer row operations; determinant +-1."""
    m = [[F(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = F(rng.choice([-2, -1, 1, 2]))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return RatMatrix(m)


def random_flag(rng: random.Random, n: int, lo: int, hi: int, weights=None) -> HodgeData:
    """Full flag with small entries and jump indices drawn from [lo, hi], or
    the given `weights` (each at least lo)."""
    while True:
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        t = RatMatrix(rows)
        if t.det() != 0:
            break
    if weights is None:
        weights = (rng.randint(lo, hi) for _ in range(n))
    weights = sorted(weights, reverse=True)
    entries = []
    for j in range(lo, max(weights) + 1):
        basis = [t.entries[i] for i in range(n) if weights[i] >= j]
        entries.append((j, basis))
    return HodgeData.from_flag(entries, rank=n)


def diagonal_instance(rng: random.Random, p: int, n: int, exp_lo: int, exp_hi: int,
                      allow_n: bool = True) -> PhiModule:
    """Conjugated diagonal with distinct eigenvalue valuations."""
    exponents = rng.sample(range(exp_lo, exp_hi + 1), n)
    units = [rng.choice([1, -1, 3]) if p != 3 else rng.choice([1, -1, 5]) for _ in range(n)]
    # occasionally force a chain so a nonzero monodromy operator exists
    if allow_n and n >= 2 and rng.random() < 0.4:
        exponents = sorted(exponents)
        units = [units[0]] * n
    eig = [F(units[i]) * F(p) ** exponents[i] for i in range(n)]
    diag = RatMatrix([[eig[i] if i == j else F(0) for j in range(n)] for i in range(n)])
    nil = [[F(0)] * n for _ in range(n)]
    if allow_n and rng.random() < 0.5:
        for i in range(n):
            for j in range(n):
                if i != j and eig[j] == eig[i] / p:
                    if rng.random() < 0.7:
                        nil[j][i] = F(rng.choice([1, 2]))
    nil_m = RatMatrix(nil)
    s = random_unimodular(rng, n)
    s_inv = s.inverse()
    return PhiModule(p, s @ diag @ s_inv, s @ nil_m @ s_inv)


def chain_instance(rng: random.Random, p: int, exponents) -> PhiModule:
    """Conjugated diag(p^e) over `exponents`, repeats allowed, with an N chain:
    N maps each p^e-eigenline into the p^(e-1)-eigenlines, each coefficient
    drawn from 0..2, and is nonzero whenever some exponent is one less than
    another."""
    n = len(exponents)
    diag = RatMatrix([[F(p) ** e if i == j else F(0) for j, e in enumerate(exponents)]
                      for i in range(n)])
    pairs = [(j, i) for i in range(n) for j in range(n) if exponents[j] == exponents[i] - 1]
    nil = [[F(0)] * n for _ in range(n)]
    for j, i in pairs:
        nil[j][i] = F(rng.choice([0, 1, 2]))
    if pairs and not any(map(any, nil)):
        j, i = rng.choice(pairs)
        nil[j][i] = F(1)
    s = random_unimodular(rng, n)
    s_inv = s.inverse()
    return PhiModule(p, s @ diag @ s_inv, s @ RatMatrix(nil) @ s_inv)


def block_chain_instance(rng: random.Random, p: int, slopes) -> PhiModule:
    """Slope normal form of the distinct `slopes`, one block each, with an N
    chain: N maps the block of slope s into the one of slope s - 1 when both
    exist, e_i to c p^i e_i (0-based i) with c from 1..2, which keeps
    N.phi = p.phi.N."""
    mod = from_slopes(SlopeMultiset([(s, F(s).denominator) for s in slopes]), p)
    at = {s: off for s, off, _ in dm_blocks(mod)}
    nil = [[F(0)] * mod.rank for _ in range(mod.rank)]
    for s, off in at.items():
        low = at.get(s - 1)
        if low is not None:
            c = rng.choice([1, 2])
            for i in range(s.denominator):
                nil[low + i][off + i] = F(c * p**i)
    return PhiModule(p, mod.phi, RatMatrix(nil), mod.form)


def certified_filtered_instance(rng: random.Random, p: int = 2, max_rank: int = 3,
                                weight_lo: int = 0, weight_hi: int = 3,
                                exp_lo: int = -2, exp_hi: int = 3) -> FilteredPhiModule:
    n = rng.randint(1, max_rank)
    mod = diagonal_instance(rng, p, n, exp_lo, exp_hi)
    hodge = random_flag(rng, n, weight_lo, weight_hi)
    return FilteredPhiModule(mod, hodge)


def one_level_family(n: int) -> FilteredPhiModule:
    """phi = diag(2^(w-i)) for i < n, w = n // 2, N = 0, p = 2, Fil^w = V.

    Certified acyclic of degree n(n-1)/2, with an eigenline lattice; the
    first lowering step's top jump is all of V.
    """
    w = n // 2
    phi = RatMatrix([[F(2) ** (w - i) if i == j else F(0) for j in range(n)] for i in range(n)])
    nil = RatMatrix([[F(0)] * n for _ in range(n)])
    return FilteredPhiModule(PhiModule(2, phi, nil),
                             HodgeData.from_flag([(w, RatMatrix.identity(n).entries)], rank=n))
