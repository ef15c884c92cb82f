"""Answers depend only on the filtered module, not on how it is written down.

Four exact transforms rewrite a filtered (phi, N)-module as an isomorphic one:

  * a Tate twist: phi -> p^k phi, and every weight up by k (`filtration.shift`),
    so every subobject's t_H and t_N rise by k times its rank;
  * a unit scaling phi -> u phi, with v_p(u) = 0;
  * a scaling N -> c N, with c != 0;
  * a change of basis by a unimodular S: phi, N -> S phi S^-1, S N S^-1 and
    Fil^j -> S Fil^j, so a subspace W goes to S W.

The first three fix every subspace, so under them `is_weakly_admissible`,
`is_acyclic` and `hn_filtration` must return the very same verdicts and
filtrations.  Under a change of basis the status, the certification and the
HN slope list must not change; a certified HN filtration is unique, so its
steps must be S times the original steps; a witness must pull back to a
violator of the same rank (which violator comes first in canonical order
depends on the basis).

`KNOWN_EXCEPTIONS` lists where an answer may lose its certificate under a
transform today, each with the ROADMAP item that removes it; there only
certified answers are compared, and `test_known_exceptions_still_show`
fails once an exception stops showing, so the list stays honest.
"""

import random
from fractions import Fraction as F

import pytest

import test_hn
from _generators import (
    certified_filtered_instance,
    diagonal_instance,
    random_flag,
    random_unimodular,
)
from slopecalc.filtration import HodgeData, shift, t_h
from slopecalc.hn import (
    STATUS_FALSE,
    STATUS_UNCERTIFIED,
    FilteredPhiModule,
    enumerate_subobjects,
    hn_filtration,
    is_acyclic,
    is_weakly_admissible,
    sub_invariants,
)
from slopecalc.isocrystal import PhiModule, SlopeMultiset, from_slopes
from slopecalc.rational import RatMatrix, rref_rows

P = 2

KNOWN_EXCEPTIONS = {
    # `is_dm_normal` compares matrices entry by entry, so a slope normal form
    # that is conjugated, twisted or scaled falls back to the sample; a
    # recogniser that reads only the characteristic polynomial removes these
    # (ROADMAP item 5)
    ("blocks", "twist"): "item 5",
    ("blocks", "unit"): "item 5",
    ("blocks", "basis"): "item 5",
    # the sample draws its random vectors in the given coordinates, so a
    # change of basis samples other subspaces (ROADMAP item 12)
    ("sample", "basis"): "item 12",
}


def twist(m, k):
    mod = m.module
    return FilteredPhiModule(PhiModule(mod.p, mod.phi.scale(F(mod.p) ** k), mod.nilpotent),
                             shift(m.hodge, k))


def unit_scaling(m, u):
    mod = m.module
    return FilteredPhiModule(PhiModule(mod.p, mod.phi.scale(u), mod.nilpotent), m.hodge)


def n_scaling(m, c):
    mod = m.module
    return FilteredPhiModule(PhiModule(mod.p, mod.phi, mod.nilpotent.scale(c)), m.hodge)


def moved(s, basis):
    """Canonical basis of S W for W spanned by the rows of `basis`."""
    return rref_rows([s.apply(v) for v in basis], s.rows)


def change_of_basis(m, s):
    mod, s_inv = m.module, s.inverse()
    flag = [(j, [s.apply(v) for v in basis]) for j, basis in m.hodge.flag]
    return FilteredPhiModule(PhiModule(mod.p, s @ mod.phi @ s_inv, s @ mod.nilpotent @ s_inv),
                             HodgeData.from_flag(flag, rank=m.rank))


def degree_zero_flag(rng, m):
    """A random flag on m's space whose t_H is t_N(M), so that weak
    admissibility is decided by the lattice rather than by the degree."""
    n = m.rank
    weights = [rng.randint(-1, 3) for _ in range(n)]
    weights[-1] += m.module.tn - sum(weights)
    return FilteredPhiModule(m.module, random_flag(rng, n, min(weights), 0, weights=weights))


def modules():
    """(strategy, module) pairs: eigenlines with and without N chains, slope
    blocks, the scalar chain and the sample, each also with a degree-0 flag."""
    rng = random.Random(16)
    out = [certified_filtered_instance(rng, P, max_rank=4) for _ in range(24)]
    for slopes in ([(F(1, 2), 2), (F(0), 1)], [(F(1, 3), 3), (F(-1), 1)], [(F(2), 1)]):
        mod = from_slopes(SlopeMultiset(slopes), P)
        out.append(FilteredPhiModule(mod, random_flag(rng, mod.rank, 0, 2)))
    for n in (2, 3, 4):
        scalar = PhiModule.from_matrices(P, RatMatrix.identity(n).scale(P))
        out.append(FilteredPhiModule(scalar, random_flag(rng, n, 0, 3)))
    for seed, eig in enumerate(([2, 2, F(1, 2)], [2, 2, 2, F(1, 2)], [1, 1, 4])):
        out.append(test_hn.TestSampledLattice.conjugated([F(x) for x in eig], seed=seed))
    out += [degree_zero_flag(rng, m) for m in list(out)]
    return [(enumerate_subobjects(m).strategy, m) for m in out]


def transforms(rng):
    """(name, transform of modules, map of subspaces) triples, seeded."""
    k = rng.choice((-2, -1, 1, 3))
    u = F(rng.choice((-1, 3, -5)), rng.choice((1, 3, 7)))
    c = F(rng.choice((-3, 2, 5)), rng.choice((1, 4)))
    yield "twist", lambda m: twist(m, k), None
    yield "unit", lambda m: unit_scaling(m, u), None
    yield "n-scale", lambda m: n_scaling(m, c), None
    s = {n: random_unimodular(rng, n) for n in range(1, 5)}
    yield "basis", lambda m: change_of_basis(m, s[m.rank]), s


def answers(m):
    return is_weakly_admissible(m), is_acyclic(m), hn_filtration(m)


def check_witness(m, bound, verdict, pulled):
    """`pulled` (the transformed witness moved back) is a violator of m of the
    witness's rank; V itself is the witness of a nonzero degree."""
    k, _, _, deg = sub_invariants(m, pulled)
    assert k == len(verdict.witness)
    assert deg != bound if k == m.rank else deg > bound


def compare(m, t, s, exception):
    wa, ac, hn = answers(m)
    wa2, ac2, hn2 = answers(t)
    assert t_h(t.hodge) - t.module.tn == t_h(m.hodge) - m.module.tn
    if exception:
        # a certificate may be lost, never contradicted
        for a, b in ((wa, wa2), (ac, ac2)):
            assert STATUS_UNCERTIFIED in (a.status, b.status) or a.status == b.status
        if hn.certified and hn2.certified:
            assert hn.slopes() == hn2.slopes()
        return
    if s is None:  # every subspace is fixed
        assert (wa, ac, hn) == (wa2, ac2, hn2)
        return
    s_inv = s[m.rank].inverse()
    bounds = (0, t_h(m.hodge) - m.module.tn)
    for a, b, bound in ((wa, wa2, bounds[0]), (ac, ac2, bounds[1])):
        assert a.status == b.status
        if b.status == STATUS_FALSE:
            check_witness(m, bound, a, moved(s_inv, b.witness))
    assert hn.certified == hn2.certified and hn.slopes() == hn2.slopes()
    if hn.certified:
        assert [moved(s[m.rank], step.basis) for step in hn.steps] == \
            [step.basis for step in hn2.steps]


@pytest.mark.parametrize("seed", [0, 1])
def test_answers_are_invariant(seed):
    rng = random.Random(seed)
    cases = modules()
    assert {strategy for strategy, _ in cases} == {"eigenlines", "blocks", "scalar-chain",
                                                  "sample"}
    assert any(m.module.nilpotent != RatMatrix.zeros(m.rank, m.rank) for _, m in cases)
    for name, transform, s in transforms(rng):
        for strategy, m in cases:
            t = transform(m)
            compare(m, t, s, (strategy, name) in KNOWN_EXCEPTIONS)


def test_known_exceptions_still_show():
    # each listed pair moves some module off its strategy, or to a lattice
    # that is not the image of the original one
    shown = set()
    cases = modules()
    for name, transform, s in transforms(random.Random(0)):
        for strategy, m in cases:
            if (strategy, name) not in KNOWN_EXCEPTIONS:
                continue
            image = s[m.rank] if s else RatMatrix.identity(m.rank)
            lattice, moved_lattice = enumerate_subobjects(m), enumerate_subobjects(transform(m))
            elements = {moved(image, lattice.basis(key)) for key in lattice.keys}
            if moved_lattice.strategy != strategy or \
                    elements != {moved_lattice.basis(key) for key in moved_lattice.keys}:
                shown.add((strategy, name))
    assert shown == set(KNOWN_EXCEPTIONS)


def direct_sum(m1, m2):
    """M1 (+) M2: block-diagonal phi and N, and Fil^j = Fil^j M1 (+) Fil^j M2."""
    n1, n2 = m1.rank, m2.rank

    def block(a, b):
        return RatMatrix([list(r) + [F(0)] * n2 for r in a.entries] +
                         [[F(0)] * n1 + list(r) for r in b.entries])

    (lo1, hi1), (lo2, hi2) = m1.hodge.support(), m2.hodge.support()
    flag = [(j, [v + (F(0),) * n2 for v in m1.hodge.subspace_at(j)] +
             [(F(0),) * n1 + v for v in m2.hodge.subspace_at(j)])
            for j in range(min(lo1, lo2), max(hi1, hi2) + 1)]
    a, b = m1.module, m2.module
    return FilteredPhiModule(PhiModule(a.p, block(a.phi, b.phi), block(a.nilpotent, b.nilpotent)),
                             HodgeData.from_flag(flag, rank=n1 + n2))


def test_direct_sum_of_eigenline_modules_at_rank_16():
    # the HN filtration of M1 (+) M2 has the slopes of both, the ranks added
    # at a slope they share; past brute force (2^16 subobjects), and in a
    # basis that mixes the summands.  The second summand's phi is scaled by
    # the unit 5, so that the sixteen eigenvalues stay distinct.
    rng = random.Random(15)
    m1 = FilteredPhiModule(diagonal_instance(rng, P, 8, -4, 4, allow_n=False),
                           random_flag(rng, 8, 0, 3))
    m2 = unit_scaling(FilteredPhiModule(diagonal_instance(rng, P, 8, -4, 4, allow_n=False),
                                        random_flag(rng, 8, 0, 3)), F(5))
    merged = {}
    for m in (m1, m2):
        hn = hn_filtration(m)
        assert hn.certified
        for slope, rank in hn.slopes():
            merged[slope] = merged.get(slope, 0) + rank
    assert len(merged) < len(hn_filtration(m1).slopes()) + len(hn_filtration(m2).slopes())
    total = change_of_basis(direct_sum(m1, m2), random_unimodular(rng, 16))
    assert total.module.nilpotent.is_zero() and total.rank == 16
    lattice = enumerate_subobjects(total)
    assert (lattice.strategy, lattice.certified) == ("eigenlines", True)
    hn = hn_filtration(total)
    assert hn.certified
    assert hn.slopes() == sorted(merged.items(), reverse=True)
