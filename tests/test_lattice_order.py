"""A subobject lattice is a set: no answer depends on the order of its elements.

Each seeded module, of every strategy (eigenlines, slope blocks, the scalar
chain and a sample) at ranks 2-7, with an N chain where the strategy allows
one, is decided on its own lattice and again on the same lattice rebuilt
with its parts permuted: a sample's bases reversed and shuffled through
`SubobjectLattice.sample`, a part lattice's parts permuted, their
N-supports remapped, through `hn._n_closed_sums`.  The walk then meets the
elements in another order, yet `hn`, `wa`, `acyclic` and `vst` must give the
same output, and the `--oracle` checks must pass on the rebuilt lattice.
"""

import math
import random
from fractions import Fraction as F

import pytest

from slopecalc import hn, oracle
from slopecalc.base import lower_hull_vertices
from slopecalc.hn import (
    FilteredPhiModule,
    hn_filtration,
    is_acyclic,
    is_weakly_admissible,
    vst_dimension,
)
from slopecalc.isocrystal import PhiModule, newton_slopes
from slopecalc.rational import RatMatrix

from _generators import block_chain_instance, chain_instance, random_flag

P = 2
BLOCK_SLOPES = {2: [F(1, 2)], 3: [0, F(1, 2)], 4: [F(1, 2), F(3, 2)], 5: [0, F(1, 2), F(3, 2)],
                6: [F(1, 3), F(4, 3)], 7: [-1, 0, 1, F(1, 2), F(3, 2)]}


def _weights(rng, slopes):
    """Hodge weights for a module of these Newton slopes: mostly of degree
    zero, the rounded slopes with a few units moved between them, often from
    the largest weight to the least, which makes the lines of least slope
    violate, so that both verdicts occur with witnesses inside V; otherwise
    random."""
    n = len(slopes)
    if rng.random() < 0.2:
        return [rng.randint(-1, n) for _ in slopes]
    weights = [math.floor(s) for s in slopes]
    for i in rng.sample(range(n), int(sum(slopes)) - sum(weights)):
        weights[i] += 1
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            i, j = weights.index(min(weights)), weights.index(max(weights))
        weights[i] += 1
        weights[j] -= 1
    return weights


def _cases():
    """(name, module): two of each strategy at each rank from 2 to 7, and two
    more samples from rank 4, where a second repeated eigenvalue fits."""
    rng = random.Random(3901)
    cases = []
    for n in [n for n in range(2, 8) for _ in range(2)]:
        scalar = rng.choice([1, -1, 3]) * F(P) ** rng.randint(-1, 2)
        mods = [("eigenlines", chain_instance(rng, P, rng.sample(range(-1, n + 2), n))),
                ("blocks", block_chain_instance(rng, P, BLOCK_SLOPES[n])),
                ("scalar-chain", PhiModule.from_matrices(P, RatMatrix.identity(n).scale(scalar)))]
        e = rng.randint(-1, 1)
        for head in [[e, e + 1, e]] * (n > 2) + [[e, e + 1, e, e + 1]] * (n > 3):
            tail = rng.sample(range(e + 2, e + n + 2), n - len(head))
            mods.append(("sample", chain_instance(rng, P, head + tail)))  # beside an N chain
        for strategy, mod in mods:
            weights = _weights(rng, [s for s, k in newton_slopes(mod) for _ in range(k)])
            hodge = random_flag(rng, n, min(weights), max(weights), weights)
            cases.append((f"{strategy}/{n}/{len(cases)}", FilteredPhiModule(mod, hodge)))
    return cases


CASES = _cases()


def _fresh(m):
    """A copy of `m` on a rebuilt module, which keeps no lattice yet."""
    return FilteredPhiModule(PhiModule.from_obj(m.module.to_obj()), m.hodge)


def _decide(m):
    """The answers of `hn`, `wa`, `acyclic` and `vst`."""
    return hn_filtration(m), is_weakly_admissible(m), is_acyclic(m), vst_dimension(m)


def _rebuilt(lattice, rng):
    """The lattices with the same elements and their parts in other orders."""
    if lattice.order is None:  # a sample: its bases, zero and full among them
        bases = [lattice.basis(key) for key in lattice.keys]
        shuffled = [bases[::-1]] + [rng.sample(bases, len(bases)) for _ in range(2)]
        return [hn.SubobjectLattice.sample(b) for b in shuffled]
    needs = dict(lattice.order)
    k = len(lattice.parts)
    out = []
    for perm in [list(range(k))[::-1]] + [rng.sample(range(k), k) for _ in range(2)]:
        at = {old: new for new, old in enumerate(perm)}  # old part index -> new
        supports = [sum(1 << at[i] for i in range(k) if needs[old] >> i & 1) for old in perm]
        out.append(hn._n_closed_sums([lattice.parts[old] for old in perm], supports,
                                     lattice.strategy))
    return out


@pytest.mark.parametrize("name, m", CASES, ids=[c[0] for c in CASES])
def test_answers_do_not_depend_on_the_order_of_elements(name, m, monkeypatch):
    want = [answer.to_obj() for answer in _decide(_fresh(m))]
    lattice = _fresh(m).lattice
    assert lattice.strategy == name.split("/")[0]
    for other in _rebuilt(lattice, random.Random(name)):
        assert set(map(other.basis, other.keys)) == set(map(lattice.basis, lattice.keys))
        monkeypatch.setattr(hn, "enumerate_subobjects", lambda _m, other=other: other)
        moved = _fresh(m)
        assert moved.lattice is other
        filt, wa, acyclic, vst = answers = _decide(moved)
        assert [answer.to_obj() for answer in answers] == want
        oracle.check_verdict(moved, wa, "wa")
        oracle.check_verdict(moved, acyclic, "acyclic")
        oracle.check_hn(moved, filt)
        oracle.check_vst(moved, vst)


def _ties(m):
    """(violators of `acyclic` at its least violating rank, the most elements
    of largest degree at an HN vertex below V), over the module's lattice."""
    scored = [(k, d) for _, (k, _, _, d) in hn.lattice_scorer(m, _fresh(m).lattice)()]
    bad = sorted(k for k, d in scored if d > hn.degree(m))
    best = {}
    for k, d in scored:
        best[k] = max(best.get(k, d), d)
    hull = lower_hull_vertices((k, -d) for k, d in sorted(best.items()))
    return bad.count(bad[0]) if bad else 0, max(scored.count((k, best[k])) for k, _ in hull[:-1])


def test_cases_cover_n_chains_witnesses_ties_and_reorderings():
    # every strategy but the scalar chain (which forces N = 0) has an N
    # chain, and every one a certified-false witness strictly inside V; some
    # module has several violators at the least violating rank, and some
    # sample several elements of largest degree at an HN vertex, so the
    # answers rest on breaking ties; and every lattice that is not a chain is
    # walked in a new order by some rebuilt lattice
    with_n = {name.split("/")[0] for name, m in CASES if not m.module.nilpotent.is_zero()}
    assert with_n == {"eigenlines", "blocks", "sample"}
    inside = {name.split("/")[0] for name, m in CASES
              if 0 < len(is_acyclic(m).witness or ()) < m.rank}
    assert inside == {"eigenlines", "blocks", "scalar-chain", "sample"}
    ties = [_ties(m) for _, m in CASES]
    assert max(v for v, _ in ties) > 1 and max(t for _, t in ties) > 1
    for name, m in CASES:
        lattice = _fresh(m).lattice
        if len(lattice.keys) > m.rank + 1:
            walked = [key for key, _ in hn.lattice_scorer(m, lattice)()]
            assert any([lattice.basis(key) for key in walked]
                       != [other.basis(key) for key, _ in hn.lattice_scorer(m, other)()]
                       for other in _rebuilt(lattice, random.Random(name))), name
