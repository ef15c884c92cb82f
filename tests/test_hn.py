import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc import filtration, hn, oracle
from slopecalc.filtration import HodgeData, dual_hodge, induced_on_subspace, t_h
from slopecalc.hn import (
    STATUS_FALSE,
    STATUS_TRUE,
    STATUS_UNCERTIFIED,
    FilteredPhiModule,
    Verdict,
    degree,
    enumerate_subobjects,
    fn4_reduce,
    hn_filtration,
    is_acyclic,
    is_weakly_admissible,
    lattice_scorer,
    sub_invariants,
    vst_dimension,
)
from slopecalc.isocrystal import (
    PhiModule,
    SlopeMultiset,
    dm_blocks,
    dual,
    from_slopes,
    newton_slopes,
)
from slopecalc.base import FlagRequiredError, InputError, valuation
from slopecalc.rational import (
    RatMatrix,
    charpoly,
    complement_basis,
    int_matrix,
    rational_roots,
    restriction_matrix,
    rref_rows,
    span_intersect,
)

from _fraction_reference import closed_masks as fraction_closed_masks
from _fraction_reference import greedy_filtration
from _fraction_reference import induced_on_subspace as fraction_induced
from _fraction_reference import rational_roots as fraction_roots
from _fraction_reference import sample_subobjects as fraction_sample
from _fraction_reference import t_h_by_ranks
from _fraction_reference import top_hyperplane as fraction_hyperplane
from _deadline import deadline
from _generators import (
    block_chain_instance,
    certified_filtered_instance,
    chain_instance,
    diagonal_instance,
    one_level_family,
    random_flag,
    random_unimodular,
)
from test_acceptance import oracle_t_h

P = 2


def mk(phi, flag_entries, rank, nil=None):
    return FilteredPhiModule(
        PhiModule.from_matrices(P, phi, nil),
        HodgeData.from_flag(flag_entries, rank=rank),
    )


def diag1p(flag_entries):
    return mk([[1, 0], [0, P]], flag_entries, 2)


def elements(lattice):
    """The canonical bases of a lattice's elements, sorted by (dimension, basis)."""
    return sorted(map(lattice.basis, lattice.keys), key=lambda b: (len(b), b))


def twin(m):
    """A copy of `m` on a rebuilt module: it keeps no lattice or scorer yet."""
    return FilteredPhiModule(PhiModule.from_obj(m.module.to_obj()), m.hodge)


def inject(monkeypatch, lattice):
    """Make `lattice` the one the deciders read on a module not decided on
    before: they enumerate through `hn.enumerate_subobjects`, once per
    module, so replacing it injects the lattice, as the CLI tests do."""
    monkeypatch.setattr(hn, "enumerate_subobjects", lambda m: lattice)
    return lattice


class TestDegree:
    def test_rank_zero_decides_true(self):
        m = FilteredPhiModule(PhiModule.zero(P), HodgeData.from_flag([], rank=0))
        assert degree(m) == 0
        assert is_weakly_admissible(m) == is_acyclic(m) == Verdict(STATUS_TRUE)
        assert hn_filtration(m) == hn.HNFiltration((), True)

    def test_rank_one_matched(self):
        m = mk([[P]], [(1, [[1]])], 1)
        assert degree(m) == 0

    def test_rank_one_unit(self):
        m = mk([[1]], [(1, [[1]])], 1)
        assert degree(m) == 1

    def test_rank_two(self):
        assert degree(diag1p([(1, [[0, 1]])])) == 0

    @pytest.mark.parametrize("kind", ["eigenlines", "blocks", "scalar-chain", "sample"])
    def test_an_int_on_every_strategy(self, kind):
        m = TestWalk.kinds()[kind]
        assert enumerate_subobjects(m).strategy == kind
        assert type(degree(m)) is int
        assert degree(m) == t_h(m.hodge) - valuation(m.module.phi.det(), P)


class TestEnumerate:
    def test_distinct_valuations_certified(self):
        lattice = enumerate_subobjects(diag1p([(1, [[0, 1]])]))
        subs, cert = elements(lattice), lattice.certified
        assert cert
        assert len(subs) == 4
        dims = sorted(len(b) for b in subs)
        assert dims == [0, 1, 1, 2]

    def test_equal_valuations_certified(self):
        # 1 and 3 are distinct units at p = 2, so the two eigenlines are the
        # only stable lines although their valuations agree
        s = random_unimodular(random.Random(5), 2)
        mod = PhiModule.from_matrices(P, s @ RatMatrix([[1, 0], [0, 3]]) @ s.inverse())
        m = FilteredPhiModule(mod, random_flag(random.Random(5), 2, 0, 1))
        lines = [[col] for col in s.transpose().entries]
        assert len(TestMaskLattice.agree(m, lines, "eigenlines").keys) == 4

    def test_scalar_chain_is_certified(self):
        # every line is stable, so no finite list is complete; the flag-adapted
        # chain reaches the largest degree at every rank, so verdicts on it are proofs
        m = mk([[1, 0], [0, 1]], [(1, [[1, 0]])], 2)
        lattice = enumerate_subobjects(m)
        subs, cert = elements(lattice), lattice.certified
        assert cert and lattice.strategy == "scalar-chain" and len(subs) == 3

    def test_irreducible_block_certified(self):
        m = mk([[0, P], [1, 0]], [(1, [[1, 0]])], 2)
        lattice = enumerate_subobjects(m)
        subs, cert = elements(lattice), lattice.certified
        assert cert
        assert sorted(len(b) for b in subs) == [0, 2]

    def test_monodromy_restricts_lattice(self):
        # N sends the p-eigenline to the 1-eigenline, so span(e2) alone is
        # not a subobject but span(e1) still is
        m = mk([[1, 0], [0, P]], [(1, [[0, 1]])], 2, nil=[[0, 1], [0, 0]])
        lattice = enumerate_subobjects(m)
        subs, cert = elements(lattice), lattice.certified
        assert cert
        dims = sorted(len(b) for b in subs)
        assert dims == [0, 1, 2]
        line = next(b for b in subs if len(b) == 1)
        assert line == ((F(1), F(0)),)

    def test_weights_only_rejected(self):
        m = FilteredPhiModule(
            PhiModule.from_matrices(P, [[1, 0], [0, 1]]), HodgeData.from_weights([0, 1])
        )
        with pytest.raises(FlagRequiredError):
            enumerate_subobjects(m)


class TestWeaklyAdmissible:
    def test_good_line(self):
        assert is_weakly_admissible(diag1p([(1, [[0, 1]])])).status == STATUS_TRUE

    def test_bad_line_with_witness(self):
        v = is_weakly_admissible(diag1p([(1, [[1, 0]])]))
        assert v.status == STATUS_FALSE
        assert v.witness == ((F(1), F(0)),)

    def test_diagonal_line(self):
        assert is_weakly_admissible(diag1p([(1, [[1, 1]])])).status == STATUS_TRUE

    def test_nonzero_degree_is_false(self):
        v = is_weakly_admissible(mk([[1]], [(1, [[1]])], 1))
        assert v.status == STATUS_FALSE and v.witness is not None

    def test_uncertified_sample_path(self):
        m = mk([[1, 1], [0, 1]], [(0, [[1, 0], [0, 1]])], 2)
        v = is_weakly_admissible(m)
        assert v.status in (STATUS_UNCERTIFIED, STATUS_FALSE)


class TestAcyclic:
    def test_rank_one_positive(self):
        assert is_acyclic(mk([[1]], [(1, [[1]])], 1)).status == STATUS_TRUE

    def test_bad_quotient(self):
        v = is_acyclic(diag1p([(1, [[1, 0]])]))
        assert v.status == STATUS_FALSE
        # the witness subobject leaves a negative-degree quotient
        m = diag1p([(1, [[1, 0]])])
        _, _, _, dw = sub_invariants(m, v.witness)
        assert degree(m) - dw < 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_weakly_admissible_implies_acyclic(self, seed):
        m = certified_filtered_instance(random.Random(seed))
        wa = is_weakly_admissible(m)
        if wa.status == STATUS_TRUE:
            assert is_acyclic(m).status == STATUS_TRUE


class TestHNFiltration:
    def test_weakly_admissible_single_step(self):
        filt = hn_filtration(diag1p([(1, [[0, 1]])]))
        assert filt.certified
        assert len(filt.steps) == 1
        assert filt.steps[0].slope == 0 and filt.steps[0].rank == 2

    def test_destabilizing_line(self):
        filt = hn_filtration(diag1p([(1, [[1, 0]])]))
        assert [s.slope for s in filt.steps] == [F(1), F(-1)]
        assert filt.steps[0].basis == ((F(1), F(0)),)

    def test_direct_sum_degrees(self):
        # e1 carries degree 2, e2 degree 0
        m = mk([[1, 0], [0, P]], [(1, [[1, 0], [0, 1]]), (2, [[1, 0]])], 2)
        filt = hn_filtration(m)
        assert [s.slope for s in filt.steps] == [F(2), F(0)]
        assert [s.graded_degree for s in filt.steps] == [F(2), F(0)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_slopes_strictly_decrease_and_degree_adds(self, seed):
        m = certified_filtered_instance(random.Random(seed))
        filt = hn_filtration(m)
        slopes = [s.slope for s in filt.steps]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        assert sum((s.graded_degree for s in filt.steps), F(0)) == degree(m)
        assert filt.steps[-1].rank == m.rank

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_first_graded_piece_semistable(self, seed):
        m = certified_filtered_instance(random.Random(seed))
        filt = hn_filtration(m)
        step = filt.steps[0]
        if step.rank == m.rank:
            return
        phi_s = restriction_matrix(m.module.phi, step.basis).transpose()
        nil_s = restriction_matrix(m.module.nilpotent, step.basis).transpose()
        piece = FilteredPhiModule(
            PhiModule.from_matrices(P, phi_s, nil_s),
            induced_on_subspace(m.hodge, step.basis),
        )
        inner = hn_filtration(piece)
        if inner.certified:
            assert len(inner.steps) == 1
            assert inner.steps[0].slope == step.slope


class TestFn4Reduce:
    def test_already_admissible_is_identity(self):
        m = diag1p([(1, [[0, 1]])])
        assert fn4_reduce(m).hodge == m.hodge

    def test_rank_one_lowering(self):
        red = fn4_reduce(mk([[1]], [(1, [[1]])], 1))
        assert red.hodge.weights == (0,)
        assert is_weakly_admissible(red).status == STATUS_TRUE

    def test_scalar_rank_two(self):
        m = mk([[P, 0], [0, P]], [(1, [[1, 0], [0, 1]]), (2, [[1, 0]])], 2)
        assert degree(m) == 1
        red = fn4_reduce(m)
        assert is_weakly_admissible(red).status == STATUS_TRUE
        assert degree(red) == 0

    def test_rejects_non_acyclic(self):
        with pytest.raises(InputError):
            fn4_reduce(diag1p([(1, [[1, 0]])]))

    @staticmethod
    def enumerations(monkeypatch):
        """The modules `hn.enumerate_subobjects` is called on from now on."""
        seen, real = [], hn.enumerate_subobjects

        def counted(m, *args):
            seen.append(m)
            return real(m, *args)

        monkeypatch.setattr(hn, "enumerate_subobjects", counted)
        return seen

    @deadline(30)  # the search below spins forever if no module decides certified acyclic
    def test_one_enumeration_per_call(self, monkeypatch):
        # conjugated diag(1, p, p^2): an eigenline lattice, several lowering steps
        rng = random.Random(44)
        conj = random_unimodular(rng, 3)
        phi = conj @ RatMatrix([[1, 0, 0], [0, P, 0], [0, 0, P * P]]) @ conj.inverse()
        while True:
            m = FilteredPhiModule(PhiModule(P, phi, RatMatrix([[0] * 3] * 3)),
                                  random_flag(rng, 3, 1, 3))
            if degree(m) >= 2 and is_acyclic(m).status == STATUS_TRUE:
                break
        m = twin(m)  # the check above left m's lattice on it
        seen = self.enumerations(monkeypatch)
        red = fn4_reduce(m)
        assert seen == [m]
        assert degree(red) == 0 and is_weakly_admissible(red).status == STATUS_TRUE

    def test_scalar_chain_rebuilt_for_each_flag(self, monkeypatch):
        # the scalar chain is adapted to the flag, so the final check enumerates
        # on the lowered flag, not on the input's
        m = mk([[P, 0], [0, P]], [(1, [[1, 0], [0, 1]]), (2, [[1, 0]])], 2)
        seen = self.enumerations(monkeypatch)
        red = fn4_reduce(m)
        assert seen[0] is m and seen[-1].hodge == red.hodge != m.hodge

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_window_preserved_on_windowed_inputs(self, seed):
        # weights and slopes inside [0, r] stay inside [0, r] after lowering
        rng = random.Random(seed)
        r = rng.randint(1, 3)
        m = certified_filtered_instance(
            rng, max_rank=min(r + 1, 3), weight_lo=0, weight_hi=r, exp_lo=0, exp_hi=r
        )
        if is_acyclic(m).status != STATUS_TRUE:
            return
        red = fn4_reduce(m)
        assert all(0 <= w <= r for w in red.hodge.weights)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_pointwise_containment_and_admissibility(self, seed):
        m = certified_filtered_instance(random.Random(seed))
        if is_acyclic(m).status != STATUS_TRUE:
            return
        red = fn4_reduce(m)
        assert is_weakly_admissible(red).status == STATUS_TRUE
        lo, hi = m.hodge.support()
        rlo, rhi = red.hodge.support()
        for j in range(min(lo, rlo), max(hi, rhi) + 1):
            sub = red.hodge.subspace_at(j)
            big = m.hodge.subspace_at(j)
            for v in sub:
                from slopecalc.rational import span_contains

                assert span_contains(big, v)

    @staticmethod
    def scorers(monkeypatch):
        """A list that grows by one for each `hn.lattice_scorer` built from now on."""
        built, real = [], hn.lattice_scorer

        def counted(m, *args):
            built.append(m)
            return real(m, *args)

        monkeypatch.setattr(hn, "lattice_scorer", counted)
        return built

    @pytest.mark.parametrize("make", [
        lambda: one_level_family(4),
        lambda: mk([[P, 0], [0, P]], [(1, [[1, 0], [0, 1]]), (2, [[1, 0]])], 2),
    ], ids=["eigenlines", "scalar-chain"])
    def test_one_scorer_per_lowered_module(self, monkeypatch, make):
        # one HN filtration per module of positive degree (its W* and its
        # re-check) and the final check; the input keeps its lattice and
        # scorer, the scalar chain too, so its acyclicity check and first
        # HN filtration share one scorer
        m = make()
        d = int(degree(m))
        built = self.scorers(monkeypatch)
        red = fn4_reduce(m)
        assert degree(red) == 0
        assert len(built) == d + 1

    def test_each_step_is_rechecked(self, monkeypatch):
        m = one_level_family(3)
        real = hn.hn_filtration
        monkeypatch.setattr(hn, "hn_filtration",
                            lambda *a: hn.HNFiltration(real(*a).steps, False))
        with pytest.raises(AssertionError, match="not certified acyclic"):
            fn4_reduce(m)
        monkeypatch.setattr(hn, "hn_filtration", real)
        monkeypatch.setattr(hn, "_lower_once", lambda cur, filt: cur)
        with pytest.raises(AssertionError, match="did not drop the degree by one"):
            fn4_reduce(m)

    def test_equals_the_enumerator_driven_loop(self):
        rng = random.Random(12)
        cases = [one_level_family(8)] + [certified_filtered_instance(rng) for _ in range(12)]
        lowered = 0
        for m in cases:
            if is_acyclic(m).status != STATUS_TRUE:
                continue
            red = fn4_reduce(m)
            assert red == reference_fn4(m)
            lowered += degree(m) > 0
        assert lowered >= 3


def reference_fn4(m):
    """`fn4_reduce` with each hyperplane taken from the reference enumerator.

    One HN filtration per step, on the lattice that m's Frobenius module
    keeps, no re-checks; the flag of each lowered module is rebuilt by
    `HodgeData.from_flag`.
    """
    cur = m
    while degree(cur) > 0:
        cur = reference_lower_once(cur, hn_filtration(cur).steps)[0]
    return cur


def reference_lower_once(m, steps):
    """(`hn._lower_once` by the reference enumerator on the dense window, whether
    the lowered level also holds at i0 - 1), given m's HN steps."""
    n, h = m.rank, m.hodge
    wstar = [s for s in steps if s.slope > 0][-1].basis
    lo, hi = h.support()
    i0 = next(j for j in range(hi, lo - 1, -1) if span_intersect(h.subspace_at(j), wstar, n))
    inter = span_intersect(h.subspace_at(i0), wstar, n)
    hyper = fraction_hyperplane(h.subspace_at(i0), h.subspace_at(i0 + 1), inter, n)
    chain = [(j, hyper if j == i0 else h.subspace_at(j)) for j in range(lo, hi + 1)]
    split = h.subspace_at(i0 - 1) == h.subspace_at(i0)
    return FilteredPhiModule(m.module, HodgeData.from_flag(chain, rank=n)), split


class TestLowerOnce:
    def test_wide_windows_equal_the_reference_chain(self):
        # windows over 10 indices wide; the level lowered at i0 either holds
        # below i0 too (and is split there) or starts at i0
        rng = random.Random(1213)
        seen = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(2, 4)
            h = random_flag(rng, n, 0, 16)
            lo, hi = h.support()
            m = FilteredPhiModule(diagonal_instance(rng, 2, n, -1, 2), h)
            if hi - lo - 1 <= 10 or degree(m) <= 0 or is_acyclic(m).status != STATUS_TRUE:
                continue
            filt = hn_filtration(m)
            want, split = reference_lower_once(m, filt.steps)
            assert hn._lower_once(m, filt) == want
            seen[split] += 1
            if min(seen.values()) >= 5:
                break
        assert min(seen.values()) >= 5, seen


class TestTopHyperplane:
    """`hn._top_hyperplane` is the first candidate of the reference enumerator
    whose sum with the positive part is the whole top level."""

    @staticmethod
    def case(rng, n, k_protect):
        """(fil_top, protect, inter, z) with inter inside protect + comp[:z+1], not + comp[:z]."""
        while True:
            rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(1, n))]
            fil_top = rref_rows(rows, n)
            if len(fil_top) > k_protect:
                break
        combos = [[rng.randint(-2, 2) for _ in fil_top] for _ in range(k_protect)]
        protect = rref_rows([[sum(c * row[j] for c, row in zip(cs, fil_top)) for j in range(n)]
                             for cs in combos], n)
        comp = complement_basis(protect, fil_top, n)
        z = rng.randrange(len(comp))
        inter = []
        for _ in range(rng.randint(1, z + 1)):
            coeffs = [rng.randint(-2, 2) for _ in range(z)] + [rng.choice([-1, 1, 2])]
            v = [sum(c * row[j] for c, row in zip(coeffs, comp)) for j in range(n)]
            for row in protect:
                c = rng.randint(-2, 2)
                v = [a + c * b for a, b in zip(v, row)]
            inter.append(v)
        return fil_top, protect, rref_rows(inter, n), z

    def test_seeded_cases_equal_the_enumerator(self):
        rng = random.Random(1212)
        seen = {"zero protect": 0, "nonzero protect": 0, "z below the top": 0}
        for _ in range(120):
            n = rng.randint(1, 6)
            fil_top, protect, inter, z = self.case(rng, n, rng.randint(0, n - 1))
            want = fraction_hyperplane(fil_top, protect, inter, n)
            assert want is not None
            assert hn._top_hyperplane(fil_top, protect, inter, n) == want
            seen["nonzero protect" if protect else "zero protect"] += 1
            seen["z below the top"] += z < len(fil_top) - len(protect) - 1
        assert all(v >= 10 for v in seen.values()), seen

    def test_rejects_a_positive_part_inside_the_level_above(self):
        top = ((F(1), F(0)), (F(0), F(1)))
        with pytest.raises(AssertionError, match="internal: no hyperplane"):
            hn._top_hyperplane(top, top[:1], top[:1], 2)


class TestVst:
    def test_weakly_admissible(self):
        res = vst_dimension(diag1p([(1, [[0, 1]])]))
        assert res.h0.dim == 0 and res.h0.ht == 2 and not res.h1_nonvanishing

    def test_unit_line(self):
        res = vst_dimension(mk([[1]], [(1, [[1]])], 1))
        assert (res.h0.dim, res.h0.ht) == (1, 1) and not res.h1_nonvanishing

    def test_negative_line(self):
        res = vst_dimension(mk([[P]], [(0, [[1]])], 1))
        assert (res.h0.dim, res.h0.ht) == (0, 0) and res.h1_nonvanishing

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 3, -1]), st.integers(0, 4), st.integers(-3, 3))
    def test_rank_one_sign_coherence(self, unit, slope, weight):
        # acyclic iff weight >= slope iff no higher cohomology
        phi = [[F(unit) * F(P) ** slope]]
        m = mk(phi, [(weight, [[1]])], 1)
        acyc = is_acyclic(m).status == STATUS_TRUE
        res = vst_dimension(m)
        assert acyc == (weight >= slope) == (not res.h1_nonvanishing)


class TestDuality:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_degree_negates(self, seed):
        m = certified_filtered_instance(random.Random(seed))
        dual_m = FilteredPhiModule(dual(m.module), dual_hodge(m.hodge))
        assert degree(dual_m) == -degree(m)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_weak_admissibility_preserved(self, seed):
        m = certified_filtered_instance(random.Random(seed))
        wa = is_weakly_admissible(m)
        if wa.status != STATUS_TRUE:
            return
        dual_m = FilteredPhiModule(dual(m.module), dual_hodge(m.hodge))
        v = is_weakly_admissible(dual_m)
        if v.certified:
            assert v.status == STATUS_TRUE


    @pytest.mark.parametrize("n", [12, 16])
    def test_hn_slopes_negate_and_reverse(self, n):
        # ROADMAP's eigenline module of rank n and its dual: HN(M*) has the
        # slopes -mu of HN(M) in reverse order, with the same graded ranks
        rng = random.Random(n)
        mod = diagonal_instance(rng, 2, n, -(n // 2), n // 2, allow_n=False)
        m = FilteredPhiModule(mod, random_flag(rng, n, 0, 3))
        dual_m = FilteredPhiModule(dual(mod), dual_hodge(m.hodge))
        filt, dual_filt = hn_filtration(m), hn_filtration(dual_m)
        assert filt.certified and dual_filt.certified
        assert len(filt.steps) > 1
        assert dual_filt.slopes() == [(-s, k) for s, k in reversed(filt.slopes())]


class TestFieldOfDefinition:
    """Subobjects are Q_p-subspaces.  Each module below has a factor
    irreducible over Q that splits over Q_7, so some stable Q_7-lines lie in
    no rational lattice: neither may come back certified-true."""

    @staticmethod
    def modules():
        # phi = (7) + companion(x^2 + x/7 + 1), Fil^1 = span(1, 1, 1), weights
        # (1, 0, 0): weakly admissible over Q, but over Q_7 the root of
        # valuation -1 gives a line with t_N = -1 and t_H = 0, of degree +1
        split = FilteredPhiModule(
            PhiModule.from_matrices(7, [[7, 0, 0], [0, 0, -1], [0, 1, F(-1, 7)]]),
            HodgeData.from_flag([(0, RatMatrix.identity(3).entries), (1, [[1, 1, 1]])], rank=3),
        )
        # x^2 - 2: both roots are 7-adic units, as 3^2 = 2 mod 7; weights (1, -1)
        units = FilteredPhiModule(
            PhiModule.from_matrices(7, [[0, 2], [1, 0]]),
            HodgeData.from_flag([(-1, RatMatrix.identity(2).entries), (0, [[1, 0]]),
                                 (1, [[1, 0]])], rank=2),
        )
        return {"split": split, "units": units}

    @pytest.mark.parametrize("name", ["split", "units"])
    def test_never_certified_true(self, name):
        m = self.modules()[name]
        assert degree(m) == 0 and enumerate_subobjects(m).strategy == "sample"
        assert is_weakly_admissible(m).status != STATUS_TRUE
        assert is_acyclic(m).status != STATUS_TRUE
        filt = hn_filtration(m)
        assert not (filt.certified and len(filt.steps) == 1)

    def test_split_module_has_a_slope_below_its_weights(self):
        # Mazur's inequality fails over Q_7: the Newton slopes (-1, 1, 1) start
        # below the Hodge weights (0, 0, 1)
        m = self.modules()["split"]
        assert list(newton_slopes(m.module)) == [(F(-1), 1), (F(1), 2)]
        assert sorted(m.hodge.weights) == [0, 0, 1]


class TestVerdictType:
    def test_false_needs_witness(self):
        with pytest.raises(InputError):
            Verdict(STATUS_FALSE)

    def test_json(self):
        v = Verdict(STATUS_FALSE, ((F(1), F(0)),))
        assert v.to_obj() == {"status": "certified-false", "witness": [["1", "0"]]}


class TestRootExtractionLimits:
    def test_huge_constants_degrade_to_uncertified(self):
        # rational-root extraction gives up beyond its factoring bound and the
        # verdict degrades to a sampled, uncertified answer instead of hanging
        q = 10 ** 7
        m = mk([[q, 0], [0, 3 * q]], [(0, [[1, 0], [0, 1]])], 2)
        assert not enumerate_subobjects(m).certified
        v = is_weakly_admissible(m)
        assert v.status in (STATUS_UNCERTIFIED, STATUS_FALSE)


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _from_roots(roots, scale=F(1)):
    poly = [scale]
    for r in roots:
        poly = _poly_mul(poly, [-r, F(1)])
    return poly


class TestRationalRoots:
    """The integer division search finds the roots Fraction deflation finds."""

    POOL = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4), F(-7, 2), F(4)]
    QUADRATICS = [[F(-2), F(0), F(1)], [F(1), F(1), F(1)], [F(3), F(0), F(2)]]

    def test_seeded_polynomials(self):
        rng = random.Random(45)
        seen = set()
        for _ in range(300):
            poly = [F(rng.choice([1, -3, 5, 12]), rng.choice([1, 2, 9]))]
            for r in rng.sample(self.POOL, rng.randint(1, 4)):
                mult = rng.choice([1, 1, 2, 3])
                for _ in range(mult):
                    poly = _poly_mul(poly, [-r, F(1)])
                seen.update({"zero"} if r == 0 else set())
                seen.update({"repeated"} if mult > 1 else set())
                seen.update({"negative"} if r < 0 else set())
                seen.update({"non-monic"} if r.denominator > 1 else set())
            if rng.random() < 0.4:
                poly = _poly_mul(poly, rng.choice(self.QUADRATICS))
            assert rational_roots(poly) == fraction_roots(poly)
        assert seen == {"zero", "repeated", "negative", "non-monic"}

    def test_high_multiplicity_content_and_sign(self):
        # integer-cleared polynomials with multiplicities up to 6, a content
        # above one, a negative leading coefficient and zero low coefficients
        # (zero roots are not reported but stay in the leftover degree)
        rng = random.Random(46)
        seen = set()
        for _ in range(120):
            roots = []
            for r in rng.sample(self.POOL, rng.randint(1, 3)):
                roots += [r] * rng.randint(1, 6)
            scale = F(rng.choice([1, 6, -1, -10, 35]), rng.choice([1, 4]))
            poly = _from_roots(roots, scale)
            if rng.random() < 0.3:
                poly = _poly_mul(poly, rng.choice(self.QUADRATICS))
            denom = math.lcm(*(c.denominator for c in poly))
            ints = [int(c * denom) for c in poly]
            seen.update({"mult>=5"} if max(roots.count(r) for r in roots) >= 5 else set())
            seen.update({"content"} if math.gcd(*ints) > 1 else set())
            seen.update({"negative lead"} if ints[-1] < 0 else set())
            seen.update({"zero low"} if ints[0] == 0 else set())
            got = rational_roots(poly)
            assert got == fraction_roots(poly)
            nonzero = [(r, roots.count(r)) for r in sorted(set(roots)) if r]
            assert got[0] == nonzero
            assert got[1] == len(poly) - 1 - sum(k for _, k in nonzero)
        assert seen == {"mult>=5", "content", "negative lead", "zero low"}

    def test_multiplicity_six_with_zero_roots(self):
        poly = _from_roots([F(-2, 3)] * 6 + [F(0)] * 2 + [F(5)], F(-4))
        assert rational_roots(poly) == fraction_roots(poly) == ([(F(-2, 3), 6), (F(5), 1)], 2)

    @pytest.mark.parametrize(
        "roots, found",
        [
            ([F(10**6), F(10**6)], True),  # constant exactly 10**12
            ([F(1, 10**12), F(1)], True),  # leading coefficient exactly 10**12
            ([F(73), F(10**12 + 1, 73)], False),  # constant 10**12 + 1
            ([F(1, 10**12 + 1), F(3)], False),  # leading coefficient 10**12 + 1
        ],
    )
    def test_at_the_factoring_bound(self, roots, found):
        poly = _from_roots(roots)
        expected = ([(r, roots.count(r)) for r in sorted(set(roots))], 0) if found else ([], 2)
        assert rational_roots(poly) == fraction_roots(poly) == expected

    @pytest.mark.parametrize("roots", [[F(10**7), F(3 * 10**5)], [F(1, 10**13), F(2)]])
    def test_beyond_the_factoring_bound(self, roots):
        poly = _from_roots(roots)
        assert rational_roots(poly) == fraction_roots(poly) == ([], 2)


class TestClosedMasks:
    """`_n_closed_sums` lists exactly the masks the 2^n scan finds, in its order."""

    @staticmethod
    def closed_sums(sizes, supports):
        parts = [[(0,)] * size for size in sizes]
        return hn._n_closed_sums(parts, supports, "blocks").keys

    def test_seeded_acyclic_supports(self):
        rng = random.Random(47)
        for _ in range(150):
            k = rng.randint(0, 10)
            sizes = [rng.choice([1, 1, 2, 3]) for _ in range(k)]
            order = rng.sample(range(k), k)  # each part may need parts before it here
            density = rng.choice([0.0, 0.15, 0.4])
            supports = [0] * k
            for pos, i in enumerate(order):
                for j in order[:pos]:
                    if rng.random() < density:
                        supports[i] |= 1 << j
            assert self.closed_sums(sizes, supports) == fraction_closed_masks(sizes, supports)

    def test_chain_lists_its_prefixes(self):
        supports = [0] + [1 << (i - 1) for i in range(1, 40)]
        assert self.closed_sums([1] * 40, supports) == tuple((1 << k) - 1 for k in range(41))

    @pytest.mark.parametrize("supports", [[0b10, 0b01], [0b1], [0b100, 0b001, 0b010, 0]])
    def test_cycle_is_an_internal_fault(self, supports):
        with pytest.raises(AssertionError, match="internal"):
            self.closed_sums([1] * len(supports), supports)


class TestSampleDeterminism:
    def test_fixed_seed_reproducible(self):
        # the sample is a function of the module: rebuilt copies sample alike
        m = mk([[1, 1], [0, 1]], [(0, [[1, 0], [0, 1]])], 2)
        a, b = enumerate_subobjects(m), enumerate_subobjects(twin(m))
        assert elements(a) == elements(b) and len(a.keys) > 2
        assert a.certified == b.certified and not a.certified


class TestLatticeScorer:
    """The scorer agrees with the from-definition one on every element of
    every strategy's lattice."""

    @staticmethod
    def agree(m):
        lattice = enumerate_subobjects(m)
        scored = list(lattice_scorer(m, lattice)())
        assert sorted(key for key, _ in scored) == sorted(lattice.keys)
        for key, fast in scored:
            basis = lattice.basis(key)
            assert fast == sub_invariants(m, basis)
            assert fast[1] == oracle_t_h(m.hodge, basis)
        return lattice

    @pytest.mark.parametrize("allow_n", [False, True])
    def test_eigenline_modules(self, allow_n):
        rng = random.Random(20 + allow_n)
        with_n = 0
        for _ in range(12):
            n = rng.randint(2, 5)
            mod = diagonal_instance(rng, P, n, -2, 3, allow_n=allow_n)
            m = FilteredPhiModule(mod, random_flag(rng, n, -1, 3))
            lattice = self.agree(m)
            assert lattice.strategy == "eigenlines" and lattice.certified
            with_n += not mod.nilpotent.is_zero()
        assert (with_n > 0) == allow_n

    def test_multiplicity_free_slope_normal_forms(self):
        rng = random.Random(3)
        for slopes in (
            [(F(1, 2), 2), (F(0), 1), (F(2, 3), 3)],
            [(F(-1), 1), (F(1, 3), 3), (F(3, 2), 2)],
            [(F(1, 4), 4), (F(2), 1)],
        ):
            mod = from_slopes(SlopeMultiset(slopes), P)
            m = FilteredPhiModule(mod, random_flag(rng, mod.rank, 0, 3))
            lattice = self.agree(m)
            assert lattice.strategy == "blocks" and lattice.certified
            assert len(lattice.keys) == 2 ** len(slopes)

    def test_scalar_frobenius(self):
        rng = random.Random(4)
        for n in (2, 3, 4):
            mod = PhiModule.from_matrices(P, RatMatrix.identity(n).scale(P))
            m = FilteredPhiModule(mod, random_flag(rng, n, 0, 3))
            lattice = self.agree(m)
            assert lattice.strategy == "scalar-chain" and lattice.certified
            assert len(lattice.keys) == n + 1

    def test_repeated_eigenvalue_sample(self):
        rng = random.Random(5)
        s = random_unimodular(rng, 3)
        diag = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, P]])
        mod = PhiModule(P, s @ diag @ s.inverse(), RatMatrix.zeros(3, 3))
        m = FilteredPhiModule(mod, random_flag(rng, 3, 0, 2))
        lattice = self.agree(m)
        assert lattice.strategy == "sample" and not lattice.certified
        assert len(lattice.keys) > 2

    def test_unstable_basis_raises(self):
        m = mk([[0, P], [1, 0]], [(1, [[1, 0]])], 2)
        line = ((F(1), F(0)),)
        with pytest.raises(AssertionError, match="internal: a lattice part is not Frobenius-stable"):
            lattice_scorer(m, hn.SubobjectLattice.sample([(), line]))
        with pytest.raises(InputError):
            sub_invariants(m, line)


class TestSubInvariants:
    @pytest.mark.parametrize("rows", [[[1, 0, 0], [1, 0, 0]],
                                      [[1, 0, 0], [0, 1, 0], [1, 1, 0]]])
    def test_dependent_rows_are_an_input_error(self, rows):
        # scalar phi keeps every subspace, so only the dependence is wrong
        m = FilteredPhiModule(PhiModule.from_matrices(P, RatMatrix.identity(3).scale(P)),
                              HodgeData.from_flag([(1, [[1, 0, 0]])], rank=3))
        with pytest.raises(InputError, match="linearly dependent"):
            sub_invariants(m, rows)


class TestMonodromyValidation:
    """A module whose N breaks N.phi = p.phi.N cannot be built: every
    constructor raises the same input error, so no decider ever sees one."""

    CASES = {
        # N = E11 neither twists phi nor is nilpotent; it used to reach the
        # lattice builder and fail there as an internal fault
        "not-nilpotent": ([[1, 0], [0, 4]], [[1, 0], [0, 0]]),
        # nilpotent N that does not twist phi: eigenlines, and scalar phi,
        # whose flag chain used to certify verdicts regardless of N
        "nilpotent-eigenlines": ([[1, 0], [0, 4]], [[0, 1], [0, 0]]),
        "nilpotent-scalar": ([[1, 0], [0, 1]], [[0, 1], [0, 0]]),
    }

    @staticmethod
    def as_json(name):
        """The case as a filtered module's JSON, written out by hand."""
        phi, nil = TestMonodromyValidation.CASES[name]
        module = {"p": P, "phi": [[str(x) for x in row] for row in phi],
                  "N": [[str(x) for x in row] for row in nil]}
        return {"module": module, "hodge": {"flag": [{"index": 1, "basis": [["1", "0"]]}],
                                            "rank": 2}}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_entry_point_raises_an_input_error(self, name):
        from slopecalc import diagram

        phi, nil = self.CASES[name]
        obj = self.as_json(name)
        builds = [lambda: PhiModule(P, RatMatrix(phi), RatMatrix(nil)),
                  lambda: PhiModule.from_matrices(P, phi, nil),
                  lambda: PhiModule.from_obj(obj["module"]),
                  lambda: FilteredPhiModule.from_obj(obj),
                  lambda: diagram.SyntheticCohomology.from_obj(
                      {"r": 2, "degrees": {"r": {"hk": obj["module"], "lattice": obj["hodge"]}}})]
        for build in builds:
            with pytest.raises(InputError, match=r"^N must satisfy N\.phi = p\.phi\.N$"):
                build()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cli_exits_three(self, name, capsys, monkeypatch):
        import io
        import json

        from slopecalc import cli

        for command in ("hn", "acyclic", "wa"):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.as_json(name))))
            code = cli.run([command, "--input", "-"])
            out, err = capsys.readouterr()
            assert (code, out) == (3, "")
            assert json.loads(err)["error"] == "N must satisfy N.phi = p.phi.N"


def _eigen_module(rng, n, chain, low=0):
    """S diag(lambda) S^-1 with distinct eigenvalue valuations, and its eigenvectors.

    With `chain` the eigenvalues are p^low, ..., p^(low+n-1) and N maps each
    p^(i+1)-line into the p^i-line with a random coefficient in {0, 1, 2}.
    """
    if chain:
        eig = [F(P) ** (low + i) for i in range(n)]
    else:
        eig = [F(rng.choice([1, -1, 3])) * F(P) ** e for e in rng.sample(range(-2, 5), n)]
    e = [[F(0)] * n for _ in range(n)]
    if chain:
        for i in range(n - 1):
            e[i][i + 1] = F(rng.choice([0, 1, 2]))
    s = random_unimodular(rng, n)
    diag = RatMatrix([[eig[i] if i == j else F(0) for j in range(n)] for i in range(n)])
    mod = PhiModule(P, s @ diag @ s.inverse(), s @ RatMatrix(e) @ s.inverse())
    return mod, [[col] for col in s.transpose().entries]


def _span_lattice(parts, nil, n):
    """Canonical spans of the unions of parts that N maps into themselves."""
    from slopecalc.rational import rref_rows, span_contains

    out = set()
    for mask in range(1 << len(parts)):
        span = rref_rows([row for i, part in enumerate(parts) if mask >> i & 1 for row in part], n)
        if all(span_contains(span, nil.apply(v)) for v in span):
            out.add(span)
    return out


class TestMaskLattice:
    """Scores and elements of part lattices against spans."""

    @staticmethod
    def agree(m, parts, strategy):
        lattice = enumerate_subobjects(m)
        assert lattice.strategy == strategy and lattice.certified
        assert set(elements(lattice)) == _span_lattice(parts, m.module.nilpotent, m.rank)
        bases = {key: lattice.basis(key) for key in lattice.keys}
        assert len(set(bases.values())) == len(bases)  # distinct masks, distinct spans
        scored = dict(lattice_scorer(m, lattice)())
        assert scored.keys() == bases.keys()
        for mask, basis in bases.items():
            fast = scored[mask]
            assert fast == sub_invariants(m, basis)
            assert fast[1] == oracle_t_h(m.hodge, basis)
        return lattice

    @pytest.mark.parametrize("chain", [False, True])
    def test_eigenline_modules(self, chain):
        rng = random.Random(40 + chain)
        sizes = []
        for n in (3, 4, 5, 6):
            mod, lines = _eigen_module(rng, n, chain)
            m = FilteredPhiModule(mod, random_flag(rng, n, -1, 3))
            sizes.append(len(self.agree(m, lines, "eigenlines").keys))
        # an N chain cuts the lattice below 2^n
        assert (sizes != [8, 16, 32, 64]) == chain

    def test_multiplicity_free_slope_normal_forms(self):
        rng = random.Random(41)
        for slopes in (
            [(F(1, 2), 2), (F(0), 1), (F(2), 1)],
            [(F(-1), 1), (F(1, 3), 3), (F(3, 2), 2)],
            [(F(1, 4), 4), (F(2), 1), (F(1, 2), 2), (F(-1, 2), 2)],
            [(F(0), 1), (F(1), 1), (F(2), 1), (F(1, 3), 3), (F(-3), 1)],
        ):
            mod = from_slopes(SlopeMultiset(slopes), P)
            assert 4 <= mod.rank <= 9
            m = FilteredPhiModule(mod, random_flag(rng, mod.rank, -1, 3))
            std = RatMatrix.identity(mod.rank).entries
            blocks = dm_blocks(mod)
            parts = [std[off : off + size] for _, off, size in blocks]
            lattice = self.agree(m, parts, "blocks")
            assert len(lattice.keys) == 2 ** len(slopes)

    def test_slope_normal_form_with_monodromy(self):
        # blocks of slopes 1/2 and 3/2 (companions of x^2 - p and x^2 - p^3)
        # with N mapping the second into the first: M.B = p.A.M for
        # M = [[1, 0], [0, p]]; the slope-0 line is left alone
        base = from_slopes(SlopeMultiset([(F(0), 1), (F(1, 2), 2), (F(3, 2), 2)]), P)
        nil = [[F(0)] * 5 for _ in range(5)]
        nil[1][3], nil[2][4] = F(1), F(P)
        mod = PhiModule(P, base.phi, RatMatrix(nil), base.form)  # construction checks N
        m = FilteredPhiModule(mod, random_flag(random.Random(42), 5, 0, 2))
        std = RatMatrix.identity(5).entries
        lattice = self.agree(m, [std[0:1], std[1:3], std[3:5]], "blocks")
        assert len(lattice.keys) == 6  # the slope-3/2 block needs the slope-1/2 one


def _reference(m):
    """Deciders from the definition: every element built and scored by
    `sub_invariants`, the first violator in canonical order as the witness,
    and the greedy HN filtration keyed by (-slope, -rank, basis).  Returns
    (verdict for a bound, HN steps, the bases tied with some step)."""
    from slopecalc.rational import span_leq

    lattice = enumerate_subobjects(m)
    scored = [(basis, sub_invariants(m, basis)) for basis in elements(lattice)]
    decided = STATUS_TRUE if lattice.certified else STATUS_UNCERTIFIED

    def verdict(bound):
        witness = next((b for b, inv in scored if inv[3] > bound), None)
        return Verdict(decided) if witness is None else Verdict(STATUS_FALSE, witness)

    steps, ties, current, cur_rank, cur_deg = [], set(), (), 0, F(0)
    while cur_rank < m.rank:
        keyed = sorted(
            (-(inv[3] - cur_deg) / (inv[0] - cur_rank), -inv[0], basis, inv)
            for basis, inv in scored
            if inv[0] > cur_rank and span_leq(current, basis)
        )
        neg_slope, neg_k, current, (k, _, _, d) = keyed[0]
        ties |= {key[2] for key in keyed if key[:2] == keyed[0][:2]}
        steps.append(hn.HNStep(current, -neg_slope, k, k - cur_rank, d - cur_deg))
        cur_rank, cur_deg = k, d
    return verdict, tuple(steps), ties


def _snf_weights(slopes):
    """Integer weights summing to a over each block of slope a/h and size h."""
    out = []
    for s, h in slopes:
        q, r = divmod(int(s * h), h)
        out += [q] * (h - r) + [q + 1] * r
    return out


def _weight_variants(rng, weights):
    """Weights equal to the slopes; moved by +1 and -1, spread by three moves
    of up to 2, and pinched (the extremes moved in until they are at most 1
    apart, so that several subobjects violate at once), all keeping the
    degree; and raised by +1."""
    out = [list(weights)]
    for moves, most in ((1, 1), (3, 2)):
        moved = list(weights)
        for _ in range(moves):
            i, j = rng.sample(range(len(weights)), 2)
            d = rng.randint(1, most)
            moved[i] += d
            moved[j] -= d
        out.append(moved)
    pinched = list(weights)
    while max(pinched) - min(pinched) > 1:
        pinched[pinched.index(max(pinched))] -= 1
        pinched[pinched.index(min(pinched))] += 1
    raised = list(weights)
    raised[rng.randrange(len(weights))] += 1
    return out + [pinched, raised]


def _flagged(rng, mod, weights):
    return FilteredPhiModule(mod, random_flag(rng, mod.rank, min(weights), max(weights), weights))


def _reference_cases():
    """Seeded eigenline modules of rank 3-7 (with and without an N chain),
    multiplicity-free slope normal forms of rank 4-9, repeated eigenvalues (a
    sample) and scalar Frobenius, each with the weight variants above; a case
    is named by its strategy first."""
    rng = random.Random(77)
    cases = []

    def add(strategy, mod, slopes):
        for i, w in enumerate(_weight_variants(rng, slopes)):
            cases.append((f"{strategy}/{mod.rank}/{len(cases)}-{i}", _flagged(rng, mod, w)))

    for chain in (False, True):
        for n in range(3, 8):
            mod, _ = _eigen_module(rng, n, chain)
            add("eigenlines", mod, [valuation(r, P) for r in _eigenvalues(mod)])
    for slopes in (
        [(F(1, 2), 2), (F(0), 1), (F(2), 1)],
        [(F(-1), 1), (F(1, 3), 3), (F(3, 2), 2)],
        [(F(0), 1), (F(1), 1), (F(2), 1), (F(1, 3), 3), (F(-3), 1)],
        [(F(1, 4), 4), (F(2), 1), (F(1, 2), 2), (F(-1, 2), 2)],
    ):
        add("blocks", from_slopes(SlopeMultiset(slopes), P), _snf_weights(slopes))
    for exps in ([0, 0, 1], [0, 0, 1, 2], [1, 1, 1, 0]):
        s = random_unimodular(rng, len(exps))
        diag = RatMatrix([[F(P) ** e if i == j else 0 for j, e in enumerate(exps)]
                          for i in range(len(exps))])
        zero = RatMatrix.zeros(len(exps), len(exps))
        add("sample", PhiModule(P, s @ diag @ s.inverse(), zero), exps)
    for n in (3, 4):
        add("scalar-chain", PhiModule.from_matrices(P, RatMatrix.identity(n).scale(P)), [1] * n)
    # distinct eigenvalues 2, -2 and 6 of one valuation, and 4, whose line N
    # maps into the 2-line
    e = [[F(0)] * 4 for _ in range(4)]
    e[0][3] = F(1)
    s = random_unimodular(rng, 4)
    diag = RatMatrix([[F(x) if i == j else 0 for j in range(4)] for i, x in enumerate([2, -2, 6, 4])])
    add("eigenlines", PhiModule(P, s @ diag @ s.inverse(), s @ RatMatrix(e) @ s.inverse()),
        [1, 1, 1, 2])
    return cases


def _eigenvalues(mod):
    roots, leftover = rational_roots(charpoly(mod.phi))
    assert leftover == 0
    return [r for r, _ in roots]


REFERENCE_CASES = _reference_cases()


class TestReferenceDeciders:
    """The mask deciders agree exactly with deciders that build every element."""

    @pytest.mark.parametrize("name, m", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
    def test_agrees(self, name, m):
        verdict, steps, _ = _reference(m)
        lattice = enumerate_subobjects(m)
        assert lattice.strategy == name.split("/")[0]
        assert is_acyclic(m) == verdict(degree(m))
        full = tuple(RatMatrix.identity(m.rank).entries)
        wa = verdict(0) if degree(m) == 0 else Verdict(STATUS_FALSE, full)
        assert is_weakly_admissible(m) == wa
        assert hn_filtration(m) == hn.HNFiltration(steps, lattice.certified)

    def test_cases_cover_both_verdicts(self):
        seen = set()
        for name, m in REFERENCE_CASES:
            kind = name.split("/")[0]
            seen.add((kind, "acyclic", is_acyclic(m).status))
            if degree(m) == 0:
                seen.add((kind, "wa", is_weakly_admissible(m).status))
        for kind in ("eigenlines", "blocks"):
            for query in ("acyclic", "wa"):
                assert {(kind, query, STATUS_TRUE), (kind, query, STATUS_FALSE)} <= seen
        assert any(len(hn_filtration(m).steps) > 2 for _, m in REFERENCE_CASES)

    def test_cases_have_several_first_violators(self):
        # the witness is then chosen among several elements of one rank
        several = 0
        for _, m in REFERENCE_CASES:
            lattice = enumerate_subobjects(m)
            if lattice.strategy != "sample" and is_acyclic(m).status == STATUS_FALSE:
                ranked = [sub_invariants(m, b) for b in elements(lattice)]
                rank = min(inv[0] for inv in ranked if inv[3] > degree(m))
                several += sum(inv[0] == rank and inv[3] > degree(m) for inv in ranked) > 1
        assert several >= 3

    def test_witness_is_a_least_rank_violator_met_last(self, monkeypatch):
        # phi = 1 on Q^3 with weights 1, 0, -1 on e1 + e2, e2, e3: the line of
        # e1 + e2 and the plane of e1 and e2 both have degree 1.  The walk
        # meets a sample's parts last first, so the plane, whose basis is the
        # smaller, before the line, the first violator in canonical order
        ident = RatMatrix.identity(3).entries
        m = mk(ident, [(-1, ident), (0, ident[:2]), (1, [[1, 1, 0]])], 3)
        line = ((F(1), F(1), F(0)),)
        inject(monkeypatch, hn.SubobjectLattice.sample(((), line, tuple(ident[:2]), tuple(ident))))
        assert degree(m) == 0 and tuple(ident[:2]) < line
        assert is_weakly_admissible(m) == Verdict(STATUS_FALSE, line)

    def test_witness_skips_a_larger_violator_pushed_earlier(self, monkeypatch):
        # phi = 1 on Q^4 with weights 1, 0, 1, -2 on e1, e2, e3, e4, and the
        # part lattice of the line of e4, the plane of e1 and e2 and the line
        # of e1 + e3, pushed in that order under the zero mask: the walk
        # meets the last line, which violates, and then the plane, which
        # violates at a larger rank with the smaller basis
        ident = RatMatrix.identity(4).entries
        e1, e2, e3, e4 = ident
        m = mk(ident, [(-2, ident), (-1, [e1, e2, e3]), (1, [e1, e3])], 4)
        line = ((F(1), F(0), F(1), F(0)),)
        inject(monkeypatch, hn._n_closed_sums([[e4], [e1, e2], list(line)], [0, 0, 0], "blocks"))
        assert degree(m) == 0 and (e1, e2) < line
        assert is_weakly_admissible(m) == Verdict(STATUS_FALSE, line)

    def test_hn_tie_breaks_by_smallest_basis(self, monkeypatch):
        # phi = 1 on Q^3, Fil^1 the plane of e1 and e2: both lines in it have
        # slope 1, and a sample lattice without their sum ties them
        m = mk([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(1, [[1, 0, 0], [0, 1, 0]])], 3)
        e1, e2 = ((F(1), F(0), F(0)),), ((F(0), F(1), F(0)),)
        full = tuple(RatMatrix.identity(3).entries)
        inject(monkeypatch, hn.SubobjectLattice.sample(((), e2, e1, full)))
        first = hn_filtration(m).steps[0]
        assert (first.basis, first.slope, first.rank) == (e2, 1, 1)


def _assert_chain(m, filt):
    """Each step contains the one before, ranks rise to the module's, slopes strictly fall."""
    from slopecalc.rational import span_leq

    prev, rank = (), 0
    for step in filt.steps:
        assert span_leq(prev, step.basis) and len(step.basis) == step.rank > rank
        assert step.graded_rank == step.rank - rank
        prev, rank = step.basis, step.rank
    assert rank == m.rank
    slopes = [s.slope for s in filt.steps]
    assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))


def _hull_cases():
    """Eigenline modules of rank 8-10 (with and without an N chain), multiplicity-free
    slope normal forms of rank 8-11 and scalar chains of rank 3-8, with flags
    whose weights lie near the slopes; a case is named by its strategy first."""
    rng = random.Random(1303)
    cases = []

    def add(strategy, mod, slopes, variants):
        for i, w in enumerate(_weight_variants(rng, slopes)[:variants]):
            cases.append((f"{strategy}/{mod.rank}/{len(cases)}-{i}", _flagged(rng, mod, w)))

    for n in (8, 9, 10):
        mod = diagonal_instance(rng, P, n, -(n // 2), n // 2, allow_n=False)
        add("eigenlines", mod, [valuation(r, P) for r in _eigenvalues(mod)], 3)
        mod, _ = _eigen_module(rng, n, True, -(n // 2))  # within the root search's bound
        add("eigenlines", mod, list(range(-(n // 2), n - n // 2)), 3)
    for slopes in (
        [(F(1, 2), 2), (F(0), 1), (F(2), 1), (F(-1), 1), (F(1, 3), 3)],
        [(F(-1), 1), (F(1, 3), 3), (F(3, 2), 2), (F(2, 5), 5)],
        [(F(0), 1), (F(1), 1), (F(2), 1), (F(1, 3), 3), (F(-3), 1), (F(5, 2), 2)],
    ):
        add("blocks", from_slopes(SlopeMultiset(slopes), P), _snf_weights(slopes), 5)
    for n, a in ((3, 0), (5, 1), (8, -1)):
        add("scalar-chain", PhiModule.from_matrices(P, RatMatrix.identity(n).scale(F(P) ** a)),
            [a] * n, 5)
    return cases


HULL_CASES = _hull_cases()


class TestHullAgainstGreedy:
    """The hull's steps equal the greedy walk's beyond the ranks of `TestReferenceDeciders`."""

    @pytest.mark.parametrize("name, m", HULL_CASES, ids=[c[0] for c in HULL_CASES])
    def test_agrees(self, name, m):
        lattice = enumerate_subobjects(m)
        assert lattice.strategy == name.split("/")[0] and lattice.certified
        filt = hn_filtration(m)
        assert filt == greedy_filtration(m, lattice)
        _assert_chain(m, filt)

    def test_cases_have_long_filtrations(self):
        lengths = {}
        for name, m in HULL_CASES:
            kind = name.split("/")[0]
            lengths[kind] = max(lengths.get(kind, 0), len(hn_filtration(m).steps))
        assert min(lengths.values()) >= 3, lengths


def _unnested_vertex(certified):
    """phi = 1 on Q^4 with weights (3, 3, 2, 0) on the standard basis, and the family
    0, e1, span(e2, e3), Q^4 of degrees 0, 3, 5, 8: every point is a vertex of
    the upper hull (slopes 3, 2, 3/2), and the one at rank 2 misses e1.  The
    family is not closed under sums, so it is consistent only as a sample."""
    ident = RatMatrix.identity(4).entries
    e1, e2, e3, _ = (tuple(row) for row in ident)
    m = mk(ident, [(1, [e1, e2, e3]), (3, [e1, e2])], 4)
    lattice = hn.SubobjectLattice.sample(((), (e1,), (e2, e3), tuple(ident)))
    if certified:  # a deciding lattice: any strategy but the sample
        lattice.strategy = "blocks"
    return m, lattice


def _doubled_vertex():
    """A certified lattice listing an HN step of an eigenline module as two parts:
    the elements of the module's lattice, one part each, with the step's twice;
    the module is a twin of the one decided on, and keeps no lattice."""
    m = TestLazyLattice.eigen6(0, True)
    step = hn_filtration(m).steps[0]
    bases = elements(enumerate_subobjects(m))
    at = bases.index(step.basis)
    doubled = hn.SubobjectLattice.sample(bases[: at + 1] + bases[at:])
    doubled.strategy = "eigenlines"  # a deciding lattice: any strategy but the sample
    return twin(m), doubled


def _unstable_sample():
    """phi = diag(1, 1, p), whose lattice is a sample, with a sample lattice
    listing the line of e1 + e3, which phi moves: phi(e1 + e3) = e1 + p e3."""
    ident = RatMatrix.identity(3).entries
    m = mk([[1, 0, 0], [0, 1, 0], [0, 0, P]], [(1, ident[:2]), (2, ident[:1])], 3)
    line = ((F(1), F(0), F(1)),)
    return m, hn.SubobjectLattice.sample(((), ident[:1], line, tuple(ident)))


def _n_moved_line():
    """phi = diag(1, p) with N(e2) = e1 and weights -1 on e1, 2 on e2, and a
    certified lattice listing span(e2), which phi keeps and N moves: of degree
    1, it is the one violator and the rank-1 HN vertex.  The module's own
    lattice, 0 < span(e1) < V, has no violator."""
    m = mk([[1, 0], [0, P]], [(0, [[0, 1]]), (2, [[0, 1]])], 2, nil=[[0, 1], [0, 0]])
    return m, hn._n_closed_sums([[(1, 0)], [(0, 1)]], [0, 0], "eigenlines")


class TestRecheckChecksN:
    """The re-check tests N beside phi: a returned subspace that N moves is an
    internal fault, not a verdict."""

    def test_sub_invariants_rejects_a_subspace_that_n_moves(self):
        m, _ = _n_moved_line()
        assert m.hodge.weights == (-1, 2) and degree(m) == 0
        assert sub_invariants(m, ((F(1), F(0)),)) == (1, -1, 0, -1)
        with pytest.raises(InputError, match="^subspace is not N-stable$"):
            sub_invariants(m, ((F(0), F(1)),))

    def test_the_modules_own_lattice_has_no_violator(self):
        m, _ = _n_moved_line()
        assert is_weakly_admissible(m) == is_acyclic(m) == Verdict(STATUS_TRUE)
        assert hn_filtration(m).slopes() == [(0, 2)]

    @pytest.mark.parametrize("decide", [is_weakly_admissible, is_acyclic, hn_filtration])
    def test_doctored_lattice_raises(self, monkeypatch, decide):
        m, lattice = _n_moved_line()
        inject(monkeypatch, lattice)
        with pytest.raises(AssertionError, match="^internal: the re-check rejects a returned "
                                                 "subspace: subspace is not N-stable$"):
            decide(m)


class TestHullChecks:
    """On a lattice that decides, a vertex element must be unique and hold the step before."""

    def test_sample_skips_a_vertex_that_misses_the_step_before(self, monkeypatch):
        m, lattice = _unnested_vertex(False)
        inject(monkeypatch, lattice)
        filt = hn_filtration(m)
        assert [s.rank for s in filt.steps] == [1, 4]  # the rank-2 vertex is skipped
        assert [s.slope for s in filt.steps] == [3, F(5, 3)]
        assert not filt.certified
        _assert_chain(m, filt)

    def test_deciding_lattice_with_unnested_vertex_raises(self, monkeypatch):
        m, lattice = _unnested_vertex(True)
        inject(monkeypatch, lattice)
        with pytest.raises(AssertionError, match="internal: the HN vertex at rank 2 misses"):
            hn_filtration(m)

    def test_vertex_listed_twice_raises(self, monkeypatch):
        m, doubled = _doubled_vertex()
        inject(monkeypatch, doubled)
        with pytest.raises(AssertionError, match="internal: 2 elements reach the HN vertex"):
            hn_filtration(m)


class TestElementsOnDemand:
    """No decider lists the elements of a certified lattice: `keys`, computed
    on first read, stays unread.  The certified reference cases cover
    eigenlines with and without N, slope blocks and scalar chains."""

    CASES = [m for name, m in REFERENCE_CASES if not name.startswith("sample")]

    @staticmethod
    def listed(lattice):
        return "keys" in vars(lattice)

    @staticmethod
    def wrapped_enumeration(monkeypatch):
        lattices, real = [], hn.enumerate_subobjects

        def wrapped(*args, **kwargs):
            lattices.append(real(*args, **kwargs))
            return lattices[-1]

        # `battery` and `fn4_reduce` look it up on the hn module at call time
        monkeypatch.setattr(hn, "enumerate_subobjects", wrapped)
        return lattices

    def test_deciders(self, monkeypatch):
        statuses = set()
        lattices = self.wrapped_enumeration(monkeypatch)
        for m in map(twin, self.CASES):
            for decide in (is_weakly_admissible, is_acyclic, hn_filtration):
                statuses.add(getattr(decide(m), "status", None))
                assert not any(map(self.listed, lattices)), decide.__name__
        # every module is enumerated, once
        assert len(lattices) == len(self.CASES) and all(lat.certified for lat in lattices)
        assert {lattice.strategy for lattice in lattices} == {"eigenlines", "blocks", "scalar-chain"}
        assert {STATUS_TRUE, STATUS_FALSE} <= statuses

    def test_fn4_reduce(self, monkeypatch):
        acyclic = [twin(m) for m in self.CASES if is_acyclic(m).status == STATUS_TRUE]
        lattices = self.wrapped_enumeration(monkeypatch)
        for m in acyclic:
            fn4_reduce(m)
        assert {lattice.strategy for lattice in lattices} == {"eigenlines", "blocks", "scalar-chain"}
        assert not any(map(self.listed, lattices))

    def test_battery(self, monkeypatch):
        from slopecalc.diagram import SyntheticCohomology, battery
        from test_diagram import BATTERY_CASES

        lattices = self.wrapped_enumeration(monkeypatch)
        for s in BATTERY_CASES.values():
            battery(SyntheticCohomology.from_obj(s.to_obj()))  # modules that keep no lattice
        certified = [lattice for lattice in lattices if lattice.certified]
        assert {lattice.strategy for lattice in certified} == {"eigenlines", "blocks", "scalar-chain"}
        assert not any(map(self.listed, certified))


class TestLazyLattice:
    """Part lattices build a basis only for what a decider returns or compares."""

    @staticmethod
    def counted_rref(monkeypatch):
        calls, real = [], hn.rref_rows

        def counted(rows, ncols):
            calls.append(len(rows))
            return real(rows, ncols)

        monkeypatch.setattr(hn, "rref_rows", counted)
        return calls

    @staticmethod
    def eigen6(seed, moved):
        rng = random.Random(seed)
        mod, _ = _eigen_module(rng, 6, False)
        slopes = [valuation(r, P) for r in _eigenvalues(mod)]
        return _flagged(rng, mod, _weight_variants(rng, slopes)[1 if moved else 0])

    def test_length_needs_no_basis(self, monkeypatch):
        m = self.eigen6(1, False)
        calls = self.counted_rref(monkeypatch)
        lattice = enumerate_subobjects(m)
        assert len(lattice[0]) == len(lattice.keys) == 64 and calls == []
        keys, certified = lattice  # unpacking yields the keys, which need no basis
        assert keys == lattice.keys and certified and calls == []
        assert len(set(elements(lattice))) == 64 and len(calls) == 64

    def test_sample_bases_need_no_elimination(self, monkeypatch):
        # a sample is built from canonical bases, which its parts keep
        m = TestSampledLattice.conjugated([F(2), F(2), F(2), F(1, 2)])
        calls = self.counted_rref(monkeypatch)
        lattice = enumerate_subobjects(m)
        assert lattice.strategy == "sample" and calls == []
        assert elements(lattice) == [lattice.basis(key) for key in lattice.keys]
        assert len(lattice.keys) > 8 and calls == []

    def test_certified_true_acyclic_builds_no_basis(self, monkeypatch):
        m = twin(next(m for m in (self.eigen6(s, False) for s in range(40))
                      if is_acyclic(m).status == STATUS_TRUE))
        inject(monkeypatch, enumerate_subobjects(m))
        calls = self.counted_rref(monkeypatch)
        assert is_acyclic(m).status == STATUS_TRUE
        assert is_weakly_admissible(m).status == STATUS_TRUE
        assert calls == []

    @pytest.mark.parametrize("seed", range(4))
    def test_hn_builds_only_steps_and_ties(self, seed, monkeypatch):
        m = self.eigen6(seed, True)
        _, steps, ties = _reference(m)
        lattice = inject(monkeypatch, enumerate_subobjects(m))
        calls = self.counted_rref(monkeypatch)
        assert hn_filtration(m).steps == steps
        # every tie but V, the last step, whose basis is the identity
        assert len(calls) == len(ties) - 1 < len(lattice.keys)

    def test_witness_builds_only_its_rank(self, monkeypatch):
        for seed in range(40):
            m = self.eigen6(seed, True)
            verdict = is_acyclic(m)
            if verdict.status == STATUS_FALSE:
                break
        m = twin(m)
        inject(monkeypatch, enumerate_subobjects(m))
        calls = self.counted_rref(monkeypatch)
        assert is_acyclic(m) == verdict
        rank = len(verdict.witness)
        assert calls and set(calls) == {rank} and len(calls) <= math.comb(6, rank)

    @pytest.mark.parametrize("kind", ["eigenlines", "blocks", "scalar-chain", "sample"])
    def test_doctored_part_raises(self, kind, monkeypatch):
        if kind == "sample":
            m, doctored = _unstable_sample()
        elif kind == "scalar-chain":
            # a scalar phi keeps every subspace, so the chain of one is
            # passed with a diagonal phi that moves its lines
            flag = [(1, [[1, 1, 0], [0, 1, 1]]), (2, [[1, 1, 0]])]
            doctored = enumerate_subobjects(mk([[P, 0, 0], [0, P, 0], [0, 0, P]], flag, 3))
            m = mk([[1, 0, 0], [0, P, 0], [0, 0, P * P]], flag, 3)
        else:
            if kind == "eigenlines":
                m = self.eigen6(2, True)
            else:
                mod = from_slopes(SlopeMultiset([(F(1, 2), 2), (F(0), 1), (F(2), 1)]), P)
                m = _flagged(random.Random(3), mod, [0, 1, 0, 2])
            lattice = enumerate_subobjects(m)
            parts = [list(part) for part in lattice.parts]
            # the first part plus a row of the second: still independent, not stable
            parts[0][0] = tuple(a + b for a, b in zip(parts[0][0], parts[1][0]))
            doctored = hn.SubobjectLattice(parts, kind, lattice.order)
        assert doctored.strategy == kind
        inject(monkeypatch, doctored)
        for decide in (is_acyclic, hn_filtration):
            with pytest.raises(AssertionError, match="not Frobenius-stable"):
                decide(twin(m))


class TestRecheckCost:
    """The definition-based re-check of returned steps and witnesses: one
    induced filtration per re-check of a proper subspace, one elimination per
    distinct Fil^j, and V checked against t_H(M) and the module's t_N(M)."""

    @staticmethod
    def counted(monkeypatch, module, name):
        calls, real = [], getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    def test_one_induced_filtration_per_recheck(self, seed, monkeypatch):
        m = TestLazyLattice.eigen6(seed, True)
        inject(monkeypatch, enumerate_subobjects(m))
        rechecks = self.counted(monkeypatch, hn, "sub_invariants")
        induced = self.counted(monkeypatch, hn, "induced_on_subspace")
        tns = self.counted(monkeypatch, hn, "t_n")
        steps = hn_filtration(m).steps
        # V, the last step, is re-checked from t_H(M) and t_N(M), not induced
        assert len(rechecks) == len(induced) + 1 == len(steps)
        assert [args[1] for args in rechecks] == [step.basis for step in steps]
        # V's t_N(M) is `t_n(m.module)`, which the module kept when it was built
        assert tns == [(m.module,)]
        witness = is_acyclic(m).witness
        assert len(rechecks) == len(induced) + 1 == len(steps) + (witness is not None)

    def test_whole_space_from_the_module_invariants(self, monkeypatch):
        m = TestLazyLattice.eigen6(2, True)
        ident = tuple(RatMatrix.identity(m.rank).entries)
        want = (m.rank, t_h(m.hodge), hn.t_n(m.module), degree(m))
        restrictions = self.counted(monkeypatch, hn, "restriction_matrix")
        induced = self.counted(monkeypatch, hn, "induced_on_subspace")
        assert sub_invariants(m, ident) == want
        assert restrictions == induced == []
        # another basis of V is scored from the definition, to the same result
        assert sub_invariants(m, ident[1::-1] + ident[2:]) == want
        assert len(restrictions) == len(induced) == 1
        # n rows that are dependent do not name V
        try:
            got = sub_invariants(m, ident[:1] + ident[:1] + ident[2:])
        except (ArithmeticError, InputError):
            got = None
        assert got != want

    @pytest.mark.parametrize("form", [
        lambda n: [tuple(F(i == j) for j in range(n)) for i in range(n)],
        lambda n: [[int(i == j) for j in range(n)] for i in range(n)],
        lambda n: [[i == j for j in range(n)] for i in range(n)],
    ], ids=["fraction-tuples", "int-lists", "bool-rows"])
    def test_whole_space_in_any_entry_type(self, form, monkeypatch):
        m = TestLazyLattice.eigen6(3, True)
        ident = form(m.rank)
        want = (m.rank, t_h(m.hodge), hn.t_n(m.module), degree(m))
        restrictions = self.counted(monkeypatch, hn, "restriction_matrix")
        assert sub_invariants(m, ident) == want and restrictions == []
        # a row permutation of V is not the identity: scored from the definition,
        # which reads no bool entry
        assert sub_invariants(m, [list(map(int, row)) for row in ident[::-1]]) == want
        assert len(restrictions) == 1

    def test_recheck_is_independent_of_the_scorer(self, monkeypatch):
        m = TestLazyLattice.eigen6(5, True)
        lattice = enumerate_subobjects(m)
        want = dict(lattice_scorer(m, lattice)())

        def refuse(*args, **kwargs):
            raise AssertionError("the re-check used the lattice scorer")

        monkeypatch.setattr(hn, "lattice_scorer", refuse)
        monkeypatch.setattr(hn, "_flag_coordinates", refuse)
        assert {key: sub_invariants(m, lattice.basis(key)) for key in lattice.keys} == want

    def test_wide_flag_costs_one_elimination_per_distinct_level(self, monkeypatch):
        # Fil^j is S3 for 0 <= j < 15, S2 up to 29, S1 up to 44 and zero from
        # 45: a dense flag of 45 indices with three distinct proper levels
        rows = [[1, 2, 0, 1], [0, 1, -1, 3], [2, 0, 1, 1]]
        h = HodgeData.from_flag([(0, rows), (15, rows[:2]), (30, rows[:1]), (45, [])], rank=4)
        assert len(h.flag) == 45 and len({basis for _, basis in h.flag}) == 3
        w = [[1, 0, 0, 0], [0, 1, 1, 0], [F(1, 2), 1, 0, 2]]
        eliminations = self.counted(monkeypatch, filtration, "_gauss_jordan")
        got = induced_on_subspace(h, w)
        # one row reduction of W (4 columns), then one elimination of
        # [w_i | e_i] over [f | 0] (4 + 3 columns) per distinct proper level
        assert [ncols for _, ncols in eliminations] == [4, 7, 7, 7]
        monkeypatch.undo()
        assert got == fraction_induced(h, w)


class TestScoringCost:
    """Scoring costs one integer echelon per element, however far apart the
    flag's jumps lie."""

    @pytest.mark.parametrize("kind", ["eigenlines", "scalar-chain"])
    def test_cost_is_independent_of_the_weight_gap(self, kind, monkeypatch):
        rng = random.Random(8)
        if kind == "eigenlines":
            mod = diagonal_instance(rng, P, 8, -4, 4, allow_n=False)
        else:
            mod = PhiModule.from_matrices(P, RatMatrix.identity(8).scale(P))
        rows = random_unimodular(rng, 8).entries[:4]
        counts = {}
        for top in (1, 900):
            # weights {0, top}: Fil^1 = ... = Fil^top = span(rows), Fil^(top+1) = 0,
            # so `top` dense indices but two distinct levels whatever the gap
            h = HodgeData.from_flag([(1, rows), (top + 1, [])], rank=8)
            m = twin(FilteredPhiModule(mod, h))  # each flag on a module of its own
            lattice = inject(monkeypatch, enumerate_subobjects(m))
            assert lattice.strategy == kind and len(h.flag) == top
            calls = [TestRecheckCost.counted(monkeypatch, hn, name)
                     for name in ("int_echelon", "int_residue")]
            hn_filtration(m)
            monkeypatch.undo()
            counts[top] = [len(c) for c in calls]
        assert counts[1] == counts[900]


    def test_sample_builds_no_lower_lists(self, monkeypatch):
        # a mask keeps the residues of the parts below it (each made
        # primitive) only when another key extends it; no sample key does
        rng = random.Random(9)
        sample = TestSampledLattice.conjugated([F(2), F(2), F(2), F(1, 2)])
        eigen = FilteredPhiModule(diagonal_instance(rng, P, 4, -2, 2, allow_n=False),
                                  random_flag(rng, 4, 0, 3))
        for m, kind in ((sample, "sample"), (eigen, "eigenlines")):
            lattice = enumerate_subobjects(m)
            assert lattice.strategy == kind and len(lattice.keys) > 8
            reduced = TestRecheckCost.counted(monkeypatch, hn, "_primitive")
            list(lattice_scorer(m, lattice)())
            monkeypatch.undo()
            assert (len(reduced) == 0) == (kind == "sample")


class TestWalk:
    """The scorer's depth-first walk over the closed masks."""

    @staticmethod
    def kinds():
        rng = random.Random(12)
        blocks = from_slopes(SlopeMultiset([(F(1, 2), 2), (F(0), 1), (F(2), 1), (F(-1), 1)]), P)
        scalar = PhiModule.from_matrices(P, RatMatrix.identity(5).scale(P))
        return {
            "eigenlines": FilteredPhiModule(_eigen_module(rng, 6, False)[0],
                                            random_flag(rng, 6, -1, 3)),
            "eigenlines/N": FilteredPhiModule(_eigen_module(rng, 6, True)[0],
                                              random_flag(rng, 6, -1, 3)),
            "blocks": FilteredPhiModule(blocks, random_flag(rng, 5, 0, 3)),
            "scalar-chain": FilteredPhiModule(scalar, random_flag(rng, 5, 0, 3)),
            "sample": TestSampledLattice.conjugated([F(2), F(2), F(2), F(1, 2)]),
        }

    @pytest.mark.parametrize("kind", ["eigenlines", "eigenlines/N", "blocks", "scalar-chain",
                                      "sample"])
    def test_visits_every_key_once(self, kind):
        m = self.kinds()[kind]
        lattice = enumerate_subobjects(m)
        assert lattice.strategy == kind.split("/")[0] and len(lattice.keys) > 4
        visited = [key for key, _ in lattice_scorer(m, lattice)()]
        assert len(visited) == len(set(visited)) == len(lattice.keys)
        assert set(visited) == set(lattice.keys)
        if kind == "eigenlines/N":
            assert len(lattice.keys) < 2 ** 6  # the chain closes fewer masks than all

    def test_rank_14_scoring_peaks_under_a_megabyte(self, monkeypatch):
        # the rank-14 eigenline module of ROADMAP: 2^14 elements, scored on a
        # stack that grows with the rank, not a table that grows with them
        import tracemalloc

        rng = random.Random(14)
        mod = diagonal_instance(rng, P, 14, -7, 7, allow_n=False)
        m = FilteredPhiModule(mod, random_flag(rng, 14, 0, 3))
        lattice = enumerate_subobjects(m)
        assert lattice.strategy == "eigenlines" and len(lattice.keys) == 2 ** 14
        inject(monkeypatch, lattice)
        tracemalloc.start()
        try:
            filt = hn_filtration(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert filt.certified and len(filt.steps) > 3
        assert peak < 2 ** 20

    def test_line_violators_stop_the_walk_early(self, monkeypatch):
        rng = random.Random(2)
        m = FilteredPhiModule(diagonal_instance(rng, P, 8, -4, 4, allow_n=False),
                              random_flag(rng, 8, 0, 3))
        verdict = is_acyclic(m)
        assert verdict.status == STATUS_FALSE and len(verdict.witness) == 1
        scored, real = [], hn.lattice_scorer

        def counted(m, lattice):
            walk = real(m, lattice)

            def counting(cap=None):
                for key, inv in walk(cap):
                    scored.append(key)
                    yield key, inv

            return counting

        monkeypatch.setattr(hn, "lattice_scorer", counted)
        m = twin(m)  # the verdict above left m's scorer on it
        lattice = inject(monkeypatch, enumerate_subobjects(m))
        assert is_acyclic(m) == verdict
        # every line is scored, and far from every element
        assert {key for key in lattice.keys if key & (key - 1) == 0} <= set(scored)
        assert len(scored) < len(lattice.keys) == 2 ** 8


class TestKeptLattice:
    """A decider takes the module alone.  `hn.enumerate_subobjects` runs once
    per module: the `PhiModule` keeps a lattice that reads only phi and N,
    and the `FilteredPhiModule` keeps its one lattice, the scalar chain
    among them, which reads the flag, with its one scorer.  (`fn4_reduce`
    enumerates once over all its steps:
    `TestFn4Reduce.test_one_enumeration_per_call`.)"""

    @staticmethod
    def calls(monkeypatch, name):
        """The module of every call of `hn.<name>` from now on."""
        seen, real = [], getattr(hn, name)

        def counted(m, *args):
            seen.append(m)
            return real(m, *args)

        monkeypatch.setattr(hn, name, counted)
        return seen

    @pytest.mark.parametrize("kind", ["eigenlines", "eigenlines/N", "blocks", "scalar-chain",
                                      "sample"])
    def test_three_deciders_enumerate_and_score_once(self, kind, monkeypatch):
        m = TestWalk.kinds()[kind]
        want = [decide(twin(m)) for decide in (is_weakly_admissible, is_acyclic, hn_filtration)]
        enumerations = self.calls(monkeypatch, "enumerate_subobjects")
        scorers = self.calls(monkeypatch, "lattice_scorer")
        got = [decide(m) for decide in (is_weakly_admissible, is_acyclic, hn_filtration)]
        assert got == want and vst_dimension(m) == hn.vst_from_filtration(got[2])
        assert enumerations == [m] and scorers == [m]

    def test_two_flags_on_one_eigenline_module_enumerate_once(self, monkeypatch):
        rng = random.Random(18)
        mod = diagonal_instance(rng, P, 6, -3, 3, allow_n=False)
        flags = [FilteredPhiModule(mod, random_flag(rng, 6, -1, 3)) for _ in range(2)]
        want = [(is_acyclic(twin(m)), hn_filtration(twin(m))) for m in flags]
        enumerations = self.calls(monkeypatch, "enumerate_subobjects")
        scorers = self.calls(monkeypatch, "lattice_scorer")
        assert [(is_acyclic(m), hn_filtration(m)) for m in flags] == want
        assert enumerations == [flags[0]] and scorers == flags
        assert mod.lattice.strategy == "eigenlines"
        assert all(m.lattice is mod.lattice for m in flags)

    def test_scalar_phi_enumerates_once_per_flag(self, monkeypatch):
        # phi = 1 at p = 2, Fil^0 = <e1> for a and <e2> for b: b's own chain
        # gives its HN slopes 0 and -1; a's chain would give one step of slope
        # -1/2, and no call can hand a's lattice to b's decider any more
        mod = PhiModule.from_matrices(P, [[1, 0], [0, 1]])
        a, b = (FilteredPhiModule(mod, HodgeData.from_flag([(0, [line])], rank=2))
                for line in ([1, 0], [0, 1]))
        enumerations = self.calls(monkeypatch, "enumerate_subobjects")
        filts = [hn_filtration(m) for m in (a, b, a, b)]
        assert is_acyclic(b) == Verdict(STATUS_FALSE, ())  # deg(M) = -1 < deg(0)
        assert enumerations == [a, b] and mod.lattice is None
        assert filts[:2] == filts[2:]
        for m, filt, line in ((a, filts[0], (F(1), F(0))), (b, filts[1], (F(0), F(1)))):
            assert filt.certified and filt.slopes() == [(0, 1), (-1, 1)]
            assert filt.steps[0].basis == (line,) and m.lattice.strategy == "scalar-chain"
        with pytest.raises(TypeError):
            hn_filtration(b, enumerate_subobjects(a))


def _sweep_cases():
    """(strategy, module) at each rank 2-8: eigenlines with N chains, slope
    blocks (with an N chain from rank 4, where two blocks of slopes one apart
    and not integers first fit), a sample (from rank 3, where a repeated
    eigenvalue first fits beside an N chain) and scalar Frobenius, which
    forces N = 0.  Half the flags take the rounded-up Newton slopes as
    weights, half are random."""
    rng = random.Random(2208)
    blocks = {2: [F(1, 2)], 3: [0, F(1, 2)], 4: [F(1, 2), F(3, 2)], 5: [0, F(1, 2), F(3, 2)],
              6: [F(1, 3), F(4, 3)], 7: [-1, 0, 1, F(1, 2), F(3, 2)], 8: [F(1, 4), F(5, 4)]}
    cases = []
    for n in range(2, 9):
        e = rng.randint(-1, 1)  # the sample's repeated exponent, drawn at every rank
        mods = [("eigenlines", chain_instance(rng, P, rng.sample(range(-1, n), n))),
                ("blocks", block_chain_instance(rng, P, blocks[n])),
                ("scalar-chain", PhiModule.from_matrices(P, RatMatrix.identity(n).scale(P)))]
        if n > 2:
            repeated = [e, e + 1, e] + rng.sample(range(e + 2, e + n + 2), n - 3)
            mods.append(("sample", chain_instance(rng, P, repeated)))
        for strategy, mod in mods:
            slopes = [s for s, k in newton_slopes(mod) for _ in range(k)]
            weights = ([math.ceil(s) for s in slopes] if rng.random() < 0.5
                       else [rng.randint(-1, n) for _ in slopes])
            cases.append((f"{strategy}/{n}", _flagged(rng, mod, weights)))
    return cases


SWEEP_CASES = _sweep_cases()


class TestOracleSweep:
    """The `--oracle` checks pass on every decider's answer over seeded modules
    with N chains at ranks 2-8, on every strategy: `check_verdict` (both
    kinds) re-checks that each element of the lattice is phi- and N-stable
    and re-scores it, and `check_hn` re-scores the steps and the HN polygon."""

    @pytest.mark.parametrize("name, m", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    @deadline(30)
    def test_oracle_accepts(self, name, m):
        assert m.lattice.strategy == name.split("/")[0]
        for kind, decide in (("wa", is_weakly_admissible), ("acyclic", is_acyclic)):
            oracle.check_verdict(m, decide(m), kind)
        oracle.check_hn(m, hn_filtration(m))

    def test_cases_have_n_chains_and_both_verdicts(self):
        with_n = {name.split("/")[0] for name, m in SWEEP_CASES if not m.module.nilpotent.is_zero()}
        assert with_n == {"eigenlines", "blocks", "sample"}
        statuses = {is_weakly_admissible(m).status for _, m in SWEEP_CASES if degree(m) == 0}
        assert {STATUS_TRUE, STATUS_FALSE} <= statuses


class TestKeptIntRows:
    """`rational.int_matrix` keeps each matrix's integer rows on it: the
    conversion that validation makes of phi (and of a nonzero N) serves the
    enumeration, the sample, the scorer and every re-check, and no caller
    changes the rows it is handed."""

    KINDS = ["eigenlines", "eigenlines/N", "blocks", "scalar-chain", "sample"]

    @staticmethod
    def run_everything(m):
        for kind, decide in (("wa", is_weakly_admissible), ("acyclic", is_acyclic)):
            oracle.check_verdict(m, decide(m), kind)
        vst_dimension(m)
        if is_acyclic(m).status == STATUS_TRUE:
            fn4_reduce(m)
        hn._sample_subobjects(m, rational_roots(m.module.coeffs)[0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_conversion_per_matrix(self, kind, monkeypatch):
        from slopecalc import rational

        seen, real = [], rational._row_denominator

        def counted(row):
            seen.append(row)
            return real(row)

        monkeypatch.setattr(rational, "_row_denominator", counted)
        m = twin(TestWalk.kinds()[kind])
        self.run_everything(m)
        for mat in (m.module.phi, m.module.nilpotent):  # a conversion reads row 0 once
            assert sum(row is mat.entries[0] for row in seen) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_kept_rows_equal_a_fresh_conversion(self, kind):
        m = twin(TestWalk.kinds()[kind])
        self.run_everything(m)
        for mat in (m.module.phi, m.module.nilpotent):
            assert int_matrix(mat) == int_matrix(RatMatrix(mat.entries))


class TestSharedIdentity:
    """`RatMatrix.identity(n)` is one instance per n, which flags, deciders and
    the re-check of V share: no caller changes its entries or its kept int rows."""

    def test_one_instance_per_rank(self):
        for n in range(6):
            assert RatMatrix.identity(n) is RatMatrix.identity(n)
            assert RatMatrix.identity(n) == RatMatrix([[int(i == j) for j in range(n)]
                                                       for i in range(n)])

    @pytest.mark.parametrize("scalar", [1, P], ids=["I", "2I"])
    @pytest.mark.parametrize("dualize", [False, True], ids=["phi", "dual"])
    def test_unchanged_by_the_deciders_and_the_battery(self, scalar, dualize):
        from slopecalc.diagram import SyntheticCohomology, battery

        n = 3
        ident = RatMatrix.identity(n)
        entries, ints = ident.entries, copy.deepcopy(int_matrix(ident))
        mod = PhiModule.from_matrices(P, ident if scalar == 1 else ident.scale(scalar))
        mod = dual(mod) if dualize else mod
        s = int(newton_slopes(mod).entries[0][0])
        # weights s, s + 1, s + 2 on the scalar slope s: acyclic of degree 3
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        hodge = HodgeData.from_flag([(s, rows), (s + 1, [[1, 1, 0], [0, 0, 1]]),
                                     (s + 2, [[1, 1, 1]])], rank=n)
        m = FilteredPhiModule(mod, hodge)
        assert is_weakly_admissible(m).status == STATUS_FALSE
        assert is_acyclic(m).status == STATUS_TRUE
        assert hn_filtration(m).steps[-1].basis == entries
        vst_dimension(m)
        assert degree(fn4_reduce(m)) == 0
        assert sub_invariants(m, entries) == (n, t_h(hodge), hn.t_n(mod), degree(m))
        if s >= 0:  # the windows admit slope s and weights up to s + 2
            assert battery(SyntheticCohomology.build(s + 2, m)).verdict_b_r.is_true
        assert RatMatrix.identity(n) is ident and ident.entries is entries
        assert entries == tuple(tuple(F(i == j) for j in range(n)) for i in range(n))
        assert int_matrix(ident) == ints == ([[int(i == j) for j in range(n)] for i in range(n)], 1)


class TestCopies:
    """A module survives `pickle` and `copy.deepcopy`, before and after a
    decider: the copy is built from the fields alone, so it keeps none of the
    lattice, scorer and characteristic polynomial, and it decides alike."""

    @staticmethod
    def eigen8():
        rng = random.Random(8)
        mod = diagonal_instance(rng, P, 8, -4, 4, allow_n=False)
        return FilteredPhiModule(mod, random_flag(rng, 8, 0, 3))

    @pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_round_trip_before_and_after_a_decider(self, copy_of):
        m = self.eigen8()
        deciders = (is_weakly_admissible, is_acyclic, hn_filtration)
        want = [decide(twin(m)) for decide in deciders]
        before = copy_of(m)
        assert hn_filtration(m) == want[2] and m.lattice.strategy == "eigenlines"
        after = copy_of(m)
        for c in (before, after):
            assert c == m and c.module.tn == m.module.tn
            assert copy_of(c.module.phi) == m.module.phi
            assert c.module.lattice is None and "coeffs" not in vars(c.module)
            assert "slopes" not in vars(c.module)
            assert "lattice" not in vars(c) and "walk" not in vars(c)
            assert [decide(c) for decide in deciders] == want


class TestPivotWeights:
    """t_H as the weight sum of leading columns in flag-adapted coordinates,
    against the rank formula of `_fraction_reference` and the induced
    filtration, on flags with repeated weights, gaps and negative weights."""

    @staticmethod
    def flag(rng, n):
        lo = rng.randint(-6, 1)
        pool = [lo, lo + 1, lo + rng.randint(2, 25), lo + rng.randint(2, 25)]
        return random_flag(rng, n, lo, lo, [rng.choice(pool) for _ in range(n)])

    @staticmethod
    def agree(h, basis, th):
        assert type(th) is int
        assert th == t_h_by_ranks(h, basis) == t_h(induced_on_subspace(h, basis))

    def test_random_subspaces(self):
        # scalar Frobenius makes every subspace stable, so each one is scored
        # as the one part of a sample lattice
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 6)
            h = self.flag(rng, n)
            m = FilteredPhiModule(PhiModule.from_matrices(P, RatMatrix.identity(n).scale(P)), h)
            for _ in range(4):
                rows = [[F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
                        for _ in range(rng.randint(1, n))]
                basis = rref_rows(rows, n)
                if basis:
                    walk = lattice_scorer(m, hn.SubobjectLattice.sample([(), basis]))
                    k, th, tn, d = dict(walk())[1]
                    self.agree(h, basis, th)
                    assert (k, tn, d) == (len(basis), k, th - k)

    def test_part_lattices(self):
        rng = random.Random(32)
        for _ in range(12):
            n = rng.randint(1, 5)
            if rng.random() < 0.5:
                mod = diagonal_instance(rng, P, n, -2, 3)
            else:
                mod = PhiModule.from_matrices(P, RatMatrix.identity(n).scale(P))
            m = FilteredPhiModule(mod, self.flag(rng, n))
            lattice = enumerate_subobjects(m)
            scored = dict(lattice_scorer(m, lattice)())
            assert sorted(scored) == sorted(lattice.keys)
            for key, (_, th, _, _) in scored.items():
                basis = lattice.basis(key)
                if basis:
                    self.agree(m.hodge, basis, th)


class TestSampledLattice:
    """The sampled lattice equals the Fraction reference's, element for element."""

    @staticmethod
    def with_n():
        # phi = S diag(1/2, 1/2, 1) S^-1 and N = S E S^-1 with E mapping the
        # 1-line into the 1/2-plane, so N.phi = 2.phi.N
        s = RatMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        diag = RatMatrix([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, 1]])
        e = RatMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        mod = PhiModule.from_matrices(P, s @ diag @ s.inverse(), s @ e @ s.inverse())
        return FilteredPhiModule(mod, random_flag(random.Random(1), 3, 0, 2))

    @staticmethod
    def conjugated(eigenvalues, e=None, seed=1):
        """S diag(eigenvalues) S^-1 with N = S e S^-1 for a dense S, and a random flag."""
        n = len(eigenvalues)
        lower = RatMatrix([[int(j <= i) for j in range(n)] for i in range(n)])
        s = lower @ lower.transpose()
        diag = RatMatrix([[eigenvalues[i] if i == j else 0 for j in range(n)] for i in range(n)])
        e = RatMatrix.zeros(n, n) if e is None else RatMatrix(e)
        mod = PhiModule.from_matrices(P, s @ diag @ s.inverse(), s @ e @ s.inverse())
        return FilteredPhiModule(mod, random_flag(random.Random(seed), n, 0, 2))

    def extra_cases(self):
        # eigenvalue 2 of multiplicity 3: its eigenspace basis picks the lines
        triple = self.conjugated([F(2), F(2), F(2), F(1, 2)])
        # N: 1-line -> (1/2)-line -> (1/4)-line, so ker N < ker N^2 < ker N^3 = V
        e = [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        chain = self.conjugated([F(1, 4), F(1, 2), F(1, 2), F(1)], e, seed=2)
        # distinct valuations beyond the root search: no roots, and a random
        # vector's closure is the full space
        big = self.conjugated([F(1), F(2), F(4), F(2) ** 41], seed=3)
        return {"triple": triple, "chain": chain, "big": big}

    def test_matches_reference(self):
        cases = [m for name, m in REFERENCE_CASES if name.startswith("sample")][::5]
        cases.append(self.with_n())
        extra = self.extra_cases()
        sizes = []
        for m in cases + list(extra.values()):
            roots, _ = rational_roots(charpoly(m.module.phi))
            got = hn._sample_subobjects(m, roots)
            assert got == fraction_sample(m, roots)
            assert enumerate_subobjects(m).strategy == "sample"
            sizes.append(len(got))
        # more than ten nonzero closures before pairing, so the order of
        # the set that picks the pairs shows in the result
        assert max(sizes) > 20

    def test_extra_cases_reach_their_paths(self):
        extra = self.extra_cases()
        # each line of the canonical basis of the 2-eigenspace is a closure
        phi = extra["triple"].module.phi
        got = hn._sample_subobjects(extra["triple"], [(F(2), 3), (F(1, 2), 1)])
        lines = (phi - RatMatrix.identity(4).scale(2)).nullspace()
        assert len(lines) == 3 and all(rref_rows([v], 4) in got for v in lines)
        # so is each proper N-power kernel
        m = extra["chain"].module
        got = hn._sample_subobjects(extra["chain"], rational_roots(charpoly(m.phi))[0])
        kernels = [m.nilpotent.nullspace(), (m.nilpotent @ m.nilpotent).nullspace()]
        assert [len(k) for k in kernels] == [2, 3] and all(k in got for k in kernels)
        # no roots, and the first random vector's closure is the full space
        phi = extra["big"].module.phi
        assert rational_roots(charpoly(phi)) == ([], 4)
        rng = random.Random(0)
        krylov = [[F(rng.randint(-3, 3)) for _ in range(4)]]
        for _ in range(3):
            krylov.append(phi.apply(krylov[-1]))
        assert len(rref_rows(krylov, 4)) == 4
