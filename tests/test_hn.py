import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc import filtration, hn
from slopecalc.filtration import HodgeData, dual_hodge, induced_on_subspace
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
    check_phi_n,
    dm_blocks,
    dual,
    from_slopes,
)
from slopecalc.rational import (
    FlagRequiredError,
    InputError,
    RatMatrix,
    charpoly,
    restriction_matrix,
    rref_rows,
    valuation,
)

from _fraction_reference import closed_masks as fraction_closed_masks
from _fraction_reference import induced_on_subspace as fraction_induced
from _fraction_reference import rational_roots as fraction_roots
from _fraction_reference import sample_subobjects as fraction_sample
from _generators import (
    certified_filtered_instance,
    diagonal_instance,
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


class TestDegree:
    def test_rank_one_matched(self):
        m = mk([[P]], [(1, [[1]])], 1)
        assert degree(m) == 0

    def test_rank_one_unit(self):
        m = mk([[1]], [(1, [[1]])], 1)
        assert degree(m) == 1

    def test_rank_two(self):
        assert degree(diag1p([(1, [[0, 1]])])) == 0


class TestEnumerate:
    def test_distinct_valuations_certified(self):
        subs, cert = enumerate_subobjects(diag1p([(1, [[0, 1]])]))
        assert cert
        assert len(subs) == 4
        dims = sorted(len(b) for b in subs)
        assert dims == [0, 1, 1, 2]

    def test_scalar_is_uncertified_sample(self):
        m = mk([[1, 0], [0, 1]], [(1, [[1, 0]])], 2)
        subs, cert = enumerate_subobjects(m)
        assert not cert  # every line is stable; no finite complete list exists

    def test_irreducible_block_certified(self):
        m = mk([[0, P], [1, 0]], [(1, [[1, 0]])], 2)
        subs, cert = enumerate_subobjects(m)
        assert cert
        assert sorted(len(b) for b in subs) == [0, 2]

    def test_monodromy_restricts_lattice(self):
        # N sends the p-eigenline to the 1-eigenline, so span(e2) alone is
        # not a subobject but span(e1) still is
        m = mk([[1, 0], [0, P]], [(1, [[0, 1]])], 2, nil=[[0, 1], [0, 0]])
        subs, cert = enumerate_subobjects(m)
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
        subs, cert = enumerate_subobjects(m)
        assert not cert
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
            assert hn._rational_roots(poly) == fraction_roots(poly)
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
            got = hn._rational_roots(poly)
            assert got == fraction_roots(poly)
            nonzero = [(r, roots.count(r)) for r in sorted(set(roots)) if r]
            assert got[0] == nonzero
            assert got[1] == len(poly) - 1 - sum(k for _, k in nonzero)
        assert seen == {"mult>=5", "content", "negative lead", "zero low"}

    def test_multiplicity_six_with_zero_roots(self):
        poly = _from_roots([F(-2, 3)] * 6 + [F(0)] * 2 + [F(5)], F(-4))
        assert hn._rational_roots(poly) == fraction_roots(poly) == ([(F(-2, 3), 6), (F(5), 1)], 2)

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
        assert hn._rational_roots(poly) == fraction_roots(poly) == expected

    @pytest.mark.parametrize("roots", [[F(10**7), F(3 * 10**5)], [F(1, 10**13), F(2)]])
    def test_beyond_the_factoring_bound(self, roots):
        poly = _from_roots(roots)
        assert hn._rational_roots(poly) == fraction_roots(poly) == ([], 2)


class TestClosedMasks:
    """`_n_closed_sums` lists exactly the masks the 2^n scan finds, in its order."""

    @staticmethod
    def closed_sums(sizes, supports):
        parts = [[(0,)] * size for size in sizes]
        return hn._n_closed_sums(parts, supports, [0] * len(sizes), 1, "blocks").masks

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
        m = mk([[1, 1], [0, 1]], [(0, [[1, 0], [0, 1]])], 2)
        a, ca = enumerate_subobjects(m, seed=5)
        b, cb = enumerate_subobjects(m, seed=5)
        assert a == b and ca == cb and not ca


class TestLatticeScorer:
    """The pivot-and-rank scorer agrees with the from-definition one."""

    @staticmethod
    def agree(m):
        subs, certified = enumerate_subobjects(m)
        score = lattice_scorer(m)
        for basis in subs:
            fast = score(basis)
            assert fast == sub_invariants(m, basis)
            assert fast[1] == oracle_t_h(m.hodge, basis)
        return subs, certified

    @pytest.mark.parametrize("allow_n", [False, True])
    def test_eigenline_modules(self, allow_n):
        rng = random.Random(20 + allow_n)
        with_n = 0
        for _ in range(12):
            n = rng.randint(2, 5)
            mod = diagonal_instance(rng, P, n, -2, 3, allow_n=allow_n)
            m = FilteredPhiModule(mod, random_flag(rng, n, -1, 3))
            _, certified = self.agree(m)
            assert certified
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
            subs, certified = self.agree(m)
            assert certified and len(subs) == 2 ** len(slopes)

    def test_scalar_frobenius(self):
        rng = random.Random(4)
        for n in (2, 3, 4):
            mod = PhiModule.from_matrices(P, RatMatrix.identity(n).scale(P))
            m = FilteredPhiModule(mod, random_flag(rng, n, 0, 3))
            subs, certified = self.agree(m)
            assert not certified and len(subs) == n + 1

    def test_repeated_eigenvalue_sample(self):
        rng = random.Random(5)
        s = random_unimodular(rng, 3)
        diag = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, P]])
        mod = PhiModule(P, s @ diag @ s.inverse(), RatMatrix.zeros(3, 3))
        m = FilteredPhiModule(mod, random_flag(rng, 3, 0, 2))
        subs, certified = self.agree(m)
        assert not certified and len(subs) > 2

    def test_unstable_basis_raises(self):
        m = mk([[0, P], [1, 0]], [(1, [[1, 0]])], 2)
        with pytest.raises(InputError):
            lattice_scorer(m)(((F(1), F(0)),))
        with pytest.raises(InputError):
            sub_invariants(m, ((F(1), F(0)),))


def _eigen_module(rng, n, chain):
    """S diag(lambda) S^-1 with distinct eigenvalue valuations, and its eigenvectors.

    With `chain` the eigenvalues are 1, p, ..., p^(n-1) and N maps each
    p^(i+1)-line into the p^i-line with a random coefficient in {0, 1, 2}.
    """
    if chain:
        eig = [F(P) ** i for i in range(n)]
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
    """Scores, containment and elements of part lattices against spans."""

    @staticmethod
    def agree(m, parts, strategy):
        from slopecalc.rational import span_leq

        lattice = enumerate_subobjects(m)
        assert lattice.strategy == strategy and lattice.certified and lattice.decides
        assert set(lattice.bases) == _span_lattice(parts, m.module.nilpotent, m.rank)
        bases = {key: lattice.basis(key) for key in lattice.keys}
        assert list(lattice.bases) == sorted(bases.values(), key=lambda b: (len(b), b))
        score = lattice_scorer(m, lattice)
        for mask, basis in bases.items():
            fast = score(basis, mask)
            assert fast == sub_invariants(m, basis)
            assert fast[1] == oracle_t_h(m.hodge, basis)
        for j, small in bases.items():
            for i, big in bases.items():
                assert lattice.below(j, i) == span_leq(small, big)
        return lattice

    @pytest.mark.parametrize("chain", [False, True])
    def test_eigenline_modules(self, chain):
        rng = random.Random(40 + chain)
        sizes = []
        for n in (3, 4, 5, 6):
            mod, lines = _eigen_module(rng, n, chain)
            assert check_phi_n(mod)
            m = FilteredPhiModule(mod, random_flag(rng, n, -1, 3))
            sizes.append(len(self.agree(m, lines, "eigenlines").bases))
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
            parts = [std[off : off + size] for _, off, size in dm_blocks(mod)]
            lattice = self.agree(m, parts, "blocks")
            assert len(lattice.bases) == 2 ** len(slopes)

    def test_slope_normal_form_with_monodromy(self):
        # blocks of slopes 1/2 and 3/2 (companions of x^2 - p and x^2 - p^3)
        # with N mapping the second into the first: M.B = p.A.M for
        # M = [[1, 0], [0, p]]; the slope-0 line is left alone
        base = from_slopes(SlopeMultiset([(F(0), 1), (F(1, 2), 2), (F(3, 2), 2)]), P)
        nil = [[F(0)] * 5 for _ in range(5)]
        nil[1][3], nil[2][4] = F(1), F(P)
        mod = PhiModule(P, base.phi, RatMatrix(nil), base.form)
        assert check_phi_n(mod)
        m = FilteredPhiModule(mod, random_flag(random.Random(42), 5, 0, 2))
        std = RatMatrix.identity(5).entries
        lattice = self.agree(m, [std[0:1], std[1:3], std[3:5]], "blocks")
        assert len(lattice.bases) == 6  # the slope-3/2 block needs the slope-1/2 one


def _reference(m):
    """Deciders from the definition: every element built and scored by
    `sub_invariants`, the first violator in canonical order as the witness,
    and the greedy HN filtration keyed by (-slope, -rank, basis).  Returns
    (verdict for a bound, HN steps, the bases tied with some step)."""
    from slopecalc.rational import span_leq

    lattice = enumerate_subobjects(m)
    scored = [(basis, sub_invariants(m, basis)) for basis in lattice.bases]
    decided = STATUS_TRUE if lattice.decides else STATUS_UNCERTIFIED

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
    return cases


def _eigenvalues(mod):
    roots, leftover = hn._rational_roots(charpoly(mod.phi))
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
        assert hn_filtration(m) == hn.HNFiltration(steps, lattice.decides)

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
            if lattice.masks is not None and is_acyclic(m).status == STATUS_FALSE:
                ranked = [sub_invariants(m, b) for b in lattice.bases]
                rank = min(inv[0] for inv in ranked if inv[3] > degree(m))
                several += sum(inv[0] == rank and inv[3] > degree(m) for inv in ranked) > 1
        assert several >= 3

    def test_hn_tie_breaks_by_smallest_basis(self):
        # phi = 1 on Q^3, Fil^1 the plane of e1 and e2: both lines in it have
        # slope 1, and a sample lattice without their sum ties them
        m = mk([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(1, [[1, 0, 0], [0, 1, 0]])], 3)
        e1, e2 = ((F(1), F(0), F(0)),), ((F(0), F(1), F(0)),)
        full = tuple(RatMatrix.identity(3).entries)
        lattice = hn.SubobjectLattice(((), e2, e1, full), False, "sample")
        first = hn_filtration(m, lattice=lattice).steps[0]
        assert (first.basis, first.slope, first.rank) == (e2, 1, 1)


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
        assert len(lattice[0]) == len(lattice.bases) == 64 and calls == []
        bases, certified = lattice
        assert certified and len(set(bases)) == 64 and len(calls) == 64

    def test_certified_true_acyclic_builds_no_basis(self, monkeypatch):
        m = next(m for m in (self.eigen6(s, False) for s in range(40))
                 if is_acyclic(m).status == STATUS_TRUE)
        lattice = enumerate_subobjects(m)
        calls = self.counted_rref(monkeypatch)
        assert is_acyclic(m, lattice=lattice).status == STATUS_TRUE
        assert is_weakly_admissible(m, lattice=lattice).status == STATUS_TRUE
        assert calls == []

    @pytest.mark.parametrize("seed", range(4))
    def test_hn_builds_only_steps_and_ties(self, seed, monkeypatch):
        m = self.eigen6(seed, True)
        _, steps, ties = _reference(m)
        lattice = enumerate_subobjects(m)
        calls = self.counted_rref(monkeypatch)
        assert hn_filtration(m, lattice=lattice).steps == steps
        assert len(calls) == len(ties) < len(lattice.keys)

    def test_witness_builds_only_its_rank(self, monkeypatch):
        for seed in range(40):
            m = self.eigen6(seed, True)
            verdict = is_acyclic(m)
            if verdict.status == STATUS_FALSE:
                break
        lattice = enumerate_subobjects(m)
        calls = self.counted_rref(monkeypatch)
        assert is_acyclic(m, lattice=lattice) == verdict
        rank = len(verdict.witness)
        assert calls and set(calls) == {rank} and len(calls) <= math.comb(6, rank)

    @pytest.mark.parametrize("kind", ["eigenlines", "blocks"])
    def test_doctored_part_raises(self, kind):
        if kind == "eigenlines":
            m = self.eigen6(2, True)
        else:
            mod = from_slopes(SlopeMultiset([(F(1, 2), 2), (F(0), 1), (F(2), 1)]), P)
            m = _flagged(random.Random(3), mod, [0, 1, 0, 2])
        lattice = enumerate_subobjects(m)
        assert lattice.strategy == kind
        parts = [list(part) for part in lattice.parts]
        # the first part plus a row of the second: still independent, not stable
        parts[0][0] = tuple(a + b for a, b in zip(parts[0][0], parts[1][0]))
        doctored = hn.SubobjectLattice(None, True, kind, lattice.masks, parts,
                                       lattice.part_tn, m.rank)
        for decide in (is_acyclic, hn_filtration):
            with pytest.raises(AssertionError, match="not Frobenius-stable"):
                decide(m, lattice=doctored)


class TestRecheckCost:
    """The definition-based re-check of returned steps and witnesses: one
    induced filtration per re-check, one elimination per distinct Fil^j."""

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
        lattice = enumerate_subobjects(m)
        rechecks = self.counted(monkeypatch, hn, "sub_invariants")
        induced = self.counted(monkeypatch, hn, "induced_on_subspace")
        steps = hn_filtration(m, lattice=lattice).steps
        assert len(rechecks) == len(induced) == len(steps)
        assert [basis for _, basis in rechecks] == [step.basis for step in steps]
        witness = is_acyclic(m, lattice=lattice).witness
        assert len(rechecks) == len(induced) == len(steps) + (witness is not None)

    def test_recheck_is_independent_of_the_scorer(self, monkeypatch):
        m = TestLazyLattice.eigen6(5, True)
        lattice = enumerate_subobjects(m)
        score = lattice_scorer(m, lattice)
        want = [score(None, key) for key in lattice.keys]

        def refuse(*args, **kwargs):
            raise AssertionError("the re-check used the lattice scorer")

        monkeypatch.setattr(hn, "lattice_scorer", refuse)
        monkeypatch.setattr(hn, "_part_ranks", refuse)
        assert [sub_invariants(m, lattice.basis(key)) for key in lattice.keys] == want

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
        assert check_phi_n(mod)
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
        sizes = {}
        for name, m in [(None, m) for m in cases] + list(extra.items()):
            roots, _ = hn._rational_roots(charpoly(m.module.phi))
            for seed in (0, 5):
                got = hn._sample_subobjects(m, seed, roots)
                assert got == fraction_sample(m, seed, roots)
                assert enumerate_subobjects(m, seed).strategy == "sample"
                sizes.setdefault(name, []).append(len(got))
        # more than ten nonzero closures before pairing, so the order of
        # the set that picks the pairs shows in the result
        assert max(max(v) for v in sizes.values()) > 20

    def test_extra_cases_reach_their_paths(self):
        extra = self.extra_cases()
        # each line of the canonical basis of the 2-eigenspace is a closure
        phi = extra["triple"].module.phi
        got = hn._sample_subobjects(extra["triple"], 0, [(F(2), 3), (F(1, 2), 1)])
        lines = (phi - RatMatrix.identity(4).scale(2)).nullspace()
        assert len(lines) == 3 and all(rref_rows([v], 4) in got for v in lines)
        # so is each proper N-power kernel
        m = extra["chain"].module
        got = hn._sample_subobjects(extra["chain"], 0, hn._rational_roots(charpoly(m.phi))[0])
        kernels = [m.nilpotent.nullspace(), (m.nilpotent @ m.nilpotent).nullspace()]
        assert [len(k) for k in kernels] == [2, 3] and all(k in got for k in kernels)
        # no roots, and the first random vector's closure is the full space
        phi = extra["big"].module.phi
        assert hn._rational_roots(charpoly(phi)) == ([], 4)
        rng = random.Random(0)
        krylov = [[F(rng.randint(-3, 3)) for _ in range(4)]]
        for _ in range(3):
            krylov.append(phi.apply(krylov[-1]))
        assert len(rref_rows(krylov, 4)) == 4
