import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc.isocrystal import (
    PhiModule,
    SlopeMultiset,
    det,
    dual,
    from_slopes,
    is_dm_normal,
    newton_slopes,
    t_n,
    tensor,
)
from slopecalc.rational import InputError, RatMatrix

from _generators import diagonal_instance, random_unimodular

P = 2


def mk(phi, nil=None, p=P, form="matrix"):
    return PhiModule.from_matrices(p, phi, nil, form)


BAD_N = r"^N must satisfy N\.phi = p\.phi\.N$"


class TestCheckPhiN:
    """Construction checks phi and N, so no module that breaks them exists."""

    def test_zero_monodromy_always_valid(self):
        m = mk([[1, 0], [0, P]])
        assert m.nilpotent.is_zero() and m.tn == 1

    def test_elementary_monodromy(self):
        e12 = [[0, 1], [0, 0]]
        # N e_2 = e_1 sends the p-eigenline to the 1-eigenline: valid
        m = mk([[1, 0], [0, P]], e12)
        assert m.nilpotent @ m.phi == (m.phi @ m.nilpotent).scale(P)
        # swapped diagonal breaks the twisted commutation exactly
        with pytest.raises(InputError, match=BAD_N):
            mk([[P, 0], [0, 1]], e12)

    def test_singular_phi_rejected(self):
        with pytest.raises(InputError):
            mk([[0, 0], [0, 1]])

    def test_non_nilpotent_rejected(self):
        with pytest.raises(InputError, match=BAD_N):
            mk([[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            PhiModule(P, RatMatrix([[1]]), RatMatrix([[0, 0], [0, 0]]))


def _int_power_vanishes(nil: RatMatrix) -> bool:
    """N^rank = 0, by integer products of N cleared of its denominators."""
    den = math.lcm(*(x.denominator for row in nil.entries for x in row))
    a = [[int(x * den) for x in row] for row in nil.entries]
    power = a
    for _ in range(nil.rows - 1):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
    return not any(any(row) for row in power)


class TestMonodromyIsNilpotent:
    """N.phi = p.phi.N with phi invertible makes N nilpotent (N is similar
    to pN), so construction checks the rule alone."""

    def test_generated_chains(self):
        from test_hn import _eigen_module

        rng, chains = random.Random(61), 0
        for _ in range(150):
            n = rng.randint(2, 6)
            mods = [diagonal_instance(rng, P, n, -3, 4), _eigen_module(rng, n, True)[0]]
            for m in mods:
                if not m.nilpotent.is_zero():
                    chains += 1
                    assert _int_power_vanishes(m.nilpotent)
        assert chains > 100

    def test_idempotent_near_miss(self):
        # E11 is not nilpotent; with phi = diag(1, 4) it breaks the rule
        assert not _int_power_vanishes(RatMatrix([[1, 0], [0, 0]]))
        with pytest.raises(InputError, match=BAD_N):
            mk([[1, 0], [0, 4]], [[1, 0], [0, 0]])


class TestNewtonSlopes:
    def test_diag(self):
        assert list(newton_slopes(mk([[1, 0], [0, P]]))) == [(F(0), 1), (F(1), 1)]

    def test_companion(self):
        assert list(newton_slopes(mk([[0, P], [1, 0]]))) == [(F(1, 2), 2)]

    def test_scalar(self):
        m = mk([[P, 0, 0], [0, P, 0], [0, 0, P]])
        assert list(newton_slopes(m)) == [(F(1), 3)]

    @settings(max_examples=30)
    @given(st.integers(0, 10**6))
    def test_conjugation_invariance(self, seed):
        rng = random.Random(seed)
        m = diagonal_instance(rng, P, rng.randint(1, 3), -2, 3)
        s = random_unimodular(rng, m.rank)
        conj = PhiModule(P, s @ m.phi @ s.inverse(), s @ m.nilpotent @ s.inverse())
        assert newton_slopes(conj) == newton_slopes(m)


class TestTN:
    def test_examples(self):
        assert t_n(mk([[1, 0], [0, P]])) == 1
        assert t_n(mk([[0, P], [1, 0]])) == 1
        assert t_n(mk([[1, 0], [0, 1]])) == 0

    def test_equals_slope_sum(self):
        m = mk([[0, 0, 6], [1, 0, 0], [0, 1, 0]])
        assert t_n(m) == sum(s * mult for s, mult in newton_slopes(m))

    def test_kept_by_construction_outside_the_fields(self):
        m = mk([[0, P], [1, 0]], [[0, 0], [0, 0]])
        assert type(m.tn) is int and type(t_n(m)) is F and t_n(m) == m.tn == 1
        assert t_n(PhiModule.zero(P)) == PhiModule.zero(P).tn == 0
        assert [f.name for f in dataclasses.fields(m)] == ["p", "phi", "nilpotent", "form"]
        assert "tn" not in repr(m) and "tn" not in m.to_obj()
        twin = PhiModule.from_obj(m.to_obj())
        assert twin == m and hash(twin) == hash(m) and twin.tn == m.tn


class TestFromSlopes:
    def test_half_slope_block(self):
        m = from_slopes(SlopeMultiset([(F(1, 2), 2)]), P)
        assert m.phi == RatMatrix([[0, P], [1, 0]])
        assert m.nilpotent.is_zero()
        assert m.form == "dm-normal"

    def test_rank_one(self):
        assert from_slopes(SlopeMultiset([(F(0), 1)]), P).phi == RatMatrix([[1]])

    def test_two_blocks(self):
        m = from_slopes(SlopeMultiset([(F(0), 1), (F(1), 1)]), P)
        assert m.phi == RatMatrix([[1, 0], [0, P]])

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(InputError):
            from_slopes(SlopeMultiset([(F(2, 3), 2)]), P)
        with pytest.raises(InputError):
            from_slopes(SlopeMultiset([(F(1, 4), 2)]), P)

    @pytest.mark.parametrize("mult", [2.9, True, "1"])
    def test_multiplicities_must_be_integers(self, mult):
        # int() would read 2.9 as 2, True as 1 and "1" as 1
        with pytest.raises(InputError, match="slope multiplicities must be integers"):
            SlopeMultiset([(F(1, 2), mult)])
        with pytest.raises(InputError, match="slope multiplicities must be integers"):
            from_slopes([(F(1, 2), mult)], P)

    def test_roundtrip_small(self):
        for slopes in (
            [(F(1, 2), 2)],
            [(F(0), 1), (F(1), 1)],
            [(F(1, 3), 3), (F(2), 2)],
            [(F(-1, 2), 2), (F(3, 4), 4)],
        ):
            s = SlopeMultiset(slopes)
            assert newton_slopes(from_slopes(s, P)) == s

    def test_dm_normal_recognition(self):
        def normal(m):
            return is_dm_normal(m, newton_slopes(m))

        assert normal(from_slopes(SlopeMultiset([(F(1, 2), 2)]), P))
        assert normal(mk([[0, P], [1, 0]]))  # same matrix, plain form
        assert not normal(mk([[P, 0], [0, 1]]))  # blocks out of order


def old_from_slopes(slopes, p):
    """The slope normal form as it was built before: one coerced `RatMatrix`
    per companion block, copied entry by entry into a coerced `RatMatrix`."""
    blocks = []
    for s, mult in slopes:
        num, den = s.numerator, s.denominator
        rows = [[F(0)] * den for _ in range(den)]
        for i in range(1, den):
            rows[i][i - 1] = F(1)
        rows[0][den - 1] = F(p) ** num
        blocks.extend([RatMatrix(rows)] * (mult // den))
    total = sum(b.rows for b in blocks)
    rows = [[F(0)] * total for _ in range(total)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.rows):
                rows[at + i][at + j] = b.entries[i][j]
        at += b.rows
    return PhiModule(p, RatMatrix(rows), RatMatrix([[0] * total for _ in range(total)]),
                     "dm-normal")


@pytest.fixture
def bench_gen(monkeypatch):
    """bench/gen.py, imported without writing bytecode under bench/."""
    import importlib
    import pathlib
    import sys

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    before = set(sys.modules)
    try:
        yield importlib.import_module("gen")
    finally:
        for name in set(sys.modules) - before:
            if not name.startswith("slopecalc"):
                del sys.modules[name]


def generator_slope_sets(gen):
    """Every multiplicity-free slope set the benchmark generators can draw:
    hn-lattice's `snf_slopes` at each rank of SNF_BLOCKS, and battery-mix's
    `_synthetic_pair` at each rank of PAIR_SNF_BLOCKS with slopes in [0, r],
    r <= 3 (r - 1 for a lower degree)."""
    import itertools

    def sets(sizes, pool):
        choices = [itertools.combinations([s for s in pool if s.denominator == h], sizes.count(h))
                   for h in sorted(set(sizes))]
        for parts in itertools.product(*choices):
            yield tuple(sorted(s for part in parts for s in part))

    out = set()
    for sizes in gen.SNF_BLOCKS.values():
        out.update(sets(sizes, gen.SNF_SLOPES))
    for sizes in gen.PAIR_SNF_BLOCKS.values():
        for bound in range(4):
            out.update(sets(sizes, [s for s in gen.SNF_SLOPES if 0 <= s <= bound]))
    return sorted(out)


class TestFromSlopesAgainstTheOldConstruction:
    def test_every_generator_slope_set(self, bench_gen):
        slope_sets = generator_slope_sets(bench_gen)
        assert len(slope_sets) > 3000
        for chosen in slope_sets:
            s = SlopeMultiset([(x, x.denominator) for x in chosen])
            new, old = from_slopes(s, P), old_from_slopes(s, P)
            assert new.to_obj() == old.to_obj()
            assert new == old

    def test_repeated_slopes_and_other_primes(self):
        for slopes in ([(F(1, 2), 4), (F(0), 2)], [(F(-2, 3), 6)], [(F(5), 3), (F(1, 5), 5)]):
            for p in (2, 3, 7):
                s = SlopeMultiset(slopes)
                assert from_slopes(s, p).to_obj() == old_from_slopes(s, p).to_obj()


class TestTensorDualDet:
    def test_tensor_slopes(self):
        a = from_slopes(SlopeMultiset([(F(1, 2), 2)]), P)
        assert list(newton_slopes(tensor(a, a))) == [(F(1), 4)]

    def test_dual_slope(self):
        a = mk([[P]])
        assert list(newton_slopes(dual(a))) == [(F(-1), 1)]

    def test_det(self):
        d = det(mk([[1, 0], [0, P]]))
        assert d.rank == 1 and list(newton_slopes(d)) == [(F(1), 1)]

    def test_prime_mismatch(self):
        with pytest.raises(InputError):
            tensor(mk([[1]]), mk([[1]], p=3))

    @settings(max_examples=25)
    @given(st.integers(0, 10**6))
    def test_tensor_tn_additivity(self, seed):
        rng = random.Random(seed)
        a = diagonal_instance(rng, P, rng.randint(1, 2), -1, 2)
        b = diagonal_instance(rng, P, rng.randint(1, 2), -1, 2)
        assert t_n(tensor(a, b)) == b.rank * t_n(a) + a.rank * t_n(b)

    @settings(max_examples=25)
    @given(st.integers(0, 10**6))
    def test_dual_negates_tn(self, seed):
        rng = random.Random(seed)
        a = diagonal_instance(rng, P, rng.randint(1, 3), -2, 3)
        assert t_n(dual(a)) == -t_n(a)

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_tensor_respects_commutation(self, seed):
        rng = random.Random(seed)
        a = diagonal_instance(rng, P, rng.randint(1, 2), -1, 2)
        b = diagonal_instance(rng, P, rng.randint(1, 2), -1, 2)
        # construction checks the rule; checked here again from the matrices
        for m in (tensor(a, b), dual(a)):
            assert m.nilpotent @ m.phi == (m.phi @ m.nilpotent).scale(P)


class TestJson:
    def test_roundtrip(self):
        m = mk([[1, 0], [0, P]], [[0, 1], [0, 0]])
        assert PhiModule.from_obj(m.to_obj()) == m

    def test_bad_json(self):
        with pytest.raises(InputError):
            PhiModule.from_obj({"p": 2})
        with pytest.raises(InputError):
            PhiModule.from_obj({"p": 4, "phi": [["1"]]})
