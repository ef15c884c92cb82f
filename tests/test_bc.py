import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc.bc import (
    BCObject,
    Dimension,
    HeightRank,
    QBCObject,
    canonical_filtration,
    check_exact,
    curvature_nonpositive,
    dimension,
    ext_tables,
    height_functor_rank,
    hn_slopes,
    label_b,
    label_c,
    label_qp,
)
from slopecalc.base import InputError


def ueff(d, h, c=1):
    return BCObject.build(ueff=[(d, h, c)])


def uquot(d, h, c=1):
    return BCObject.build(uquot=[(d, h, c)])


def tors(m, point="infty"):
    return BCObject.build(torsion=[(point, (m,))])


def qp(n):
    return BCObject.build(qp=n)


def split_arrows(w1, w3):
    return [
        {"ker": Dimension(0, 0), "im": dimension(w1)},
        {"ker": dimension(w1), "im": dimension(w3)},
    ]


class TestDimension:
    def test_torsion(self):
        assert dimension(tors(4)) == Dimension(4, 0)

    def test_effective(self):
        assert dimension(ueff(2, 3)) == Dimension(2, 3)

    def test_mixed(self):
        w = BCObject.build(uquot=[(1, 1, 1)], qp=1)
        assert dimension(w) == Dimension(1, 0)

    def test_qbc_height_ignores_core(self):
        w = QBCObject.build([5, 2], qp(3))
        assert dimension(w) == Dimension(7, 3)

    def test_lowest_terms_enforced(self):
        with pytest.raises(InputError):
            BCObject.build(ueff=[(2, 4, 1)])

    @pytest.mark.parametrize("pieces", [{"ueff": [(2, 0, 1)]}, {"uquot": [(1, 0, 1)]}])
    def test_zero_h_rejected_before_sorting(self, pieces):
        # the merge sorts by the slope d/h, which must not be formed first
        with pytest.raises(InputError):
            BCObject.build(**pieces)

    @pytest.mark.parametrize("copies", [2.5, True, "2"])
    @pytest.mark.parametrize("kind", ["ueff", "uquot"])
    def test_copies_must_be_integers(self, kind, copies):
        # build's merge would sum True into 1, so it checks before summing
        with pytest.raises(InputError, match="piece copies must be integers"):
            BCObject.build(**{kind: [(1, 2, copies)]})
        with pytest.raises(InputError, match="piece copies must be integers"):
            BCObject(**{kind: ((1, 2, copies),)})

    @pytest.mark.parametrize("torsion", [
        [("x", (1, "a"))], [(1, (1,)), ("x", (1,))], [("x", 3)], [("x", ())],
        [("x", (0,))], [("", (1,))], ["x"],
    ], ids=["string-length", "int-point", "int-lengths", "no-lengths", "zero-length",
            "empty-point", "not-a-pair"])
    def test_torsion_entries_are_checked_before_the_merge(self, torsion):
        # build sorts the merged entries, which must not compare a bad one first
        with pytest.raises(InputError):
            BCObject.build(torsion=torsion)

    def test_negative_qp_summand_rejected(self):
        obj = {"summands": [{"type": "Qp", "n": -1}, {"type": "Qp", "n": 2}]}
        with pytest.raises(InputError, match="qp multiplicities must be >= 0, got -1"):
            BCObject.from_obj(obj)


class TestSlopes:
    def test_effective_slope(self):
        assert hn_slopes(ueff(1, 2)) == [(F(-2), 1)]

    def test_etale_is_minus_infinity(self):
        slopes = hn_slopes(qp(3))
        assert slopes == [(-math.inf, 3)]

    def test_torsion_slope_zero(self):
        assert hn_slopes(tors(5)) == [(F(0), 1)]

    def test_sorted_ascending(self):
        w = BCObject.build(ueff=[(1, 1, 1)], uquot=[(1, 2, 1)], qp=1)
        slopes = [s for s, _ in hn_slopes(w)]
        assert slopes == sorted(slopes)


class TestCanonicalFiltration:
    def test_three_parts(self):
        w = BCObject.build(ueff=[(1, 1, 1)], uquot=[(1, 1, 1)], torsion=[("infty", (2,))])
        gt0, eq0, lt0 = canonical_filtration(w)
        assert gt0 == uquot(1, 1)
        assert eq0 == tors(2)
        assert lt0 == ueff(1, 1)

    def test_pure_torsion_at_infty(self):
        w = tors(3)
        gt0, eq0, lt0 = canonical_filtration(w)
        assert gt0.is_zero() and lt0.is_zero() and eq0 == w

    def test_torsion_away_goes_positive(self):
        w = tors(1, point="x")
        gt0, eq0, lt0 = canonical_filtration(w)
        assert gt0 == w and eq0.is_zero() and lt0.is_zero()

    def test_slope_signs(self):
        # away-from-infty torsion sits in the positive part by curvature even
        # though its slope is zero; all other pieces follow their slope sign
        w = BCObject.build(
            ueff=[(1, 2, 1)], uquot=[(3, 1, 2)], torsion=[("infty", (1,)), ("y", (2,))], qp=2
        )
        gt0, eq0, lt0 = canonical_filtration(w)
        assert all(s > 0 for s, _ in hn_slopes(BCObject.build(uquot=gt0.uquot)))
        assert all(s == 0 for s, _ in hn_slopes(eq0))
        assert all(s < 0 for s, _ in hn_slopes(lt0))
        assert all(pt != "infty" for pt, _ in gt0.torsion)

    def test_pieces_partition(self):
        w = BCObject.build(ueff=[(1, 1, 2)], uquot=[(2, 1, 1)], torsion=[("infty", (3,))], qp=1)
        gt0, eq0, lt0 = canonical_filtration(w)
        assert gt0.direct_sum(eq0).direct_sum(lt0) == w


def random_formal(rng):
    """A split object with pieces of all four types, torsion at infty and
    away, or a quasi object over one."""
    w = BCObject.build(
        ueff=[(d, h, rng.randint(1, 2)) for d, h in [(1, 1), (1, 2), (2, 1)] if rng.random() < 0.4],
        uquot=[(d, h, 1) for d, h in [(1, 1), (2, 3)] if rng.random() < 0.25],
        torsion=[(pt, (rng.randint(1, 3),)) for pt in ("infty", "x", "y") if rng.random() < 0.4],
        qp=rng.randint(0, 2),
    )
    return QBCObject.build([rng.randint(1, 3)], w) if rng.random() < 0.3 else w


class TestCurvatureSign:
    """`curvature_nonpositive` reads the normal form: no quotient piece and
    no torsion away from infty, as the positive part of the canonical
    filtration, of the quotient for a quasi object, is zero."""

    def test_equals_the_positive_part_of_the_canonical_filtration(self):
        rng, seen = random.Random(35), set()
        for _ in range(400):
            w = random_formal(rng)
            split = w.quotient if isinstance(w, QBCObject) else w
            want = canonical_filtration(split)[0].is_zero()
            assert curvature_nonpositive(w) is want
            assert height_functor_rank(w) == HeightRank(dimension(w).ht, want)
            seen.add((type(w), bool(split.uquot), any(pt != "infty" for pt, _ in split.torsion), want))
        assert len(seen) == 8  # quotient pieces or not, away torsion or not, both types

    @pytest.mark.parametrize("w", [{}, None, {"summands": []}, QBCObject((1,), None)],
                             ids=["dict", "None", "json-object", "quasi-over-None"])
    def test_not_a_formal_object_is_an_input_error(self, w):
        with pytest.raises(InputError, match="takes a formal BC object"):
            curvature_nonpositive(w)


class TestCheckExact:
    def test_structure_sequence(self):
        # 0 -> Qp -> effective line -> torsion at infty -> 0
        seq = [qp(1), ueff(1, 1), tors(1)]
        arrows = [
            {"ker": Dimension(0, 0), "im": Dimension(0, 1)},
            {"ker": Dimension(0, 1), "im": Dimension(1, 0)},
        ]
        assert check_exact(seq, arrows)

    def test_identity_sequence(self):
        w = ueff(2, 3)
        seq = [w, w, BCObject.zero()]
        arrows = [
            {"ker": Dimension(0, 0), "im": dimension(w)},
            {"ker": dimension(w), "im": Dimension(0, 0)},
        ]
        assert check_exact(seq, arrows)

    def test_dimension_mismatch(self):
        seq = [ueff(1, 1), tors(1)]
        arrows = [{"ker": Dimension(0, 0), "im": Dimension(1, 1)}]
        assert not check_exact(seq, arrows)

    def test_split_sums(self):
        w1, w3 = ueff(1, 2), tors(2)
        assert check_exact([w1, w1.direct_sum(w3), w3], split_arrows(w1, w3))

    def test_effective_into_torsion_needs_more_height(self):
        # a declared injection of an effective piece into torsion at infty
        # requires ht > dim per piece
        seq = [ueff(1, 2), tors(2)]
        arrows = [{"ker": Dimension(0, 0), "im": Dimension(1, 2)}]
        assert check_exact(seq, arrows[:1] + []) in (True, False)  # shape sanity
        ok = check_exact([ueff(1, 2), BCObject.build(torsion=[("infty", (1, 1))])],
                         [{"ker": Dimension(0, 0), "im": Dimension(1, 2)}])
        assert not ok  # image cannot fill torsion of Dimension (2, 0)
        # h = d = 1 violates the strict inequality even when additivity holds
        bad = check_exact(
            [ueff(1, 1), BCObject.build(torsion=[("infty", (2,))])],
            [{"ker": Dimension(0, 0), "im": Dimension(1, 1)}],
        )
        assert not bad

    def test_sign_rule_on_derived_cokernel(self):
        # cokernel (0, -1) of plain split objects violates the sign rule
        seq = [ueff(2, 1), tors(2)]
        arrows = [{"ker": Dimension(0, 0), "im": Dimension(2, 1)}]
        assert not check_exact(seq, arrows)

    def test_kernel_must_be_the_previous_image(self):
        # 0 -> Qp -> Qp -> Qp -> 0 with both maps declared injective and onto:
        # additivity holds at every arrow and the last image fills the end,
        # so only exactness at the middle node (ker = the image before) fails
        onto = {"ker": Dimension(0, 0), "im": Dimension(0, 1)}
        assert not check_exact([qp(1), qp(1), qp(1)], [onto, onto])
        killed = {"ker": Dimension(0, 1), "im": Dimension(0, 0)}
        assert check_exact([qp(1), qp(1), BCObject.zero()], [onto, killed])

    def test_injection_into_torsion_away_from_infty_needs_no_height(self):
        # 0 -> Ueff(1, 1) -> T -> Uquot(1, 1) -> 0: the effective line injects
        # with h = d, which torsion at infty forbids and torsion elsewhere allows
        arrows = [{"ker": Dimension(0, 0), "im": Dimension(1, 1)},
                  {"ker": Dimension(1, 1), "im": Dimension(1, -1)}]
        assert check_exact([ueff(1, 1), tors(2, "x"), uquot(1, 1)], arrows)
        assert not check_exact([ueff(1, 1), tors(2), uquot(1, 1)], arrows)

    def test_malformed_raises(self):
        with pytest.raises(InputError):
            check_exact([qp(1)], [{"ker": Dimension(0, 0)}])
        with pytest.raises(InputError):
            check_exact([qp(1), qp(1)], [])


class TestHeightFunctor:
    def test_effective(self):
        assert height_functor_rank(ueff(1, 1)) == height_functor_rank(ueff(1, 1))
        assert height_functor_rank(ueff(1, 1)).value == 1
        assert height_functor_rank(ueff(1, 1)).certified

    def test_torsion(self):
        r = height_functor_rank(tors(7))
        assert r.value == 0 and r.certified

    def test_etale(self):
        assert height_functor_rank(qp(5)).value == 5

    def test_positive_curvature_uncertified(self):
        r = height_functor_rank(uquot(1, 1))
        assert not r.certified and r.value == -1

    @settings(max_examples=40)
    @given(st.integers(0, 10**6))
    def test_additive_on_split_sequences(self, seed):
        rng = random.Random(seed)
        def rand_obj():
            return BCObject.build(
                ueff=[(d, h, 1) for d, h in [(1, 1), (1, 2), (2, 1)] if rng.random() < 0.4],
                torsion=[("infty", (rng.randint(1, 3),))] if rng.random() < 0.5 else [],
                qp=rng.randint(0, 2),
            )
        w1, w3 = rand_obj(), rand_obj()
        w2 = w1.direct_sum(w3)
        assert check_exact([w1, w2, w3], split_arrows(w1, w3))
        assert (
            height_functor_rank(w2).value
            == height_functor_rank(w1).value + height_functor_rank(w3).value
        )


class TestExtTables:
    def test_tate_module_against_twist(self):
        t = ext_tables(label_b(3), label_c(5))
        assert t.triple() == (0, 0, 0)

    def test_boundary_twists(self):
        assert ext_tables(label_b(3), label_c(0)).triple() == (1, 1, 0)
        assert ext_tables(label_b(3), label_c(3)).triple() == (0, 1, 1)

    def test_c_against_twisted_c(self):
        assert ext_tables(label_c(0), label_c(1)).triple() == (0, 1, 1)
        assert ext_tables(label_c(0), label_c(0)).triple() == (1, 1, 0)
        assert ext_tables(label_c(0), label_c(4)).triple() == (0, 0, 0)

    def test_euler_for_qp(self):
        t = ext_tables(label_qp(1), label_qp(1), 1)
        assert t.euler_qp == -1
        assert t.triple() == (1, 2, 0)

    def test_euler_scales_with_degree(self):
        t = ext_tables(label_qp(2), label_qp(3), 3)
        assert t.euler_qp == -3 * 2 * 3

    def test_lengths_upward_vanish(self):
        assert ext_tables(label_b(2), label_b(5)).triple() == (0, 0, 0)

    def test_untabulated_pairs_report_euler_only(self):
        t = ext_tables(label_c(0), label_b(2))
        assert t.triple() == (None, None, None)
        assert t.euler_qp == 0

    @settings(max_examples=40)
    @given(st.integers(-4, 4), st.integers(-4, 4))
    def test_duality_reverses_triples(self, a, b):
        left = ext_tables(label_c(a), label_c(b)).triple()
        right = ext_tables(label_c(b), label_c(a + 1)).triple()
        assert left == tuple(reversed(right))

    def test_bad_labels(self):
        with pytest.raises(InputError):
            ext_tables({"kind": "mystery"}, label_c(0))
        with pytest.raises(InputError):
            ext_tables(label_b(0), label_c(0))


class TestJson:
    def test_bc_roundtrip(self):
        w = BCObject.build(
            ueff=[(1, 2, 2)], uquot=[(3, 1, 1)], torsion=[("infty", (2, 1)), ("x", (1,))], qp=2
        )
        assert BCObject.from_obj(w.to_obj()) == w

    def test_qbc_roundtrip(self):
        w = QBCObject.build([3], ueff(1, 1))
        assert QBCObject.from_obj(w.to_obj()) == w
