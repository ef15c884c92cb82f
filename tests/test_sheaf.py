from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc.bc import Dimension
from slopecalc.base import InputError
from slopecalc.sheaf import (
    FFSheaf,
    canonicalize,
    cohomology_dim,
    hom_dim,
)


def bundle(*pairs):
    return FFSheaf.from_bundle([(F(a, b), c) for a, b, c in pairs])


slope_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestCanonicalize:
    @pytest.mark.parametrize("torsion", [
        [("x", (1, "a"))], [(1, (1,)), ("x", (1,))], [("x", 3)], [("x", ())],
        [("", (1,))], ["x"],
    ], ids=["string-length", "int-point", "int-lengths", "no-lengths", "empty-point",
            "not-a-pair"])
    def test_torsion_entries_are_checked_before_the_merge(self, torsion):
        # from_bundle sorts the merged entries, which must not compare a bad one first
        with pytest.raises(InputError):
            FFSheaf.from_bundle([], torsion)

    def test_half_slope(self):
        s = canonicalize([(F(1, 2), 4)])
        assert s.bundle == ((F(1, 2), 2),)

    def test_trivial(self):
        s = canonicalize([(F(0), 3)])
        assert s.bundle == ((F(0), 3),)

    def test_rejects_bad_rank(self):
        with pytest.raises(InputError):
            canonicalize([(F(2, 3), 2)])

    def test_idempotent(self):
        s = canonicalize([(F(1, 2), 2), (F(1, 2), 2), (F(-1), 1)])
        again = canonicalize([(sl, c * sl.denominator) for sl, c in s.bundle])
        assert again == s

    def test_descending_order(self):
        s = canonicalize([(F(-1), 1), (F(1, 2), 2), (F(2), 1)])
        assert [sl for sl, _ in s.bundle] == [F(2), F(1, 2), F(-1)]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FFSheaf.from_bundle([(F(1), 2.7)]),
            lambda: FFSheaf.from_bundle([(F(1), True)]),
            lambda: FFSheaf.from_bundle([(F(1), "2")]),
            lambda: FFSheaf.from_bundle([], [("infty", [2.0])]),
            lambda: canonicalize([(F(1, 2), 4.0)]),
        ],
        ids=["copies-float", "copies-bool", "copies-string", "torsion-float", "rank-float"],
    )
    def test_rejects_non_integer_counts(self, build):
        # int() would read 2.7 copies as 2
        with pytest.raises(InputError):
            build()


class TestCohomology:
    def test_positive_half(self):
        dims = cohomology_dim(bundle((1, 2, 1)))
        assert dims.h0 == Dimension(1, 2)
        assert (dims.h1.dim, dims.h1.ht, dims.h1.quotient_type) == (0, 0, False)

    def test_negative_line(self):
        dims = cohomology_dim(bundle((-1, 1, 1)))
        assert dims.h0 == Dimension(0, 0)
        assert (dims.h1.dim, dims.h1.ht) == (1, 1) and dims.h1.quotient_type
        assert dims.h1.signed() == Dimension(1, -1)

    def test_torsion(self):
        dims = cohomology_dim(FFSheaf.from_bundle([], [("infty", (3,))]))
        assert dims.h0 == Dimension(3, 0)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(slope_st, st.integers(1, 3)), max_size=4))
    def test_euler_characteristic(self, pairs):
        s = FFSheaf.from_bundle(pairs)
        dims = cohomology_dim(s)
        # dim-part difference is the degree, ht-part difference the rank
        assert dims.h0.dim - dims.h1.dim == s.degree()
        assert dims.h0.ht - (-dims.h1.ht) == s.rank()

    def test_additive_over_sums(self):
        a, b = bundle((1, 2, 1)), bundle((-1, 3, 2))
        left = cohomology_dim(a.direct_sum(b))
        ra, rb = cohomology_dim(a), cohomology_dim(b)
        assert left.h0 == ra.h0 + rb.h0
        assert left.h1.dim == ra.h1.dim + rb.h1.dim
        assert left.h1.ht == ra.h1.ht + rb.h1.ht


class TestHom:
    def test_endomorphisms_of_stable_half(self):
        res = hom_dim(bundle((1, 2, 1)), bundle((1, 2, 1)))
        assert res.qp_dim == 4  # division algebra of a rank-2 stable bundle

    def test_no_maps_downward(self):
        res = hom_dim(bundle((1, 1, 1)), bundle((0, 1, 1)))
        assert res.dimension == Dimension(0, 0) and res.qp_dim == 0

    def test_torsion_at_distinct_points(self):
        a = FFSheaf.from_bundle([], [("x", (2,))])
        b = FFSheaf.from_bundle([], [("infty", (3,))])
        assert hom_dim(a, b).dimension == Dimension(0, 0)

    def test_torsion_endomorphisms(self):
        a = FFSheaf.from_bundle([], [("infty", (3, 1))])
        res = hom_dim(a, a)
        # Hom(B_a, B_b) has length min(a, b)
        assert res.dimension == Dimension(3 + 1 + 1 + 1, 0)

    def test_torsion_receives_from_bundles(self):
        res = hom_dim(bundle((1, 2, 1)), FFSheaf.from_bundle([], [("infty", (3,))]))
        assert res.dimension == Dimension(6, 0)

    def test_torsion_to_bundle_vanishes(self):
        res = hom_dim(FFSheaf.from_bundle([], [("infty", (3,))]), bundle((1, 1, 1)))
        assert res.dimension == Dimension(0, 0)


class TestJson:
    def test_roundtrip(self):
        s = FFSheaf.from_bundle([(F(1, 2), 2)], [("infty", (2, 1))])
        assert FFSheaf.from_obj(s.to_obj()) == s

    def test_bad(self):
        with pytest.raises(InputError):
            FFSheaf.from_obj({"bundle": [{"copies": 2}]})
