"""Formal coherent sheaves on the slope-classified curve.

A sheaf is a direct sum of stable bundles O(d/h) (slope in lowest terms,
rank h, degree d) plus torsion modules of finite length at labeled points,
with "infty" distinguished.  Only the classification data is stored.

Cohomology dimensions follow the standard table: a non-negative slope d/h
contributes (d, h) to H^0 and nothing to H^1; a negative slope contributes
nothing to H^0 and a quotient-type H^1 recorded here with non-negative
components (|d|, h) and a marker - consumers on the Banach-Colmez side apply
the sign, reading it as Dimension (|d|, -h).  Torsion of length m adds
(m, 0) to H^0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .base import (
    Dimension,
    InputError,
    Record,
    json_int,
    json_key,
    json_list,
    rat,
    rat_str,
    torsion_entry,
    torsion_from_obj,
    torsion_normal_form,
)


class FFSheaf(Record):
    """Classification normal form: bundle summands plus torsion by point."""

    bundle: tuple = ()  # ((slope: Fraction, copies: int), ...) slope descending
    torsion: tuple = ()  # ((point, (lengths desc)), ...) sorted by point

    def __post_init__(self):
        for s, c in self.bundle:
            if not isinstance(s, Fraction):
                raise InputError("bundle slopes must be Fractions")
            json_int(c, "bundle copies", 1)
        for entry in self.torsion:
            torsion_entry(entry)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_bundle(cls, pairs: Iterable, torsion: Iterable = ()) -> "FFSheaf":
        """Canonicalize (slope, copies) pairs; slopes any rationals."""
        acc: dict[Fraction, int] = {}
        for s, c in pairs:
            s = rat(s)
            c = json_int(c, "bundle copies", 1)
            acc[s] = acc.get(s, 0) + c
        bundle = tuple(sorted(acc.items(), key=lambda t: t[0], reverse=True))
        return cls(bundle, torsion_normal_form(torsion))

    def is_zero(self) -> bool:
        return not self.bundle and not self.torsion

    def rank(self) -> int:
        return sum(c * s.denominator for s, c in self.bundle)

    def degree(self) -> Fraction:
        d = sum((Fraction(c * s.numerator) for s, c in self.bundle), Fraction(0))
        d += sum(sum(ls) for _, ls in self.torsion)
        return d

    def direct_sum(self, other: "FFSheaf") -> "FFSheaf":
        return FFSheaf.from_bundle(
            self.bundle + other.bundle, self.torsion + other.torsion
        )

    # -- serialization -------------------------------------------------------

    def to_obj(self):
        return {
            "bundle": [{"slope": rat_str(s), "copies": c} for s, c in self.bundle],
            "torsion": [
                {"point": pt, "lengths": list(ls)} for pt, ls in self.torsion
            ],
        }

    @classmethod
    def from_obj(cls, obj) -> "FFSheaf":
        bundle, torsion = json_list(obj, "bundle", "sheaf", []), json_list(obj, "torsion", "sheaf", [])
        pairs = [(json_key(b, "slope", "bundle entry"), json_key(b, "copies", "bundle entry", 1))
                 for b in bundle]  # `from_bundle` checks both
        return cls.from_bundle(pairs, [torsion_from_obj(t, "torsion entry") for t in torsion])


def canonicalize(raw_slopes: Iterable, torsion: Iterable = ()) -> FFSheaf:
    """Build a sheaf from (slope, rank) pairs.

    A pair (d/h in lowest terms, rank r) requires h | r and contributes r/h
    copies of the stable bundle O(d/h).
    """
    pairs = []
    for s, rank in raw_slopes:
        s = rat(s)
        rank = json_int(rank, "ranks", 1)
        h = s.denominator
        if rank % h != 0:
            raise InputError(
                f"rank {rank} is not divisible by the denominator of slope {rat_str(s)}"
            )
        pairs.append((s, rank // h))
    return FFSheaf.from_bundle(pairs, torsion)


def tensor(a: FFSheaf, b: FFSheaf) -> FFSheaf:
    """Tensor product of bundle parts, extended bilinearly.

    O(l1) (x) O(l2) = O(l1+l2)^n with n = h1*h2/h where l1+l2 = d/h in lowest
    terms; the multiplicity is forced by rank multiplicativity.  Torsion on
    either side is out of scope and rejected.
    """
    if a.torsion or b.torsion:
        raise InputError("tensor products with torsion are out of scope")
    pairs = []
    for s1, c1 in a.bundle:
        for s2, c2 in b.bundle:
            s = s1 + s2
            n = (s1.denominator * s2.denominator) // s.denominator
            pairs.append((s, c1 * c2 * n))
    return FFSheaf.from_bundle(pairs)


class QuotientDim(Record):
    """H^1 size recorded with non-negative components and a type marker."""

    dim: int
    ht: int
    quotient_type: bool

    def signed(self) -> Dimension:
        """The Dimension seen by Banach-Colmez bookkeeping: (dim, -ht)."""
        return Dimension(self.dim, -self.ht)


class CohomologyDims(Record):
    h0: Dimension
    h1: QuotientDim


def cohomology_dim(s: FFSheaf) -> CohomologyDims:
    """Dimensions of global sections and the first cohomology, summand by summand."""
    h0_dim = h0_ht = h1_dim = h1_ht = 0
    for slope, copies in s.bundle:
        d, h = slope.numerator, slope.denominator
        if slope >= 0:
            h0_dim += copies * d
            h0_ht += copies * h
        else:
            h1_dim += copies * (-d)
            h1_ht += copies * h
    for _, lengths in s.torsion:
        h0_dim += sum(lengths)
    h1 = QuotientDim(h1_dim, h1_ht, h1_dim > 0 or h1_ht > 0)
    return CohomologyDims(Dimension(h0_dim, h0_ht), h1)


class HomDims(Record):
    """Size of a Hom space between two sheaves in classification form.

    `dimension` is the Dimension of the Hom space as a finite-dimensional
    object; `qp_dim` is its vector-space dimension when that is finite (the
    dim component vanishes), e.g. h^2 for the endomorphisms of a stable
    bundle of rank h, which form a division algebra.
    """

    dimension: Dimension
    qp_dim: Optional[int]


def hom_dim(a: FFSheaf, b: FFSheaf) -> HomDims:
    """Dimension of Hom(a, b) from the classification tables.

    Bundle-to-bundle Homs reduce to global sections of twists; torsion
    supported at distinct points receives and admits no maps; torsion-to-
    bundle maps vanish; bundle-to-torsion maps have length rank * length.
    """
    dim = ht = 0
    for s1, c1 in a.bundle:
        for s2, c2 in b.bundle:
            s = s2 - s1
            n = (s1.denominator * s2.denominator) // s.denominator
            if s >= 0:
                dim += c1 * c2 * n * s.numerator
                ht += c1 * c2 * n * s.denominator
        for pt, lengths in b.torsion:
            dim += c1 * s1.denominator * sum(lengths)
    for pt1, lengths1 in a.torsion:
        for pt2, lengths2 in b.torsion:
            if pt1 != pt2:
                continue
            dim += sum(min(m1, m2) for m1 in lengths1 for m2 in lengths2)
    return HomDims(Dimension(dim, ht), ht if dim == 0 else None)
