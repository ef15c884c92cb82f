"""Frobenius modules over a p-adic base with residue field F_p.

A module is an invertible rational matrix phi together with an operator N
obeying the twisted commutation rule N.phi = p.phi.N, which makes N
nilpotent; construction checks both, except where `tensor`, `dual`, `det`
or `from_slopes` builds a module that its valid arguments make valid, so no
module that breaks them exists.
Slopes are always read off the characteristic polynomial of phi through the
Newton polygon, never from eigenvectors, so everything stays exact and
rational.

The normal form produced by `from_slopes` realizes the slope a/h (lowest
terms) as the companion block of x^h - p^a: basis e_1, ..., e_h with
phi(e_1) = e_2, ..., phi(e_h) = p^a e_1, and N = 0.  Blocks are ordered by
ascending slope.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from .base import (
    InputError,
    Record,
    _vp_int,
    check_prime,
    json_int,
    json_key,
    newton_polygon,
    rat,
    rat_str,
)
from .rational import _ONE, _ZERO, RatMatrix, charpoly, int_det, int_matmul, int_matrix


class SlopeMultiset(Record):
    """Sorted multiset of rational slopes with positive multiplicities."""

    entries: tuple  # ((slope: Fraction, multiplicity: int), ...), slope ascending

    def __init__(self, entries):
        merged: dict[Fraction, int] = {}
        for s, m in entries:
            s = rat(s)
            m = json_int(m, "slope multiplicities", 1)
            merged[s] = merged.get(s, 0) + m
        object.__setattr__(
            self, "entries", tuple(sorted(merged.items(), key=lambda t: t[0]))
        )

    def __iter__(self):
        return iter(self.entries)

    def to_obj(self):
        return [[rat_str(s), m] for s, m in self.entries]


FORM_MATRIX = "matrix"
FORM_DM_NORMAL = "dm-normal"


class PhiModule(Record):
    """A (phi, N)-module: prime p, invertible phi, nilpotent N.

    Construction is the one validity check: shapes, phi invertible, then
    N.phi = p.phi.N, which makes N nilpotent; each failure is an
    `InputError`; both read one conversion of phi to integer rows.  It also
    keeps `tn` = t_N(M) = v_p(det phi), an int off that determinant;
    `coeffs` = `charpoly(phi)` and `slopes`, the Newton slopes read off
    `coeffs`, each computed on first use, so each module object computes
    them at most once; and `lattice`, which `hn` sets.  None is a field, so
    equality, hashing, `repr`, `to_obj` and copies do not see them.

    `tensor`, `dual`, `det` and `from_slopes` build their result by the
    trusted path, `_trusted`, which runs none of these checks and is given
    `tn`: each takes valid input, which implies the result's validity (see
    each), so no invalid module exists either way.
    """

    p: int
    phi: RatMatrix
    nilpotent: RatMatrix
    form: str = FORM_MATRIX
    lattice = None  # not a field: the lattice `hn` enumerated, when it reads only phi and N

    def __post_init__(self):
        check_prime(self.p)
        if not isinstance(self.phi, RatMatrix) or not isinstance(self.nilpotent, RatMatrix):
            raise InputError("phi and N must be RatMatrix instances")
        if not self.phi.is_square() or not self.nilpotent.is_square():
            raise InputError("phi and N must be square")
        if self.phi.rows != self.nilpotent.rows:
            raise InputError("phi and N must have equal size")
        if self.form not in (FORM_MATRIX, FORM_DM_NORMAL):
            raise InputError(f"unknown form {self.form!r}")
        phi, den = int_matrix(self.phi)  # one conversion for the determinant and the rule
        det = int_det([row[:] for row in phi]) if phi else 1  # det(D*phi) = D^n det(phi)
        if det == 0:
            raise InputError("phi must be invertible")
        fault = _monodromy_fault(self, phi)
        if fault:
            raise InputError(fault)
        object.__setattr__(self, "tn", _vp_int(abs(det), self.p) - len(phi) * _vp_int(den, self.p))

    @classmethod
    def _trusted(cls, p: int, phi: RatMatrix, nilpotent: RatMatrix, tn: int,
                 form: str = FORM_MATRIX) -> "PhiModule":
        """A module that is valid by construction, with t_N(M) = tn; nothing is checked."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, (p, phi, nilpotent, form)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "tn", tn)
        return self

    @property
    def rank(self) -> int:
        return self.phi.rows

    @cached_property
    def coeffs(self) -> tuple:
        """Characteristic polynomial of phi, ascending Fractions; (1,) at rank 0."""
        return tuple(charpoly(self.phi))

    @cached_property
    def slopes(self) -> SlopeMultiset:
        """Newton slopes of phi, off the kept `coeffs`; `newton_slopes` reads them."""
        return SlopeMultiset(newton_polygon(self.coeffs, self.p) if self.rank else ())

    @classmethod
    def from_matrices(cls, p, phi, nilpotent=None, form=FORM_MATRIX) -> "PhiModule":
        phi = phi if isinstance(phi, RatMatrix) else RatMatrix(phi)
        if nilpotent is None:
            nilpotent = RatMatrix.zeros(phi.rows, phi.rows)
        elif not isinstance(nilpotent, RatMatrix):
            nilpotent = RatMatrix(nilpotent)
        return cls(p, phi, nilpotent, form)

    @classmethod
    def zero(cls, p) -> "PhiModule":
        return cls(p, RatMatrix([]), RatMatrix([]), FORM_DM_NORMAL)

    def to_obj(self):
        return {
            "p": self.p,
            "phi": self.phi.to_strings(),
            "N": self.nilpotent.to_strings(),
            "form": self.form,
        }

    @classmethod
    def from_obj(cls, obj) -> "PhiModule":
        p, phi = json_key(obj, "p", "PhiModule"), json_key(obj, "phi", "PhiModule")
        n = obj.get("N")
        form = obj.get("form", FORM_MATRIX)
        return cls.from_matrices(p, RatMatrix(phi), RatMatrix(n) if n is not None else None, form)


def _monodromy_fault(m: PhiModule, phi: list) -> Optional[str]:
    """Why N breaks N.phi = p.phi.N, or None; N = 0 costs no product.

    `phi` is m's phi as `int_matrix` rows, and N is cleared of denominators
    too: the rule holds for nonzero multiples of phi and N alike.  The rule makes N nilpotent, so that is not checked: with phi invertible,
    N = p.phi.N.phi^-1 is similar to pN, so the eigenvalues of N are closed
    under multiplication by p, and a finite set of them so closed is {0}.
    """
    if m.nilpotent.is_zero():
        return None
    n, _ = int_matrix(m.nilpotent)
    if int_matmul(n, phi) != [[m.p * x for x in row] for row in int_matmul(phi, n)]:
        return "N must satisfy N.phi = p.phi.N"
    return None


def newton_slopes(m: PhiModule) -> SlopeMultiset:
    """Slope multiset of phi: root valuations of its characteristic polynomial.

    Basis-independent, since the characteristic polynomial is.  The module
    keeps it (`PhiModule.slopes`): the Newton polygon of its kept `coeffs`
    is taken once per module object, and every later call returns that value.
    """
    return m.slopes


def t_n(m: PhiModule) -> Fraction:
    """v_p(det phi), kept by construction; equals the multiplicity-weighted sum of Newton slopes."""
    return Fraction(m.tn)


def from_slopes(slopes: SlopeMultiset, p: int) -> PhiModule:
    """Slope normal form: one companion block of size h per h-fold slice of a/h.

    Each slope a/h (lowest terms) must appear with multiplicity divisible by
    h; every h-sized slice contributes one block and N = 0.  Each row is
    built once, from shared Fraction constants, and wrapped without
    re-coercion.  It is built by the trusted path: the block of x^h - p^a
    has determinant +-p^a, so t_N is the sum of the a, and N = 0 obeys the rule.
    """
    check_prime(p)
    if not isinstance(slopes, SlopeMultiset):
        slopes = SlopeMultiset(slopes)
    blocks = []  # (size h, a, p^a) per block
    for s, mult in slopes:
        num, den = s.numerator, s.denominator
        if den > mult:
            raise InputError(
                f"slope {rat_str(s)} has denominator {den} exceeding its multiplicity {mult}"
            )
        if mult % den != 0:
            raise InputError(
                f"multiplicity {mult} of slope {rat_str(s)} is not divisible by {den}"
            )
        blocks.extend([(den, num, Fraction(p) ** num)] * (mult // den))
    total = sum(h for h, _, _ in blocks)
    rows, at = [], 0
    for h, _, top in blocks:
        for i in range(h):  # row i: a 1 below the diagonal, row 0: p^a in the last column
            row = [_ZERO] * total
            row[at + (i - 1 if i else h - 1)] = _ONE if i else top
            rows.append(tuple(row))
        at += h
    return PhiModule._trusted(p, RatMatrix._trusted(tuple(rows)), RatMatrix.zeros(total, total),
                              sum(a for _, a, _ in blocks), FORM_DM_NORMAL)


def dm_blocks(m: PhiModule) -> list[tuple[Fraction, int, int]]:
    """Block layout (slope, offset, size) of a module in slope normal form,
    read off the Newton slopes it keeps (`PhiModule.slopes`)."""
    out = []
    at = 0
    for s, mult in m.slopes:
        den = s.denominator
        for _ in range(mult // den):
            out.append((s, at, den))
            at += den
    return out


def is_dm_normal(m: PhiModule) -> bool:
    """True iff phi equals the slope normal form of its Newton slopes byte for byte.

    `from_slopes` accepts a module's own slopes: each Newton segment joins
    integer points, so a slope a/h in lowest terms has a multiplicity
    divisible by h.
    """
    return m.phi == from_slopes(newton_slopes(m), m.p).phi


def tensor(a: PhiModule, b: PhiModule) -> PhiModule:
    """Tensor product: Kronecker phi's, Leibniz rule for N.

    Built by the trusted path, with no determinant and no matrix product:
    for ranks n of a and m of b, det(phi_a (x) phi_b) = det(phi_a)^m
    det(phi_b)^n is nonzero, so t_N = m t_N(a) + n t_N(b), and each term of
    N_a (x) 1 + 1 (x) N_b satisfies N.phi = p.phi.N, so their sum does.
    """
    if a.p != b.p:
        raise InputError("tensor requires modules over the same prime")
    n, m = a.rank, b.rank
    phi = a.phi.kron(b.phi)
    nil = a.nilpotent.kron(RatMatrix.identity(m)) + RatMatrix.identity(n).kron(b.nilpotent)
    return PhiModule._trusted(a.p, phi, nil, m * a.tn + n * b.tn)


def dual(a: PhiModule) -> PhiModule:
    """Dual module: phi becomes transpose-inverse, N becomes minus transpose.

    Built by the trusted path: det(phi^-T) = 1/det(phi), so t_N = -t_N(a),
    and transposing N.phi = p.phi.N and conjugating by phi^-T gives the rule
    for -N^T and phi^-T.
    """
    if a.rank == 0:
        return a
    return PhiModule._trusted(a.p, a.phi.inverse().transpose(), -a.nilpotent.transpose(), -a.tn)


def det(a: PhiModule) -> PhiModule:
    """Top exterior power: rank one, phi acts by det(phi), N by the zero trace.

    Built by the trusted path: det(phi) is nonzero with valuation t_N(a), and
    N = 0 satisfies the rule.
    """
    if a.rank == 0:
        return a
    phi = RatMatrix._trusted(((a.phi.det(),),))
    return PhiModule._trusted(a.p, phi, RatMatrix.zeros(1, 1), a.tn)
