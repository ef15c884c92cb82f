"""Frobenius modules over a p-adic base with residue field F_p.

A module is an invertible rational matrix phi together with an operator N
obeying the twisted commutation rule N.phi = p.phi.N, which makes N
nilpotent; construction checks both, so no module that breaks them exists.
Slopes are always read off the characteristic polynomial of phi through the
Newton polygon, never from eigenvectors, so everything stays exact and
rational.

The normal form produced by `from_slopes` realizes the slope a/h (lowest
terms) as the companion block of x^h - p^a: basis e_1, ..., e_h with
phi(e_1) = e_2, ..., phi(e_h) = p^a e_1, and N = 0.  Blocks are ordered by
ascending slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rational import (
    _ONE,
    _ZERO,
    InputError,
    RatMatrix,
    charpoly,
    check_prime,
    int_matmul,
    int_matrix,
    json_int,
    newton_polygon,
    rat,
    rat_str,
    valuation,
)


@dataclass(frozen=True)
class SlopeMultiset:
    """Sorted multiset of rational slopes with positive multiplicities."""

    entries: tuple  # ((slope: Fraction, multiplicity: int), ...), slope ascending

    def __init__(self, entries):
        merged: dict[Fraction, int] = {}
        for s, m in entries:
            s = rat(s)
            m = json_int(m, "slope multiplicities")
            if m <= 0:
                raise InputError("slope multiplicities must be positive")
            merged[s] = merged.get(s, 0) + m
        object.__setattr__(
            self, "entries", tuple(sorted(merged.items(), key=lambda t: t[0]))
        )

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_obj(self):
        return [[rat_str(s), m] for s, m in self.entries]


FORM_MATRIX = "matrix"
FORM_DM_NORMAL = "dm-normal"


@dataclass(frozen=True)
class PhiModule:
    """A (phi, N)-module: prime p, invertible phi, nilpotent N.

    Construction is the one validity check: shapes, phi invertible, then
    N.phi = p.phi.N, which makes N nilpotent; each failure is an
    `InputError`, however the module is built.  It also keeps `tn` = t_N(M)
    = v_p(det phi), an int off the determinant that the invertibility check
    takes; `tn` is not a field, so equality, hashing, `repr` and `to_obj` do
    not see it.
    """

    p: int
    phi: RatMatrix
    nilpotent: RatMatrix
    form: str = FORM_MATRIX

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
        det = self.phi.det()  # 1 at rank 0
        if det == 0:
            raise InputError("phi must be invertible")
        fault = _monodromy_fault(self)
        if fault:
            raise InputError(fault)
        object.__setattr__(self, "tn", valuation(det, self.p))

    @property
    def rank(self) -> int:
        return self.phi.rows

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
        if not isinstance(obj, dict):
            raise InputError("PhiModule JSON must be an object")
        try:
            p = obj["p"]
            phi = obj["phi"]
        except KeyError as exc:
            raise InputError(f"PhiModule JSON missing key {exc}") from exc
        n = obj.get("N")
        form = obj.get("form", FORM_MATRIX)
        return cls.from_matrices(p, RatMatrix(phi), RatMatrix(n) if n is not None else None, form)


def _monodromy_fault(m: PhiModule) -> Optional[str]:
    """Why N breaks N.phi = p.phi.N, or None; N = 0 costs no product.

    The rule makes N nilpotent, so that is not checked: with phi invertible,
    N = p.phi.N.phi^-1 is similar to pN, so the eigenvalues of N are closed
    under multiplication by p, and a finite set of them so closed is {0}.
    """
    if m.nilpotent.is_zero():
        return None
    (n, _), (phi, _) = int_matrix(m.nilpotent), int_matrix(m.phi)
    if int_matmul(n, phi) != [[m.p * x for x in row] for row in int_matmul(phi, n)]:
        return "N must satisfy N.phi = p.phi.N"
    return None


def newton_slopes(m: PhiModule, coeffs=None) -> SlopeMultiset:
    """Slope multiset of phi: root valuations of its characteristic polynomial.

    Basis-independent, since the characteristic polynomial is.  A caller
    that already holds `charpoly(m.phi)` passes it as `coeffs`.
    """
    if m.rank == 0:
        return SlopeMultiset(())
    if coeffs is None:
        coeffs = charpoly(m.phi)
    return SlopeMultiset(newton_polygon(coeffs, m.p))


def t_n(m: PhiModule) -> Fraction:
    """v_p(det phi), kept by construction; equals the multiplicity-weighted sum of Newton slopes."""
    return Fraction(m.tn)


def from_slopes(slopes: SlopeMultiset, p: int) -> PhiModule:
    """Slope normal form: one companion block of size h per h-fold slice of a/h.

    Each slope a/h (lowest terms) must appear with multiplicity divisible by
    h; every h-sized slice contributes one block and N = 0.  Each row is
    built once, from shared Fraction constants, and wrapped without
    re-coercion; `PhiModule` still checks that phi is invertible.
    """
    check_prime(p)
    if not isinstance(slopes, SlopeMultiset):
        slopes = SlopeMultiset(slopes)
    blocks = []  # (size h, p^a) per block
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
        blocks.extend([(den, Fraction(p) ** num)] * (mult // den))
    total = sum(h for h, _ in blocks)
    rows, at = [], 0
    for h, top in blocks:
        for i in range(h):  # row i: a 1 below the diagonal, row 0: p^a in the last column
            row = [_ZERO] * total
            row[at + (i - 1 if i else h - 1)] = _ONE if i else top
            rows.append(tuple(row))
        at += h
    return PhiModule(p, RatMatrix._trusted(tuple(rows)), RatMatrix.zeros(total, total),
                     FORM_DM_NORMAL)


def dm_blocks(m: PhiModule, slopes: SlopeMultiset) -> list[tuple[Fraction, int, int]]:
    """Block layout (slope, offset, size) of a module in slope normal form.

    `slopes` is `newton_slopes(m)`.
    """
    out = []
    at = 0
    for s, mult in slopes:
        den = s.denominator
        for _ in range(mult // den):
            out.append((s, at, den))
            at += den
    return out


def is_dm_normal(m: PhiModule, slopes: SlopeMultiset) -> bool:
    """True iff phi equals the canonical slope-normal-form matrix byte for byte.

    `slopes` is `newton_slopes(m)`.
    """
    if m.rank == 0:
        return True
    try:
        canon = from_slopes(slopes, m.p)
    except InputError:
        return False
    return m.phi == canon.phi


def tensor(a: PhiModule, b: PhiModule) -> PhiModule:
    """Tensor product: Kronecker phi's, Leibniz rule for N."""
    if a.p != b.p:
        raise InputError("tensor requires modules over the same prime")
    phi = a.phi.kron(b.phi)
    n = a.nilpotent.kron(RatMatrix.identity(b.rank)) + RatMatrix.identity(a.rank).kron(
        b.nilpotent
    )
    return PhiModule(a.p, phi, n, FORM_MATRIX)


def dual(a: PhiModule) -> PhiModule:
    """Dual module: phi becomes transpose-inverse, N becomes minus transpose."""
    if a.rank == 0:
        return a
    return PhiModule(
        a.p, a.phi.inverse().transpose(), -a.nilpotent.transpose(), FORM_MATRIX
    )


def det(a: PhiModule) -> PhiModule:
    """Top exterior power: rank one, phi acts by det(phi), N by the zero trace."""
    if a.rank == 0:
        return a
    return PhiModule(
        a.p, RatMatrix([[a.phi.det()]]), RatMatrix.zeros(1, 1), FORM_MATRIX
    )
