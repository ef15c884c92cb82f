"""Harder-Narasimhan machinery for filtered Frobenius modules.

Degree convention: deg = t_H - t_N.  Under it a rank-one module is
"non-negative" exactly when its Hodge weight is at least its Frobenius slope,
shrinking a filtration lowers the degree, and the global-sections Dimension
bookkeeping of `vst_dimension` is coherent.  (The opposite sign also appears
in the literature; this one is forced by the degree-lowering algorithm below
and is used consistently everywhere in this package.)

Subobjects are Frobenius- and N-stable rational subspaces with the induced
filtration.  Their enumeration is certified complete in two situations:

  (a) all eigenvalues rational with pairwise distinct valuations
      (stable subspaces are N-closed sums of eigenlines);
  (b) slope normal form, multiplicity free (one block per slope; stable
      subspaces are N-closed sums of blocks since distinct-slope block
      polynomials are coprime and each block is irreducible).

Scalar Frobenius is special: every subspace is stable (and N = 0 is forced),
so no finite enumeration is complete and `enumerate_subobjects` reports its
flag-adapted chain as a sample - but that chain realizes the extremal degree
in every dimension, which is all the deciders consume, so verdicts built on
it still certify.  Everything else falls back to a seeded, reproducible
sample and verdicts are downgraded to "uncertified" - except that a genuinely
verified violating subobject always certifies a negative answer.

The deciders score lattice elements by pivots and ranks.  Every element, and
every Fil^j of a flag, is a canonical reduced-row-echelon row tuple, so the
coordinates of a vector of W are its entries at W's pivot columns, and it
lies in W exactly when subtracting those multiples of W's rows leaves zero.
t_N(W) is the valuation of the determinant of the restriction of phi read
off that way, and t_H(W) = lo*k + sum over lo < j < hi of dim(Fil^j & W),
where dim(Fil^j & W) is k minus the rank of W's rows reduced modulo Fil^j.
No coordinates are solved for and no induced filtration is built.  Every
witness and HN step the deciders pick this way is scored again from the
definition by `sub_invariants` (restriction matrix, induced filtration), and
a disagreement raises an internal error.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bc import Dimension
from .filtration import HodgeData, _flag_from_chain, induced_on_subspace, t_h
from .isocrystal import PhiModule, dm_blocks, is_dm_normal, newton_slopes, t_n
from .rational import (
    InputError,
    RatMatrix,
    charpoly,
    complement_basis,
    rat_str,
    restriction_matrix,
    rref_rows,
    span_intersect,
    span_leq,
    span_sum,
    valuation,
)

STATUS_TRUE = "certified-true"
STATUS_FALSE = "certified-false"
STATUS_UNCERTIFIED = "uncertified"


@dataclass(frozen=True)
class FilteredPhiModule:
    """A Frobenius module together with rank-consistent Hodge data."""

    module: PhiModule
    hodge: HodgeData

    def __post_init__(self):
        if self.module.rank != self.hodge.rank:
            raise InputError(
                f"rank mismatch: module {self.module.rank}, hodge {self.hodge.rank}"
            )

    @property
    def rank(self) -> int:
        return self.module.rank

    def to_obj(self):
        return {"module": self.module.to_obj(), "hodge": self.hodge.to_obj()}

    @classmethod
    def from_obj(cls, obj) -> "FilteredPhiModule":
        if not isinstance(obj, dict):
            raise InputError("filtered module JSON must be an object")
        try:
            return cls(PhiModule.from_obj(obj["module"]), HodgeData.from_obj(obj["hodge"]))
        except KeyError as exc:
            raise InputError(f"filtered module JSON missing key {exc}") from exc


@dataclass(frozen=True)
class Verdict:
    """Decision with certification status and, when negative, a witness."""

    status: str
    witness: Optional[tuple] = None  # subobject basis rows

    def __post_init__(self):
        if self.status not in (STATUS_TRUE, STATUS_FALSE, STATUS_UNCERTIFIED):
            raise InputError(f"bad verdict status {self.status!r}")
        if self.status == STATUS_FALSE and self.witness is None:
            raise InputError("a certified-false verdict must carry a witness")

    @property
    def certified(self) -> bool:
        return self.status != STATUS_UNCERTIFIED

    @property
    def is_true(self) -> bool:
        return self.status == STATUS_TRUE

    def to_obj(self):
        return {
            "status": self.status,
            "witness": None
            if self.witness is None
            else [[rat_str(x) for x in row] for row in self.witness],
        }


def degree(m: FilteredPhiModule) -> Fraction:
    """deg = t_H - t_N, exact (an integer for honest inputs)."""
    return Fraction(t_h(m.hodge)) - t_n(m.module)


# ---------------------------------------------------------------------------
# subobject enumeration


def _rational_roots(coeffs: Sequence[Fraction]) -> tuple[list[tuple[Fraction, int]], int]:
    """Rational roots with multiplicities, plus the leftover (unsplit) degree.

    Uses the rational root bound on an integer-cleared copy; gives up (returns
    leftover = full remaining degree) if the divisor enumeration would need to
    factor integers beyond 10**12.
    """
    poly = list(coeffs)
    while poly and poly[-1] == 0:
        poly.pop()
    deg = len(poly) - 1
    if deg <= 0:
        return [], 0
    denom = 1
    for c in poly:
        denom = denom * c.denominator // _gcd(denom, c.denominator)
    ints = [int(c * denom) for c in poly]
    lead, const = abs(ints[-1]), abs(next(i for i in ints if i != 0))
    if lead > 10**12 or const > 10**12:
        return [], deg
    candidates = set()
    for a in _divisors(const):
        for b in _divisors(lead):
            candidates.add(Fraction(a, b))
            candidates.add(Fraction(-a, b))
    roots = []
    for r in sorted(candidates):
        mult = 0
        while True:
            quo, rem = _deflate(poly, r)
            if rem != 0:
                break
            poly = quo
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, len(poly) - 1


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _deflate(poly: Sequence[Fraction], r: Fraction):
    """Synthetic division of poly (ascending coeffs) by (x - r)."""
    n = len(poly) - 1
    out = [Fraction(0)] * n
    acc = Fraction(0)
    for i in range(n, 0, -1):
        acc = poly[i] + acc * r
        out[i - 1] = acc
    rem = poly[0] + acc * r
    return out, rem


def _canonical_order(bases):
    return tuple(sorted(set(bases), key=lambda b: (len(b), b)))


def _support(vectors, owner) -> int:
    """Bitmask of the parts owner[j] in which some vector has a nonzero coordinate j."""
    mask = 0
    for v in vectors:
        for j, x in enumerate(v):
            if x:
                mask |= 1 << owner[j]
    return mask


def _n_closed_sums(parts, supports, ncols) -> tuple:
    """Canonical spans of the N-closed unions of `parts`.

    parts[i] is a list of rows and supports[i] the bitmask of the parts that
    N maps span(parts[i]) into.  A union is N-closed iff it holds the support
    of each of its parts; only those unions are row-reduced.
    """
    out = []
    for mask in range(1 << len(parts)):
        picked = [i for i in range(len(parts)) if mask >> i & 1]
        if all((supports[i] & ~mask) == 0 for i in picked):
            out.append(rref_rows([row for i in picked for row in parts[i]], ncols))
    return _canonical_order(out)


def _eigenline_subobjects(m: PhiModule, roots, leftover: int) -> Optional[tuple]:
    """Certified enumeration when eigenvalues are rational with distinct valuations.

    `roots, leftover` are `_rational_roots` of the characteristic polynomial.
    The support of N on an eigenline is read off in eigen-coordinates.
    """
    if m.rank == 0:
        return ((),)
    if leftover != 0 or any(mult != 1 for _, mult in roots):
        return None
    vals = [valuation(r, m.p) for r, _ in roots]
    if len(set(vals)) != len(vals):
        return None
    lines = []
    ident = RatMatrix.identity(m.rank)
    for r, _ in roots:
        ker = (m.phi - ident.scale(r)).nullspace()
        if len(ker) != 1:
            return None
        lines.append(ker[0])
    to_eigen = RatMatrix(lines).inverse().transpose()
    owner = range(len(lines))
    supports = [_support([to_eigen.apply(m.nilpotent.apply(v))], owner) for v in lines]
    return _n_closed_sums([[v] for v in lines], supports, m.rank)


def _block_subobjects(m: PhiModule, slopes) -> Optional[tuple]:
    """Certified enumeration for multiplicity-free slope normal forms."""
    if not is_dm_normal(m, slopes):
        return None
    blocks = dm_blocks(m, slopes)
    if len({s for s, _, _ in blocks}) != len(blocks):
        return None  # a repeated slope block: not multiplicity free
    std = RatMatrix.identity(m.rank).entries
    owner = [k for k, (_, _, size) in enumerate(blocks) for _ in range(size)]
    parts = [std[off : off + size] for _, off, size in blocks]
    supports = [_support([m.nilpotent.apply(row) for row in part], owner) for part in parts]
    return _n_closed_sums(parts, supports, m.rank)


def _scalar_constant(phi: RatMatrix) -> Optional[Fraction]:
    """The constant c when phi = c * identity, else None."""
    if phi.rows == 0:
        return Fraction(1)
    c = phi.entries[0][0]
    return c if phi == RatMatrix.identity(phi.rows).scale(c) else None


def _scalar_flag_chain(m: FilteredPhiModule) -> Optional[tuple]:
    """Flag-adapted chain when Frobenius is scalar.

    Every subspace is stable (and N = 0 is forced), so a complete enumeration
    is impossible; the chain adapted to the flag realizes the maximal induced
    t_H in every dimension, which is all the deciders and the greedy
    filtration compare against.  The enumeration itself is therefore reported
    as a sample, but verdicts built on it may still certify.
    """
    phi = m.module.phi
    n = m.rank
    if n == 0:
        return ((),)
    if _scalar_constant(phi) is None:
        return None
    m.hodge.require_flag("subobject enumeration")
    lo, hi = m.hodge.support()
    adapted: list = []
    span: tuple = ()
    for j in range(hi, lo - 1, -1):
        target = m.hodge.subspace_at(j)
        for v in complement_basis(span, target, n):
            adapted.append(v)
        span = rref_rows(adapted, n)
    chain = [()]
    for k in range(1, n + 1):
        chain.append(rref_rows(adapted[:k], n))
    return _canonical_order(chain)


def _sample_subobjects(m: FilteredPhiModule, seed: int, roots) -> tuple:
    """Seeded, reproducible sample of genuinely stable subspaces.

    `roots` are the rational roots of the characteristic polynomial.
    """
    mod = m.module
    n = m.rank
    rng = random.Random(seed)
    found = {(), tuple(RatMatrix.identity(n).entries)}

    def closure(vectors):
        # echelon rows in insertion order: each row is zero at the pivots of
        # the rows before it, so `_reduce` over them leaves the residue
        rows, pivots = [], []
        queue = list(vectors)
        while queue:
            v = queue.pop()
            r = _reduce(v, rows, pivots)
            c = next((j for j, x in enumerate(r) if x), None)
            if c is None:
                continue
            rows.append([x / r[c] for x in r])
            pivots.append(c)
            queue.extend((mod.phi.apply(v), mod.nilpotent.apply(v)))
        return rref_rows(rows, n)

    # structured candidates: eigenlines of any rational eigenvalues, N-kernels
    ident = RatMatrix.identity(n)
    for r, _mult in roots:
        for v in (mod.phi - ident.scale(r)).nullspace():
            found.add(closure([v]))
    power = ident
    for _ in range(n):
        power = power @ mod.nilpotent
        ker = power.nullspace()
        if ker:
            found.add(closure(list(ker)))
    for _ in range(12 * max(n, 1)):
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        if any(v):
            found.add(closure([v]))
        if len(found) >= 64:
            break
    singles = [b for b in found if b]
    for b1, b2 in itertools.combinations(singles[:10], 2):
        found.add(closure(list(b1) + list(b2)))
    return _canonical_order(found)


def enumerate_subobjects(m: FilteredPhiModule, seed: int = 0) -> tuple[tuple, bool]:
    """All stable subspaces (certified) or a reproducible sample.

    Returns (bases, certified).  Bases are canonical reduced-row-echelon row
    tuples sorted by dimension then lexicographically, always including the
    zero and full subspaces.  Scalar Frobenius yields the flag-adapted chain,
    flagged as a sample since the full subspace lattice is infinite.  The
    characteristic polynomial is computed once and shared by every strategy.
    """
    mod = m.module
    coeffs = charpoly(mod.phi)
    roots, leftover = _rational_roots(coeffs)
    lattice = _eigenline_subobjects(mod, roots, leftover)
    if lattice is None:
        lattice = _block_subobjects(mod, newton_slopes(mod, coeffs))
    if lattice is not None:
        return lattice, True
    chain = _scalar_flag_chain(m)
    if chain is not None:
        return chain, False
    return _sample_subobjects(m, seed, roots), False


def _verdicts_certified(m: FilteredPhiModule, enum_certified: bool) -> bool:
    """Scalar Frobenius still decides verdicts: the flag-adapted chain is
    degree-extremal in every dimension even though the lattice is infinite."""
    return enum_certified or _scalar_constant(m.module.phi) is not None


# ---------------------------------------------------------------------------
# degrees of subobjects and the deciders


def sub_invariants(m: FilteredPhiModule, basis) -> tuple[int, int, Fraction, Fraction]:
    """(rank, t_H, t_N, degree) of the stable subspace spanned by `basis`.

    Scores from the definition: the restriction matrix of Frobenius and the
    induced filtration.  The deciders score by `lattice_scorer` and re-check
    what they return with this.
    """
    k = len(basis)
    if k == 0:
        return 0, 0, Fraction(0), Fraction(0)
    restr = restriction_matrix(m.module.phi, basis)
    if restr is None:
        raise InputError("subspace is not Frobenius-stable")
    tn = Fraction(valuation(restr.det(), m.module.p))
    th = t_h(induced_on_subspace(m.hodge, basis))
    return k, th, tn, Fraction(th) - tn


def _pivots(basis) -> tuple:
    """Pivot columns of canonical reduced-row-echelon rows."""
    return tuple(next(c for c, x in enumerate(row) if x) for row in basis)


def _reduce(v, basis, pivots) -> list:
    """v minus its pivot multiples of the RREF rows `basis`; zero iff v is in their span."""
    r = list(v)
    for row, c in zip(basis, pivots):
        f = r[c]
        if f:
            r = [a - f * b if b else a for a, b in zip(r, row)]
    return r


def _contains(basis, pivots, v) -> bool:
    return not any(_reduce(v, basis, pivots))


def _t_h_by_ranks(levels, lo: int, basis) -> int:
    """t_H of span(basis): lo*k plus dim(Fil^j & W) for each level lo < j < hi.

    `levels` holds (Fil^j, its pivots) for j = lo+1, ..., hi-1.
    """
    k = len(basis)
    th = lo * k
    for fil, pivots in levels:
        residues = [r for r in (_reduce(b, fil, pivots) for b in basis) if any(r)]
        rank = len(residues) if len(residues) < 2 else RatMatrix(residues).rank()
        if rank == k:
            break  # W meets Fil^j, and every later (smaller) level, in zero
        th += k - rank
    return th


def lattice_scorer(m: FilteredPhiModule):
    """Scorer of canonical stable bases by pivots and ranks.

    Returns `score(basis) -> (rank, t_H, t_N, degree)`, equal to
    `sub_invariants` on every canonical (RREF) stable basis; raises
    InputError on a basis that is not Frobenius-stable.  Flag form only.
    """
    phi, p = m.module.phi, m.module.p
    lo, hi = m.hodge.support()
    levels = []
    for j in range(lo + 1, hi):
        fil = m.hodge.subspace_at(j)
        levels.append((fil, _pivots(fil)))

    def score(basis):
        k = len(basis)
        if k == 0:
            return 0, 0, Fraction(0), Fraction(0)
        pivots = _pivots(basis)
        restr = []
        for b in basis:
            img = phi.apply(b)
            if not _contains(basis, pivots, img):
                raise InputError("subspace is not Frobenius-stable")
            restr.append([img[c] for c in pivots])
        tn = Fraction(valuation(RatMatrix(restr).det(), p))
        th = _t_h_by_ranks(levels, lo, basis)
        return k, th, tn, Fraction(th) - tn

    return score


def _recheck(m: FilteredPhiModule, basis, fast) -> None:
    """Re-score a returned subspace from the definition; raise on disagreement."""
    slow = sub_invariants(m, basis)
    if slow != fast:
        raise AssertionError(
            f"internal: lattice scorer gave {fast} but the definition gives {slow}"
        )


def _first_violation(m: FilteredPhiModule, seed: int, bound) -> Verdict:
    """First enumerated subobject of degree > bound, re-checked, as a verdict."""
    subs, enum_cert = enumerate_subobjects(m, seed)
    score = lattice_scorer(m)
    for basis in subs:
        inv = score(basis)
        if inv[3] > bound:
            _recheck(m, basis, inv)
            return Verdict(STATUS_FALSE, basis)
    certified = _verdicts_certified(m, enum_cert)
    return Verdict(STATUS_TRUE if certified else STATUS_UNCERTIFIED)


def is_weakly_admissible(m: FilteredPhiModule, seed: int = 0) -> Verdict:
    """Degree zero and no positive-degree stable subspace.

    Flag-form Hodge data is required.  The verdict certifies true only when
    the candidate list decides the question (certified enumeration or scalar
    Frobenius); a verified violating subobject certifies falsity regardless.
    """
    if m.rank == 0:
        return Verdict(STATUS_TRUE)
    m.hodge.require_flag("is_weakly_admissible")
    if degree(m) != 0:
        full = tuple(RatMatrix.identity(m.rank).entries)
        return Verdict(STATUS_FALSE, full)
    return _first_violation(m, seed, 0)


def is_acyclic(m: FilteredPhiModule, seed: int = 0) -> Verdict:
    """Every stable subspace has degree at most deg(M).

    Equivalently every quotient has non-negative degree, equivalently the
    minimal Harder-Narasimhan slope is >= 0.  A certified-false witness W
    satisfies deg(M/W) < 0.
    """
    if m.rank == 0:
        return Verdict(STATUS_TRUE)
    m.hodge.require_flag("is_acyclic")
    return _first_violation(m, seed, degree(m))


# ---------------------------------------------------------------------------
# the canonical filtration


@dataclass(frozen=True)
class HNStep:
    """One filtration step: cumulative subspace, graded slope/rank/degree."""

    basis: tuple
    slope: Fraction
    rank: int  # cumulative rank of the step subspace
    graded_rank: int
    graded_degree: Fraction

    def to_obj(self):
        return {
            "basis": [[rat_str(x) for x in row] for row in self.basis],
            "slope": rat_str(self.slope),
            "rank": self.rank,
            "graded_rank": self.graded_rank,
            "graded_degree": rat_str(self.graded_degree),
        }


@dataclass(frozen=True)
class HNFiltration:
    steps: tuple  # HNStep, graded slopes strictly decreasing
    certified: bool

    def slopes(self) -> list[tuple[Fraction, int]]:
        return [(s.slope, s.graded_rank) for s in self.steps]

    def to_obj(self):
        return {"steps": [s.to_obj() for s in self.steps], "certified": self.certified}


def hn_filtration(m: FilteredPhiModule, seed: int = 0) -> HNFiltration:
    """Greedy maximal-destabilizing filtration over the enumerated lattice.

    Ties break by maximal slope, then maximal rank, then lexicographically
    smallest reduced-row-echelon basis; graded slopes strictly decrease.
    """
    if m.rank == 0:
        return HNFiltration((), True)
    m.hodge.require_flag("hn_filtration")
    subs, enum_cert = enumerate_subobjects(m, seed)
    certified = _verdicts_certified(m, enum_cert)
    score = lattice_scorer(m)
    inv = {basis: score(basis) for basis in subs}
    pivots = {basis: _pivots(basis) for basis in subs}
    steps = []
    current: tuple = ()
    cur_rank, cur_deg = 0, Fraction(0)
    while cur_rank < m.rank:
        best = None
        for basis in subs:
            k, _, _, d = inv[basis]
            if k <= cur_rank or not all(_contains(basis, pivots[basis], v) for v in current):
                continue
            slope = (d - cur_deg) / (k - cur_rank)
            key = (-slope, -k, basis)
            if best is None or key < best[0]:
                best = (key, basis, slope, k, d)
        if best is None:
            raise AssertionError("internal: no extension step found")
        _, basis, slope, k, d = best
        steps.append(
            HNStep(basis, slope, k, k - cur_rank, d - cur_deg)
        )
        current, cur_rank, cur_deg = basis, k, d
    for step in steps:
        _recheck(m, step.basis, inv[step.basis])
    filt = HNFiltration(tuple(steps), certified)
    if certified:
        slopes = [s.slope for s in steps]
        if any(s2 >= s1 for s1, s2 in zip(slopes, slopes[1:])):
            raise AssertionError("internal: certified filtration has non-decreasing slopes")
    return filt


@dataclass(frozen=True)
class VstResult:
    """Global-sections Dimension of the associated modification."""

    h0: Dimension
    h1_nonvanishing: bool
    certified: bool

    def to_obj(self):
        return {
            "h0": self.h0.to_obj(),
            "h1_nonvanishing": self.h1_nonvanishing,
            "certified": self.certified,
        }


def vst_dimension(m: FilteredPhiModule, seed: int = 0) -> VstResult:
    """Dimension of H^0 of the slope decomposition attached to the module.

    Non-negative graded slopes d/h of rank e*h contribute (e*d, e*h); a
    negative slope makes H^1 nonzero.
    """
    filt = hn_filtration(m, seed)
    dim = ht = 0
    h1 = False
    for step in filt.steps:
        if step.slope >= 0:
            if step.graded_degree.denominator != 1:  # pragma: no cover
                raise AssertionError("internal: non-integral graded degree")
            dim += int(step.graded_degree)
            ht += step.graded_rank
        else:
            h1 = True
    return VstResult(Dimension(dim, ht), h1, filt.certified)


# ---------------------------------------------------------------------------
# constructive filtration lowering


def _positive_slope_step(m: FilteredPhiModule, seed: int) -> tuple:
    """Basis of the filtration step collecting all graded slopes > 0."""
    filt = hn_filtration(m, seed)
    best: tuple = ()
    for step in filt.steps:
        if step.slope > 0:
            best = step.basis
        else:
            break
    return best


def _hyperplane_candidates(fil_top, protect, n):
    """Codimension-one subspaces of span(fil_top) containing span(protect).

    Deterministic finite family: kernels of small-integer functionals on a
    complement of the protected part, lexicographic order.
    """
    comp = complement_basis(protect, fil_top, n)
    k = len(comp)
    if k == 0:
        return
    for coeffs in itertools.product(range(-2, 3), repeat=k):
        if all(c == 0 for c in coeffs):
            continue
        first = next(c for c in coeffs if c != 0)
        if first < 0:
            continue  # normalize functionals up to sign
        ker = RatMatrix([list(coeffs)]).nullspace()  # k-1 rows in comp coordinates
        rows = list(protect)
        for cvec in ker:
            rows.append(
                tuple(
                    sum((cvec[i] * comp[i][j] for i in range(k)), Fraction(0))
                    for j in range(n)
                )
            )
        yield rref_rows(rows, n)


def _lower_once(m: FilteredPhiModule, seed: int) -> FilteredPhiModule:
    """Remove one dimension from the top jump met by the positive-slope part.

    Every degree-zero quotient of an acyclic module factors through the
    quotient by the positive-slope step W* (maps from slopes > 0 to slope 0
    vanish), so removing a direction inside W* leaves all such quotients
    untouched while every other quotient has integer degree >= 1 and can
    afford the drop of one.  Acyclicity of the candidate is re-checked anyway.
    """
    n = m.rank
    hodge = m.hodge
    wstar = _positive_slope_step(m, seed)
    lo, hi = hodge.support()
    i0 = None
    inter = ()
    for j in range(hi, lo - 1, -1):
        inter = span_intersect(hodge.subspace_at(j), wstar, n)
        if inter:
            i0 = j
            break
    if i0 is None:
        raise AssertionError("internal: positive degree but no lowerable jump")
    fil_top = hodge.subspace_at(i0)
    protect = hodge.subspace_at(i0 + 1)
    for hyper in _hyperplane_candidates(fil_top, protect, n):
        if span_sum(hyper, inter, n) != rref_rows(fil_top, n):
            continue  # removed direction must come out of the positive part
        chain = []
        for j in range(lo, hi + 1):
            chain.append((j, hyper if j == i0 else hodge.subspace_at(j)))
        try:
            new_hodge = _flag_from_chain(chain, n)
        except InputError:
            continue
        cand = FilteredPhiModule(m.module, new_hodge)
        if is_acyclic(cand, seed).is_true:
            return cand
    raise AssertionError(
        "internal: no acyclicity-preserving hyperplane found for a certified "
        "acyclic module; this contradicts the degree-lowering invariant"
    )


def fn4_reduce(m: FilteredPhiModule, seed: int = 0) -> FilteredPhiModule:
    """Shrink the filtration pointwise until the module is weakly admissible.

    Requires a certified acyclic input.  Iteratively removes one dimension at
    a time from the top jump of the quotient modulo the maximal slope-zero
    subobject, checking at each step that acyclicity is preserved; the degree
    drops by exactly one per step, so the loop ends at degree zero, where
    acyclic means weakly admissible.
    """
    verdict = is_acyclic(m, seed)
    if verdict.status != STATUS_TRUE:
        raise InputError(f"fn4_reduce needs a certified acyclic module (got {verdict.status})")
    cur = m
    guard = 0
    while degree(cur) > 0:
        cur = _lower_once(cur, seed)
        guard += 1
        if guard > 10000:  # pragma: no cover
            raise AssertionError("internal: lowering loop failed to terminate")
    final = is_weakly_admissible(cur, seed)
    if final.status != STATUS_TRUE:  # pragma: no cover
        raise AssertionError("internal: lowered module failed the admissibility check")
    lo, hi = m.hodge.support()
    for j in range(lo, hi + 1):
        if not span_leq(cur.hodge.subspace_at(j), m.hodge.subspace_at(j)):  # pragma: no cover
            raise AssertionError("internal: lowered filtration escaped the original")
    return cur
