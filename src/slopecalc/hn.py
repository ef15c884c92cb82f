"""Harder-Narasimhan machinery for filtered Frobenius modules.

Degree convention: deg = t_H - t_N.  Under it a rank-one module is
"non-negative" exactly when its Hodge weight is at least its Frobenius slope,
shrinking a filtration lowers the degree, and the global-sections Dimension
bookkeeping of `vst_dimension` is coherent.  (The opposite sign also appears
in the literature; this one is forced by the degree-lowering algorithm below
and is used consistently everywhere in this package.)

Subobjects are Frobenius- and N-stable rational subspaces with the induced
filtration.  Their enumeration is certified complete when all eigenvalues are
rational with pairwise distinct valuations (the N-closed sums of eigenlines)
and for a multiplicity-free slope normal form (the N-closed sums of blocks:
distinct-slope block polynomials are coprime and each block is irreducible).
Scalar Frobenius makes every subspace stable (and forces N = 0), so no finite
list is complete; but its flag-adapted chain realizes the extremal degree in
every dimension, which is all the deciders consume, so it is certified too: a
lattice is `certified` when verdicts read off it are proofs.  Everything else
falls back to a seeded, reproducible sample and "uncertified" verdicts,
except that a verified violating subobject always certifies a negative
answer.

The front end runs on Python ints: one `Spectrum` per call reads the
characteristic polynomial of phi once (its rational roots and, on first use,
its Newton slopes); the eigenlines and the sampled closures are grown on
integer rows.  N needs no check here, and t_N(M) no determinant: a
`PhiModule` checks N when it is built and keeps t_N(M) as the int `tn`.

Every element is a bitmask of parts (eigenlines, slope blocks, the chain's
lines, or in a sample the element itself as one part), and the deciders work
on masks.  A lattice is its parts and their requirement order; the list of
all its masks is built only when read, and no decider reads it.  Each part
is row-reduced once per scorer on integer rows, checked to be phi-stable by
an integer residue, and its t_N, the valuation of the determinant of phi on
it, read off its pivots; by linearity every sum of parts is stable, and
t_N(W) is the sum of its parts' t_N.  t_H is read off one integer echelon per
element, in coordinates adapted to the flag and ascending by weight, where
Fil^j is spanned by the coordinates of weight >= j: dim(W & Fil^j) counts
the leading columns of weight >= j, so t_H(W) is the sum of their weights.
A decider scores the lattice by one depth-first walk over its closed masks,
whose stack carries each element's invariants and the later parts reduced
modulo it, so memory grows with the rank, not with the number of elements.
Degrees stay ints.  A lattice keeps the scorer of the module it was last
scored for, so deciders run in turn on one module and lattice (`battery`,
`fn4_reduce`) share it.  `hn_filtration` reads the HN polygon off the upper
concave hull of the largest degree at each rank, with no containment test
but between its steps.  A canonical basis is row-reduced only for what a
call returns or compares: a witness, the first in canonical order among the
violators of least rank, and the elements of largest degree at the hull's
vertices below V.  Every witness and HN step is scored again from the
definition by `sub_invariants` (the restriction matrix of Frobenius and the
induced filtration, not the scorer; V against t_H(M) and the module's
t_N(M)), and a disagreement raises an internal error.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .filtration import HodgeData, induced_on_subspace, t_h
from .isocrystal import PhiModule, dm_blocks, is_dm_normal, newton_slopes, t_n
from .rational import (
    Dimension,
    InputError,
    RatMatrix,
    _gauss_jordan,
    _primitive,
    _vp_int,
    charpoly,
    complement_basis,
    int_apply,
    int_det,
    int_echelon,
    int_kernel,
    int_matmul,
    int_matrix,
    int_residue,
    int_row,
    int_rref,
    rat_rref,
    rat_str,
    rational_roots,
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


class Spectrum:
    """Frobenius's characteristic polynomial, read once per call and shared.

    Building it computes `coeffs` = `charpoly(phi)`; `roots` (the rational
    roots with multiplicities and the leftover degree, by `rational_roots`)
    and `slopes` (the Newton slopes) are computed on first use.
    `enumerate_subobjects` builds one or takes the caller's.
    """

    def __init__(self, module: PhiModule):
        self.module, self.coeffs = module, charpoly(module.phi)

    @cached_property
    def roots(self) -> tuple[list[tuple[Fraction, int]], int]:
        return rational_roots(self.coeffs)

    @cached_property
    def slopes(self):
        return newton_slopes(self.module, self.coeffs)


class SubobjectLattice:
    """The stable subspaces a decider ranges over: its parts and their order.

    Every element is a sum of `parts` (row lists: eigenlines, slope blocks,
    the lines of the flag-adapted chain, or a sample's nonzero elements in
    canonical order), named by the bitmask of its parts.  `order` lists
    (part, requirement mask), each part after the parts it needs; the
    elements are the masks holding their parts' requirements, and the
    deciders walk them from there (`lattice_scorer`).  A sample's parts never
    sum (`order` None).  `certified`: verdicts read off the family are
    proofs, as it is complete or (the scalar chain) reaches the largest
    degree at every rank; it is then closed under sum and intersection,
    which `hn_filtration` relies on.  `strategy`: "eigenlines", "blocks",
    "scalar-chain" or "sample".  `keys` lists the masks on first read;
    `basis(key)` row-reduces an element on first use (a sample's are given).
    `scorer(m)` keeps the `lattice_scorer` of the last module object it was
    asked for, so deciders run in turn share it.
    """

    def __init__(self, parts, certified, strategy, ncols, order):
        self.parts, self.ncols, self.order = parts, ncols, order
        self.certified, self.strategy = certified, strategy
        self._built, self._scorer = {}, None

    @classmethod
    def sample(cls, bases, certified=False):
        """The lattice of the canonical `bases` (zero and full included), one part each."""
        parts = [b for b in bases if b]
        lattice = cls(parts, certified, "sample", len(parts[0][0]) if parts else 0, None)
        lattice._built.update(zip(lattice.keys, [()] + parts))  # each element's basis is given
        return lattice

    @cached_property
    def keys(self) -> tuple:
        """Every element's mask, by (dimension, mask); a sample's are 0, 1, 2, 4, ..."""
        k = len(self.parts)
        if self.order is None:
            return (0,) + tuple(1 << i for i in range(k))
        closed = [0]  # dimension << k | mask, so that sorting orders by (dimension, mask)
        for i, need in self.order:
            step = len(self.parts[i]) << k | 1 << i
            closed += [e + step for e in closed if not need & ~e]
        low = (1 << k) - 1
        return tuple(e & low for e in sorted(closed))

    def __getitem__(self, i):
        # `len(lattice[0])` is the lattice size that bench/tracer.py reads;
        # ROADMAP item 1 moves it to a size attribute and deletes this
        return (self.keys, self.certified)[i]

    def basis(self, key) -> tuple:
        """Canonical basis of the element named `key`."""
        basis = self._built.get(key)
        if basis is None:
            rows = [row for i, part in enumerate(self.parts) if key >> i & 1 for row in part]
            basis = self._built[key] = rref_rows(rows, self.ncols)
            if len(basis) != len(rows):
                raise AssertionError("internal: the lattice parts are not independent")
        return basis

    def scorer(self, m):
        """`lattice_scorer(m, self)`, kept until a call with another module object."""
        if self._scorer is None or self._scorer[0] is not m:
            self._scorer = m, lattice_scorer(m, self)
        return self._scorer[1]


def _support(vectors, owner) -> int:
    """Bitmask of the parts owner[j] in which some vector has a nonzero coordinate j."""
    mask = 0
    for v in vectors:
        for j, x in enumerate(v):
            if x:
                mask |= 1 << owner[j]
    return mask


def _n_closed_sums(parts, supports, ncols, strategy) -> SubobjectLattice:
    """Certified lattice of the N-closed sums of `parts`, as masks.

    parts[i] is a list of rows and supports[i] the bitmask of the parts that
    N maps span(parts[i]) into.  A union is N-closed iff it holds the support
    of each of its parts.  N is nilpotent and maps each part into the parts
    of slope or valuation one less, so the supports form no cycle; in an
    order where every part follows the parts it needs, each closed union is
    a closed union of earlier parts plus one part whose support it holds.
    The lattice records that order with each part's support, from which the
    deciders walk the closed masks and `keys` lists them.  The parts are
    independent, so distinct masks give distinct spans.
    """
    k = len(parts)
    order, placed = [], 0
    while len(order) < k:
        ready = [i for i in range(k) if not placed >> i & 1 and supports[i] & ~placed == 0]
        if not ready:
            raise AssertionError("internal: the N-supports of the lattice parts form a cycle")
        order.extend(ready)
        placed |= sum(1 << i for i in ready)
    order = tuple((i, supports[i]) for i in order)  # each part with its requirement mask
    return SubobjectLattice(parts, True, strategy, ncols, order)


def _eigenvectors(phi, den: int, r: Fraction) -> list:
    """Int basis of the r-eigenspace, with phi given as `int_matrix` (D*phi, D).

    It is the kernel of D*phi - D*r cleared of its denominator.
    """
    a, b = r.numerator * den, r.denominator  # D*phi - D*r = (b*D*phi - a) / b
    shifted = [[b * x - a * (i == j) for j, x in enumerate(row)] for i, row in enumerate(phi)]
    return int_kernel(shifted, len(phi))


def _eigenline_subobjects(m: PhiModule, roots, leftover: int) -> Optional[SubobjectLattice]:
    """Certified enumeration when eigenvalues are rational with distinct valuations.

    `roots, leftover` are the `Spectrum.roots` of the module.
    The support of N on each eigenline is read off from the coordinates of
    all N-images, solved for at once on integer rows: one elimination of
    [lines | images], one equation per coordinate, leaves in row i a nonzero
    in the column of image j iff line i is in its support.
    """
    n = m.rank
    if leftover != 0 or any(mult != 1 for _, mult in roots):
        return None
    vals = {valuation(r, m.p) for r, _ in roots}
    if len(vals) != len(roots):
        return None
    phi, den = int_matrix(m.phi)
    lines = []
    for r, _ in roots:
        ker = _eigenvectors(phi, den, r)
        if len(ker) != 1:
            return None
        a, b = r.numerator * den, r.denominator
        if [b * x for x in int_apply(phi, ker[0])] != [a * x for x in ker[0]]:
            raise AssertionError(f"internal: {rat_str(r)}-eigenline is not fixed by phi")
        lines.append(ker[0])
    nil, _ = int_matrix(m.nilpotent)
    columns = lines + [int_apply(nil, v) for v in lines]
    rows = [[v[c] for v in columns] for c in range(n)]
    if _gauss_jordan(rows, 2 * n) != list(range(n)):
        raise AssertionError("internal: the eigenlines do not span the module")
    supports = [_support([[row[n + j] for row in rows]], range(n)) for j in range(n)]
    return _n_closed_sums([[v] for v in lines], supports, n, "eigenlines")


def _block_subobjects(m: PhiModule, slopes) -> Optional[SubobjectLattice]:
    """Certified enumeration for multiplicity-free slope normal forms."""
    if not is_dm_normal(m, slopes):
        return None
    blocks = dm_blocks(m, slopes)
    if len({s for s, _, _ in blocks}) != len(blocks):
        return None  # a repeated slope block: not multiplicity free
    n = m.rank
    std = [[int(i == j) for j in range(n)] for i in range(n)]
    images = list(zip(*m.nilpotent.entries))  # images[j] = N e_j, column j of N
    owner = [k for k, (_, _, size) in enumerate(blocks) for _ in range(size)]
    parts = [std[off : off + size] for _, off, size in blocks]
    supports = [_support(images[off : off + size], owner) for _, off, size in blocks]
    return _n_closed_sums(parts, supports, m.rank, "blocks")


def _is_scalar(phi: RatMatrix) -> bool:
    """Whether phi is a constant times the identity."""
    c = phi.entries[0][0] if phi.rows else 0
    return all(x == c if i == j else not x for i, row in enumerate(phi.entries)
               for j, x in enumerate(row))


def _scalar_flag_chain(m: FilteredPhiModule) -> Optional[SubobjectLattice]:
    """Flag-adapted chain when Frobenius is scalar, as a lattice of lines.

    Every subspace is stable (and N = 0 is forced), so a complete enumeration
    is impossible; but t_N depends on the dimension alone, and the chain
    adapted to the flag realizes the maximal induced t_H in every dimension,
    which is all the deciders and the HN hull read, so it is `certified`:
    verdicts read off it are proofs.  Its parts are the adapted lines,
    from the top level down, and `_n_closed_sums` builds it with line k
    needing line k - 1, so its masks are the prefixes 2^k - 1.
    """
    if not _is_scalar(m.module.phi):
        return None
    m.hodge.require_flag("subobject enumeration")
    n = m.rank
    lo, hi = m.hodge.support()
    lines, prev = [], ()
    for j in range(hi, lo - 1, -1):
        level = m.hodge.subspace_at(j)
        if len(level) != len(prev):
            lines.extend([v] for v in complement_basis(prev, level, n))
            prev = level
    return _n_closed_sums(lines, [k and 1 << (k - 1) for k in range(n)], n, "scalar-chain")


def _sample_subobjects(m: FilteredPhiModule, seed: int, roots) -> tuple:
    """Seeded, reproducible sample of genuinely stable subspaces.

    `roots` are the rational roots of the characteristic polynomial.  Every
    closure is grown on integer rows and named by its `int_rref` key; Fractions
    are built once per distinct closure.
    """
    mod = m.module
    n = m.rank
    rng = random.Random(seed)
    phi, den = int_matrix(mod.phi)
    nil, _ = int_matrix(mod.nilpotent)
    has_n = any(any(row) for row in nil)
    ops = (phi, nil) if has_n else (phi,)
    full = int_rref([[int(i == j) for j in range(n)] for i in range(n)], n)
    found = {(): (), full: rat_rref(full)}  # int_rref key -> basis, per distinct closure

    def add(key):
        if key not in found:
            found[key] = rat_rref(key)

    def closure(vectors):
        # Krylov closure on integer rows; phi and N each cleared by one
        # common denominator, so they act as multiples of the same maps.  A
        # closure of rank n is the full space, which is already found.
        echelon, queue = [], list(vectors)
        while queue:
            v = int_residue(queue.pop(), echelon)
            c = next((j for j, a in enumerate(v) if a), None)
            if c is None:
                continue
            v = _primitive(v)
            echelon.append((c, v))
            if len(echelon) == n:
                return
            queue.extend(int_apply(op, v) for op in ops)
        add(int_rref([row for _, row in echelon], n))

    # structured candidates: the lines of the canonical eigenspace basis (as
    # `RatMatrix.nullspace` gives it, up to scale) of each rational eigenvalue,
    # and each proper N-power kernel, whose closure depends only on its span
    for r, _mult in roots:
        lines = _eigenvectors(phi, den, r)
        _gauss_jordan(lines, n)
        for v in lines:
            closure([v])
    if has_n:
        power = nil
        for _ in range(n):
            ker = int_kernel(list(power), n)
            if len(ker) == n:
                break  # N^k = 0, and so is every higher power
            if ker:
                closure(ker)
            power = int_matmul(power, nil)
    for _ in range(12 * max(n, 1)):
        v = [rng.randint(-3, 3) for _ in range(n)]
        if any(v):
            closure([v])
        if len(found) >= 64:
            break
    # sums of pairs of the first ten nonzero closures in the iteration order
    # of the set of their bases: a sum of stable subspaces is stable, so it
    # is the span of the two bases' rows
    singles = [b for b in set(found.values()) if b][:10]
    for rows1, rows2 in itertools.combinations([list(map(int_row, b)) for b in singles], 2):
        key = int_rref(rows1 + rows2, n)
        if len(key) < n:
            add(key)
    return tuple(sorted(found.values(), key=lambda b: (len(b), b)))


def enumerate_subobjects(m: FilteredPhiModule, seed: int = 0, spectrum=None) -> SubobjectLattice:
    """All stable subspaces (certified) or a reproducible sample, as a `SubobjectLattice`.

    Its elements always include the zero and full subspaces.  Scalar Frobenius
    yields the flag-adapted chain (`_scalar_flag_chain`).  `spectrum`, the
    module's `Spectrum` when the caller already holds it, is built here
    otherwise; every strategy reads its roots and slopes.
    """
    mod = m.module
    spectrum = spectrum or Spectrum(mod)
    lattice = _eigenline_subobjects(mod, *spectrum.roots)
    if lattice is None:
        lattice = _block_subobjects(mod, spectrum.slopes)
    if lattice is None:
        lattice = _scalar_flag_chain(m)
    if lattice is None:
        lattice = SubobjectLattice.sample(_sample_subobjects(m, seed, spectrum.roots[0]))
    return lattice


# ---------------------------------------------------------------------------
# degrees of subobjects and the deciders


def sub_invariants(m: FilteredPhiModule, basis) -> tuple[int, int, Fraction, Fraction]:
    """(rank, t_H, t_N, degree) of the stable subspace spanned by `basis`.

    Scores from the definition: the restriction matrix of Frobenius and the
    induced filtration.  Dependent rows are an input error: phi is invertible
    and the restriction matrix has a zero column at each free row, so its
    determinant is zero exactly then.  The canonical basis of V, the
    identity, is M itself: it scores (n, t_H(M), t_N(M)) with no change of
    basis, t_N(M) being `t_n(m.module)`, which the module keeps.  The
    deciders score by `lattice_scorer` and re-check with this.
    """
    k = len(basis)
    if k == 0:
        return 0, 0, Fraction(0), Fraction(0)
    if k == m.rank and all(list(row) == [i == j for j in range(k)] for i, row in enumerate(basis)):
        th, tn = t_h(m.hodge), t_n(m.module)
        return k, th, tn, Fraction(th) - tn
    restr = restriction_matrix(m.module.phi, basis)
    if restr is None:
        raise InputError("subspace is not Frobenius-stable")
    det = restr.det()
    if not det:
        raise InputError("subspace basis rows are linearly dependent")
    tn = Fraction(valuation(det, m.module.p))
    th = t_h(induced_on_subspace(m.hodge, basis))
    return k, th, tn, Fraction(th) - tn


def _flag_coordinates(hodge: HodgeData) -> tuple[list, list]:
    """(C, weights): int coordinates adapted to the flag, ascending by weight.

    Nested levels have nested pivot sets, so the canonical rows of Fil^j at
    pivots new to it (weight j) extend those taken above to a basis B of it.
    One elimination of [B^T | I] leaves in row i of its right half C a nonzero
    multiple of row i of (B^T)^-1: `int_apply(C, v)[i]` is coordinate i of v.
    """
    n = hodge.rank
    found = {}  # pivot column -> (weight, int row), by descending weight
    for j in sorted(set(hodge.weights), reverse=True):  # the distinct levels Fil^j
        for row in hodge.subspace_at(j):
            c = next(c for c, a in enumerate(row) if a)
            if c not in found:
                found[c] = j, int_row(row)
    rows = [[r[i] for _, r in reversed(found.values())] + [int(i == t) for t in range(n)]
            for i in range(n)]
    _gauss_jordan(rows, 2 * n)
    return [row[n:] for row in rows], [j for j, _ in reversed(found.values())]


def lattice_scorer(m: FilteredPhiModule, lattice: SubobjectLattice):
    """`walk(cap=None)`: each element of `lattice` once, as (key, (rank, t_H, t_N, degree)).

    All ints, equal to `sub_invariants` on the element's canonical basis.  Per
    module, each part is row-reduced once on integer rows, checked
    Frobenius-stable, written in `_flag_coordinates`, and its t_N read off its
    pivots: the echelon rows r_i are triangular there, so det(phi on it) is the
    determinant of the images phi(r_i) at the pivots over the product of the
    pivot entries.  t_N of a mask is the sum of its parts'.  Depth first, a
    child adds a later part of `lattice.order` whose requirements the parent
    holds (a sample's parts are children of the zero mask only), so each
    closed mask is reached once.  The stack carries the parent's invariants
    and its later parts reduced modulo it, reduced again modulo a child only
    if it has children; the added part's echelon gives the new leading
    columns, whose weights add to t_H.  Children are pushed in ascending
    order, so the smallest subtree pops first; none of rank above `cap[0]` is
    pushed, and the caller may lower it as the walk goes.  Flag form only.
    """
    phi, den = int_matrix(m.module.phi)
    p = m.module.p
    coords, weights = _flag_coordinates(m.hodge)
    order = lattice.order or tuple((i, 0) for i in range(len(lattice.parts)))
    residues, tns = [], []  # by position in `order`
    for i, _ in order:
        echelon = int_echelon(int_row(v) for v in lattice.parts[i])
        images = [int_apply(phi, row) for _, row in echelon]  # den * phi(r_i)
        if any(any(int_residue(img, echelon)) for img in images):
            raise AssertionError("internal: a lattice part is not Frobenius-stable")
        det = int_det([[img[c] for c, _ in echelon] for img in images])  # phi invertible: det != 0
        scale = den ** len(echelon) * math.prod(row[c] for c, row in echelon)
        tns.append(_vp_int(abs(det), p) - _vp_int(abs(scale), p))
        residues.append([int_apply(coords, row) for _, row in echelon])
    bits, needs = [1 << i for i, _ in order], [need for _, need in order]
    sums, count = lattice.order is not None, len(order)  # a sample's parts never sum

    def walk(cap=None):
        cap = cap or [m.rank]
        yield 0, (0, 0, 0, 0)
        # (parent mask, rank, t_H, t_N, position of later[0], later, position to add)
        stack = [(0, 0, 0, 0, 0, residues, at) for at in range(count) if not needs[at]]
        while stack:
            mask, k, th, tn, base, later, at = stack.pop()
            new = int_echelon(later[at - base])
            mask, k, tn = mask | bits[at], k + len(new), tn + tns[at]
            th += sum(weights[c] for c, _ in new)
            yield mask, (k, th, tn, th - tn)
            room = cap[0] - k
            kids = [t for t in range(at + 1, count)
                    if not needs[t] & ~mask and len(residues[t]) <= room] if sums else ()
            if kids:
                low = kids[0]
                later = [[_primitive(int_residue(row, new)) for row in rows]
                         for rows in later[low - base:]]
                stack += [(mask, k, th, tn, low, later, t) for t in kids]

    return walk


def _recheck(m: FilteredPhiModule, basis, fast) -> None:
    """Re-score a returned subspace from the definition; raise on disagreement."""
    slow = sub_invariants(m, basis)
    if slow != fast:
        msg = f"internal: lattice scorer gave {fast} but the definition gives {slow}"
        raise AssertionError(msg)


def _first_violation(m: FilteredPhiModule, bound, lattice) -> Verdict:
    """First subobject of degree > bound in canonical order, re-checked, as a verdict.

    One walk keeps the violators of the least violating rank found so far and
    pushes no child above it; ranks grow along the walk, so every element up
    to that rank is reached.  Only its violators get a basis."""
    bound = math.floor(bound)  # integer degrees exceed bound iff they exceed its floor
    cap, bad = [m.rank], []  # the least violating rank so far, and its violators
    for key, inv in lattice.scorer(m)(cap):
        if inv[3] > bound and inv[0] <= cap[0]:
            if inv[0] < cap[0]:
                cap[0], bad = inv[0], []
            bad.append((key, inv))
    if not bad:
        return Verdict(STATUS_TRUE if lattice.certified else STATUS_UNCERTIFIED)
    basis, inv = min((lattice.basis(key), inv) for key, inv in bad)
    _recheck(m, basis, inv)
    return Verdict(STATUS_FALSE, basis)


def is_weakly_admissible(m: FilteredPhiModule, seed: int = 0, lattice=None) -> Verdict:
    """Degree zero and no positive-degree stable subspace.

    Flag-form Hodge data is required.  The verdict certifies true only on a
    `certified` lattice (a complete enumeration or the scalar chain); a
    verified violating subobject certifies falsity regardless.
    `lattice`, when given, replaces the enumeration; see `hn_filtration`.
    The degree reads t_N(M) off the module, before any enumeration.
    """
    if m.rank == 0:
        return Verdict(STATUS_TRUE)
    m.hodge.require_flag("is_weakly_admissible")
    if t_h(m.hodge) != m.module.tn:
        return Verdict(STATUS_FALSE, RatMatrix.identity(m.rank).entries)
    if lattice is None:
        lattice = enumerate_subobjects(m, seed)
    return _first_violation(m, 0, lattice)


def is_acyclic(m: FilteredPhiModule, seed: int = 0, lattice=None) -> Verdict:
    """Every stable subspace has degree at most deg(M).

    Equivalently every quotient has non-negative degree, equivalently the
    minimal Harder-Narasimhan slope is >= 0.  A certified-false witness W
    satisfies deg(M/W) < 0.  `lattice`: see `hn_filtration`; deg(M) reads
    t_N(M) off the module.
    """
    if m.rank == 0:
        return Verdict(STATUS_TRUE)
    m.hodge.require_flag("is_acyclic")
    if lattice is None:
        lattice = enumerate_subobjects(m, seed)
    return _first_violation(m, t_h(m.hodge) - m.module.tn, lattice)


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


def hn_filtration(m: FilteredPhiModule, seed: int = 0, lattice=None) -> HNFiltration:
    """HN filtration read off the upper concave hull P of the points (r, M_r).

    M_r is the largest degree at rank r; one walk of the lattice keeps it and
    the elements reaching it, sorted by rank for the hull, and each vertex of
    P gives a step.  On a certified lattice the family is closed under sum
    and intersection, where degree is supermodular (t_H is, t_N is modular).
    Two maximisers W != F at a vertex r would give deg(W+F) + deg(W&F) >=
    2 M_r, against P(r+s) + P(r-s) < 2 P(r) for s = dim(W+F) - r; a vertex
    element not inside the one at a later vertex fails the same way.  So each
    vertex has one element and they nest, which is checked (an internal
    error otherwise).  A sample need not be closed: a vertex takes its first
    maximiser in canonical order and is skipped if that misses the previous
    step, so the steps still nest with strictly falling slopes.  The last
    vertex is V, whose basis is the identity and holds every step;
    `sub_invariants` re-checks it against t_H(M) and the module's t_N(M).
    `lattice`, when given, is used in place of `enumerate_subobjects(m,
    seed)` and must be that lattice for the same Frobenius module.  It does
    not depend on the flag, except for a "scalar-chain" lattice, which is
    valid for the same flag only.
    """
    if m.rank == 0:
        return HNFiltration((), True)
    m.hodge.require_flag("hn_filtration")
    if lattice is None:
        lattice = enumerate_subobjects(m, seed)
    best = {}  # rank -> [M_r, the (key, invariants) reaching it]
    for key, inv in lattice.scorer(m)():
        top = best.get(inv[0])
        if top is None or inv[3] > top[0]:
            best[inv[0]] = [inv[3], [(key, inv)]]
        elif inv[3] == top[0]:
            top[1].append((key, inv))
    hull = []  # vertices (r, M_r): a point on or under the chord past it is dropped
    for k, (d, _) in sorted(best.items()):
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                                 <= (d - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((k, d))
    steps, prev, cur_rank, cur_deg = [], (), 0, 0
    for k, d in hull[1:]:
        tied = best[k][1]
        if lattice.certified and len(tied) != 1:
            raise AssertionError(f"internal: {len(tied)} elements reach the HN vertex at rank {k}")
        if k == m.rank:
            basis, inv = RatMatrix.identity(k).entries, tied[0][1]
        else:
            basis, inv = min((lattice.basis(key), inv) for key, inv in tied)
            if not span_leq(prev, basis):
                if lattice.certified:
                    msg = f"internal: the HN vertex at rank {k} misses the step before"
                    raise AssertionError(msg)
                continue
        _recheck(m, basis, inv)
        dk, dd = k - cur_rank, d - cur_deg
        steps.append(HNStep(basis, Fraction(dd, dk), k, dk, Fraction(dd)))
        prev, cur_rank, cur_deg = basis, k, d
    return HNFiltration(tuple(steps), lattice.certified)


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
    return vst_from_filtration(hn_filtration(m, seed))


def vst_from_filtration(filt: HNFiltration) -> VstResult:
    """`vst_dimension` read off a module's HN filtration."""
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


def _top_hyperplane(fil_top, protect, inter, n) -> tuple:
    """Canonical basis of a hyperplane H, protect <= H < fil_top, with H + inter = fil_top.

    `inter` lies in fil_top and meets span(protect) in zero.  With comp =
    `complement_basis(protect, fil_top, n)` and z the least t such that inter
    lies in span(protect + comp[:t+1]), H is protect plus the kernel, in comp
    coordinates, of c = (0, ..., 0, 1, -2, ..., -2) with its 1 at index z:
    the span of protect, comp[:z] and 2 comp[z] + comp[t] for t > z.  Of the
    functionals with entries in -2..2 and a positive first nonzero entry, in
    lexicographic order, c is the first that does not vanish on inter:
      * every one with more leading zeros vanishes on inter;
      * c.u = u_z, which is nonzero for some u in inter.
    """
    comp = complement_basis(protect, fil_top, n)
    z = next((t for t in range(len(comp)) if span_leq(inter, protect + comp[: t + 1])), None)
    if z is None:
        raise AssertionError("internal: no hyperplane of the top jump misses the positive part")
    twice = [2 * x for x in comp[z]]
    rows = protect + comp[:z] + tuple(tuple(a + b for a, b in zip(twice, v)) for v in comp[z + 1 :])
    hyper = rref_rows(rows, n)
    if span_sum(hyper, inter, n) != fil_top:
        raise AssertionError("internal: no hyperplane of the top jump misses the positive part")
    return hyper


def _lower_once(m: FilteredPhiModule, filt: HNFiltration) -> FilteredPhiModule:
    """Remove one dimension from the top jump met by the positive-slope part.

    `filt` is the certified HN filtration of the acyclic module m.  Every
    degree-zero quotient of m factors through the quotient by the step W*
    collecting the graded slopes > 0 (maps from slopes > 0 to slope 0
    vanish), so removing a direction inside W* leaves all such quotients
    untouched while every other quotient has integer degree >= 1 and can
    afford the drop of one.  Let i0 be the top index where Fil^i0 meets W*.
    The new Fil^i0 is the hyperplane of `_top_hyperplane`, which holds
    Fil^(i0+1) and misses that meet; one exists, since the meet is not
    inside Fil^(i0+1).
    """
    n, hodge = m.rank, m.hodge
    wstar = next((s.basis for s in reversed(filt.steps) if s.slope > 0), ())
    lo, hi = hodge.support()
    for i0 in range(hi, lo - 1, -1):
        inter = span_intersect(hodge.subspace_at(i0), wstar, n)
        if inter:
            break
    else:
        raise AssertionError("internal: positive degree but no lowerable jump")
    hyper = _top_hyperplane(hodge.subspace_at(i0), hodge.subspace_at(i0 + 1), inter, n)
    chain = [(j, hyper if j == i0 else hodge.subspace_at(j)) for j in range(lo, hi + 1)]
    return FilteredPhiModule(m.module, HodgeData._from_chain(chain, n))


def fn4_reduce(m: FilteredPhiModule, seed: int = 0) -> FilteredPhiModule:
    """Shrink the filtration pointwise until the module is weakly admissible.

    Requires a certified acyclic input, whose degree d is then a
    non-negative integer.  Each of d steps removes one dimension from the top
    jump met by the positive-slope part of the current module's HN
    filtration, which drops the degree by exactly one; that one filtration
    also re-checks that the module it lowers is certified acyclic.  At degree
    zero acyclic means weakly admissible, which is checked last.  Phi never
    changes, so every step shares one lattice and the module's t_N(M); the
    input's check and the first filtration, on the same module, share its
    scorer too.
    """
    if m.rank:
        m.hodge.require_flag("is_acyclic")  # before enumerating, as is_acyclic does
    lattice = enumerate_subobjects(m, seed)
    verdict = is_acyclic(m, seed, lattice)
    if verdict.status != STATUS_TRUE:
        raise InputError(f"fn4_reduce needs a certified acyclic module (got {verdict.status})")
    tn = m.module.tn
    if lattice.strategy == "scalar-chain":
        lattice = None  # adapted to the flag, which each step changes: rebuilt per module
    deg = t_h(m.hodge) - tn
    if deg < 0:
        raise AssertionError(f"internal: a certified acyclic module has degree {deg}")
    cur = m
    for left in range(deg - 1, -1, -1):
        filt = hn_filtration(cur, seed, lattice)
        if not filt.certified or filt.steps[-1].slope < 0:
            raise AssertionError(
                "internal: the lowered module is not certified acyclic; this contradicts "
                "the degree-lowering invariant"
            )
        cur = _lower_once(cur, filt)
        if t_h(cur.hodge) - tn != left:
            raise AssertionError("internal: a lowering step did not drop the degree by one")
    final = is_weakly_admissible(cur, seed, lattice)
    if final.status != STATUS_TRUE:  # pragma: no cover
        raise AssertionError("internal: lowered module failed the admissibility check")
    lo, hi = m.hodge.support()
    for j in range(lo, hi + 1):
        if not span_leq(cur.hodge.subspace_at(j), m.hodge.subspace_at(j)):  # pragma: no cover
            raise AssertionError("internal: lowered filtration escaped the original")
    return cur
