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
list is complete; its flag-adapted chain is reported as a sample, but it
realizes the extremal degree in every dimension, which is all the deciders
consume, so verdicts on it still certify.  Everything else falls back to a
seeded, reproducible sample and "uncertified" verdicts, except that a
verified violating subobject always certifies a negative answer.

The front end runs on Python ints: the rational roots of the characteristic
polynomial by exact integer division, the eigenlines and the sampled
closures on integer rows, and the N-closed sums of parts listed by a walk
that visits only the closed masks.

In the two complete cases and in the scalar chain an element is a bitmask
of parts (eigenlines, slope blocks or the chain's lines), and the deciders
work on masks: t_N(W) is the sum of the parts' t_N, t_H(W) = lo*k + the sum
over lo < j < hi of dim(Fil^j & W), which is k minus the rank of the parts'
integer residues modulo Fil^j, and W holds W' exactly when its mask holds
that of W'.  Each part is checked to be
phi-stable once per decider call, and by linearity so is every sum of parts.
A canonical basis is row-reduced only for what a call returns or compares: a
witness, the first in canonical order among the violators of least rank, and
an HN step, with the elements it ties with in (slope, rank).  Other elements
are scored by their pivots on integer rows, each checked to be stable by an
integer residue.  Every witness and HN step is scored again from the
definition by `sub_invariants`, and a disagreement raises an internal error:
t_N from the determinant of the restriction matrix of Frobenius (one
elimination on integer rows for all the basis images) and t_H from the
induced filtration (W row-reduced once, then one elimination per distinct
level Fil^j), neither through the scorer.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
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

    Runs on Python ints: the polynomial is cleared of denominators and its
    zero roots are split off (they are not reported but count in the
    leftover).  A root a/b in lowest terms has a | const and b | lead, of the
    polynomial deflated so far; each such coprime pair, in both signs, is
    tried by exact division by (b*x - a) over Z, which by Gauss's lemma
    succeeds exactly at a root, and repeated for its multiplicity.  Fractions
    are built only for the roots returned, in ascending order.  Gives up
    (returns leftover = full remaining degree) if the divisor enumeration
    would need to factor integers beyond 10**12.
    """
    poly = list(coeffs)
    while poly and poly[-1] == 0:
        poly.pop()
    deg = len(poly) - 1
    if deg <= 0:
        return [], 0
    denom = math.lcm(*(c.denominator for c in poly))
    ints = [c.numerator * (denom // c.denominator) for c in poly]
    zeros = next(i for i, c in enumerate(ints) if c)
    ints = ints[zeros:]
    lead, const = abs(ints[-1]), abs(ints[0])
    if lead > 10**12 or const > 10**12:
        return [], deg
    roots = []
    lead_divisors = _divisors(lead)
    for a in _divisors(const):
        for b in lead_divisors:
            if len(ints) == 1 or ints[0] % a:
                break
            if ints[-1] % b or math.gcd(a, b) != 1:
                continue
            for s in (a, -a):
                mult = 0
                while len(ints) > 1:
                    quo = _divide_linear(ints, s, b)
                    if quo is None:
                        break
                    ints, mult = quo, mult + 1
                if mult:
                    roots.append((Fraction(s, b), mult))
    roots.sort()
    return roots, zeros + len(ints) - 1


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})


def _divide_linear(poly: list, a: int, b: int) -> Optional[list]:
    """poly / (b*x - a) over Z (ascending int coefficients), or None if it does not divide."""
    quo = [0] * (len(poly) - 1)
    acc = 0
    for i in range(len(poly) - 1, 0, -1):
        acc, rem = divmod(poly[i] + a * acc, b)
        if rem:
            return None
        quo[i - 1] = acc
    return quo if poly[0] + a * acc == 0 else None


class SubobjectLattice:
    """The stable subspaces a decider ranges over; unpacks as (bases, certified).

    `bases` are canonical reduced-row-echelon row tuples sorted by dimension
    then lexicographically, always holding the zero subspace first and the
    full one; `certified` says the list is complete.  `strategy` names how it
    was built: "eigenlines", "blocks", "scalar-chain" or "sample".  `keys`
    name the elements by ascending dimension.  In the first three, part
    lattices, an element is a sum of `parts` (eigenlines, slope blocks or the
    lines of the flag-adapted chain, as row lists), its key (in `masks`) is
    their bitmask and `part_tn[i]` is the t_N of part i; `basis(key)`
    row-reduces an element on first use, and `bases` has a length at once but
    builds every basis when an item is read.  In a sample a key is an index in
    `bases`, and `masks`, `parts` and `part_tn` are None.
    """

    def __init__(self, bases, certified, strategy, masks=None, parts=None, part_tn=None, ncols=0):
        self.certified, self.strategy = certified, strategy
        self.masks, self.parts, self.part_tn, self.ncols = masks, parts, part_tn, ncols
        self.keys = range(len(bases)) if masks is None else masks
        self.bases = bases if masks is None else _CanonicalBases(self)
        self._built, self._echelons, self._order = {}, {}, None

    def __getitem__(self, i):
        return (self.bases, self.certified)[i]

    @property
    def decides(self) -> bool:
        """Verdicts on it certify: it is complete, or the degree-extremal scalar chain."""
        return self.certified or self.strategy == "scalar-chain"

    def basis(self, key) -> tuple:
        """Canonical basis of the element named `key`."""
        if self.masks is None:
            return self.bases[key]
        basis = self._built.get(key)
        if basis is None:
            rows = [row for i, part in enumerate(self.parts) if key >> i & 1 for row in part]
            basis = self._built[key] = rref_rows(rows, self.ncols)
            if len(basis) != len(rows):
                raise AssertionError("internal: the lattice parts are not independent")
        return basis

    def below(self, small, big) -> bool:
        """The element named `small` is a subspace of the one named `big`."""
        if self.masks is not None:
            return small & ~big == 0
        echelon = self._echelons.get(big)
        if echelon is None:
            echelon = self._echelons[big] = _basis_echelon(self.bases[big])
        return not any(any(int_residue(int_row(v), echelon)) for v in self.bases[small])

    def _canonical(self):
        """(bases, keys) in canonical order."""
        if self._order is None:
            named = sorted((len(b), b, key) for key in self.keys for b in [self.basis(key)])
            self._order = tuple(b for _, b, _ in named), tuple(key for _, _, key in named)
        return self._order


class _CanonicalBases(Sequence):
    """`bases` of a part lattice: its length needs no basis, an item needs them all."""

    def __init__(self, lattice):
        self.lattice = lattice

    def __len__(self):
        return len(self.lattice.keys)

    def __getitem__(self, i):
        return self.lattice._canonical()[0][i]


def _support(vectors, owner) -> int:
    """Bitmask of the parts owner[j] in which some vector has a nonzero coordinate j."""
    mask = 0
    for v in vectors:
        for j, x in enumerate(v):
            if x:
                mask |= 1 << owner[j]
    return mask


def _n_closed_sums(parts, supports, part_tn, ncols, strategy) -> SubobjectLattice:
    """Certified lattice of the N-closed sums of `parts`, as masks.

    parts[i] is a list of rows and supports[i] the bitmask of the parts that
    N maps span(parts[i]) into.  A union is N-closed iff it holds the support
    of each of its parts.  N is nilpotent and maps each part into the parts
    of slope or valuation one less, so the supports form no cycle; in an
    order where every part follows the parts it needs, each closed union is
    a closed union of earlier parts plus one part whose support it holds.
    So the walk below lists only the closed masks, sorted by (dimension,
    mask).  The parts are independent, so distinct masks give distinct spans.
    """
    k = len(parts)
    order, placed = [], 0
    while len(order) < k:
        ready = [i for i in range(k) if not placed >> i & 1 and supports[i] & ~placed == 0]
        if not ready:
            raise AssertionError("internal: the N-supports of the lattice parts form a cycle")
        order.extend(ready)
        placed |= sum(1 << i for i in ready)
    closed = [0]  # dimension << k | mask, so that sorting orders by (dimension, mask)
    for i in order:
        step, need = len(parts[i]) << k | 1 << i, supports[i]
        closed += [e + step for e in closed if need & ~e == 0] if need else [e + step for e in closed]
    low = (1 << k) - 1
    masks = tuple(e & low for e in sorted(closed))
    return SubobjectLattice(None, True, strategy, masks, parts, part_tn, ncols)


def _eigenvectors(phi, den: int, r: Fraction) -> list:
    """Int basis of the r-eigenspace, with phi given as `int_matrix` (D*phi, D).

    It is the kernel of D*phi - D*r cleared of its denominator.
    """
    a, b = r.numerator * den, r.denominator  # D*phi - D*r = (b*D*phi - a) / b
    shifted = [[b * x - a * (i == j) for j, x in enumerate(row)] for i, row in enumerate(phi)]
    return int_kernel(shifted, len(phi))


def _eigenline_subobjects(m: PhiModule, roots, leftover: int) -> Optional[SubobjectLattice]:
    """Certified enumeration when eigenvalues are rational with distinct valuations.

    `roots, leftover` are `_rational_roots` of the characteristic polynomial.
    The support of N on each eigenline is read off from the coordinates of
    all N-images, solved for at once on integer rows: one elimination of
    [lines | images], one equation per coordinate, leaves in row i a nonzero
    in the column of image j iff line i is in its support.
    """
    n = m.rank
    if n == 0:
        return SubobjectLattice(None, True, "eigenlines", (0,), [], [])
    if leftover != 0 or any(mult != 1 for _, mult in roots):
        return None
    vals = [valuation(r, m.p) for r, _ in roots]
    if len(set(vals)) != len(vals):
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
    return _n_closed_sums([[v] for v in lines], supports, vals, n, "eigenlines")


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
    part_tn = [s * size for s, _, size in blocks]  # v_p(det) of the block of x^h - p^a
    return _n_closed_sums(parts, supports, part_tn, m.rank, "blocks")


def _scalar_constant(phi: RatMatrix) -> Optional[Fraction]:
    """The constant c when phi = c * identity, else None."""
    if phi.rows == 0:
        return Fraction(1)
    c = phi.entries[0][0]
    scalar = all(x == c if i == j else not x for i, row in enumerate(phi.entries)
                 for j, x in enumerate(row))
    return c if scalar else None


def _scalar_flag_chain(m: FilteredPhiModule) -> Optional[SubobjectLattice]:
    """Flag-adapted chain when Frobenius is scalar, as a lattice of lines.

    Every subspace is stable (and N = 0 is forced), so a complete enumeration
    is impossible; the chain adapted to the flag realizes the maximal induced
    t_H in every dimension, which is all the deciders and the greedy
    filtration compare against.  The chain is therefore reported as a sample
    (not `certified`), but verdicts built on it may still certify.  Its parts
    are the adapted lines, from the top level down, each needing the one
    before, so its masks are the prefixes 2^k - 1: listed here directly, where
    `_n_closed_sums` would scan all 2^n masks to find them.
    """
    c = _scalar_constant(m.module.phi)
    if c is None:
        return None
    m.hodge.require_flag("subobject enumeration")
    n = m.rank
    lo, hi = m.hodge.support()
    lines, prev = [], ()
    for j in range(hi, lo - 1, -1):
        level = m.hodge.subspace_at(j)
        lines.extend([v] for v in complement_basis(prev, level, n))
        prev = level
    masks = tuple((1 << k) - 1 for k in range(n + 1))
    part_tn = [valuation(c, m.module.p)] * n
    return SubobjectLattice(None, False, "scalar-chain", masks, lines, part_tn, n)


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


def enumerate_subobjects(m: FilteredPhiModule, seed: int = 0) -> SubobjectLattice:
    """All stable subspaces (certified) or a reproducible sample.

    Returns a `SubobjectLattice`, which unpacks as (bases, certified).  Bases
    are canonical reduced-row-echelon row tuples sorted by dimension then
    lexicographically, always including the zero and full subspaces.  Scalar
    Frobenius yields the flag-adapted chain, flagged as a sample since the
    full subspace lattice is infinite.  The characteristic polynomial is
    computed once and its rational roots, found on integers by
    `_rational_roots`, are shared by every strategy.
    """
    mod = m.module
    coeffs = charpoly(mod.phi)
    roots, leftover = _rational_roots(coeffs)
    lattice = _eigenline_subobjects(mod, roots, leftover)
    if lattice is None:
        lattice = _block_subobjects(mod, newton_slopes(mod, coeffs))
    if lattice is not None:
        return lattice
    lattice = _scalar_flag_chain(m)
    if lattice is not None:
        return lattice
    return SubobjectLattice(_sample_subobjects(m, seed, roots), False, "sample")


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


def _basis_echelon(basis) -> list:
    """Integer echelon of canonical RREF rows (each is zero at the others' pivots)."""
    rows = [int_row(b) for b in basis]
    return [(next(c for c, a in enumerate(row) if a), row) for row in rows]


def _part_ranks(lattice: SubobjectLattice, levels):
    """`ranks(mask)`: the rank of the parts' residues modulo each level, in order.

    Each part is reduced modulo each level once; the echelon of a mask
    extends that of the mask without its lowest bit by the residues of that
    part.  The memo lives as long as the returned function.
    """
    residues = [
        [[int_residue(int_row(v), level) for v in part] for part in lattice.parts]
        for level in levels
    ]
    memos = [{0: []} for _ in levels]

    def echelon_of(j, mask):
        echelon = memos[j].get(mask)
        if echelon is None:
            low = mask & -mask
            rest = echelon_of(j, mask ^ low)
            echelon = memos[j][mask] = int_echelon(residues[j][low.bit_length() - 1], rest)
        return echelon

    return lambda mask: (len(echelon_of(j, mask)) for j in range(len(levels)))


def lattice_scorer(m: FilteredPhiModule, lattice: Optional[SubobjectLattice] = None):
    """Scorer of canonical stable bases by integer residues and ranks.

    Returns `score(basis, mask=None) -> (rank, t_H, t_N, degree)`, equal to
    `sub_invariants` on every canonical (RREF) stable basis.  An element of a
    part lattice named by `mask` is scored from its parts (`basis` may be
    None), each checked once here to be Frobenius-stable; any other basis by
    its pivots, checked itself to be stable (InputError if not).  Flag form only.
    """
    phi, den = int_matrix(m.module.phi)
    p = m.module.p
    lo, hi = m.hodge.support()
    levels = [_basis_echelon(m.hodge.subspace_at(j)) for j in range(lo + 1, hi)]
    part_ranks = None
    if lattice is not None and lattice.masks is not None:
        for part in lattice.parts:
            echelon = int_echelon(map(int_row, part))
            if any(any(int_residue(int_apply(phi, row), echelon)) for _, row in echelon):
                raise AssertionError("internal: a lattice part is not Frobenius-stable")
        part_ranks = _part_ranks(lattice, levels)
        part_tn, sizes = lattice.part_tn, [len(part) for part in lattice.parts]

    def t_h(k, ranks):
        th = lo * k
        for rank in ranks:
            if rank == k:
                break  # W meets Fil^j, and every later (smaller) level, in zero
            th += k - rank
        return th

    def by_pivots(basis):
        echelon = _basis_echelon(basis)
        rows = [row for _, row in echelon]
        images = [int_apply(phi, r) for r in rows]
        if any(any(int_residue(img, echelon)) for img in images):
            raise InputError("subspace is not Frobenius-stable")
        # coordinates of phi(b_i) are its entries at the pivots; rows[i] and
        # images[i] are d_i * b_i and den * d_i * phi(b_i), d_i = rows[i][pivot]
        k, pivots = len(rows), [c for c, _ in echelon]
        scale = den**k
        for row, c in zip(rows, pivots):
            scale *= row[c]
        tn = valuation(Fraction(int_det([[img[c] for c in pivots] for img in images]), scale), p)
        ranks = (len(int_echelon(int_residue(r, level) for r in rows)) for level in levels)
        return k, t_h(k, ranks), tn

    def by_parts(mask):
        picked = [i for i in range(len(sizes)) if mask >> i & 1]
        k = sum(sizes[i] for i in picked)
        return k, t_h(k, part_ranks(mask)), sum(part_tn[i] for i in picked)

    def score(basis, mask=None):
        if mask is None or part_ranks is None:
            if not basis:
                return 0, 0, Fraction(0), Fraction(0)
            k, th, tn = by_pivots(basis)
        else:
            k, th, tn = by_parts(mask)
            if basis is not None and len(basis) != k:
                raise AssertionError("internal: part mask does not match the basis dimension")
        return k, th, Fraction(tn), Fraction(th) - tn

    return score


def _scored(m: FilteredPhiModule, lattice: SubobjectLattice):
    """(key, (rank, t_H, t_N, degree)) of each element, by ascending rank, lazily."""
    score = lattice_scorer(m, lattice)
    if lattice.masks is None:
        return ((key, score(lattice.bases[key])) for key in lattice.keys)
    return ((key, score(None, key)) for key in lattice.keys)


def _recheck(m: FilteredPhiModule, basis, fast) -> None:
    """Re-score a returned subspace from the definition; raise on disagreement."""
    slow = sub_invariants(m, basis)
    if slow != fast:
        msg = f"internal: lattice scorer gave {fast} but the definition gives {slow}"
        raise AssertionError(msg)


def _first_violation(m: FilteredPhiModule, seed: int, bound, lattice) -> Verdict:
    """First subobject of degree > bound in canonical order, re-checked, as a verdict.

    The scan stops after the least rank holding a violator, and only the
    violators of that rank get a basis."""
    if lattice is None:
        lattice = enumerate_subobjects(m, seed)
    bad = []
    for key, inv in _scored(m, lattice):
        if bad and inv[0] > bad[0][1][0]:
            break
        if inv[3] > bound:
            bad.append((key, inv))
    if not bad:
        return Verdict(STATUS_TRUE if lattice.decides else STATUS_UNCERTIFIED)
    basis, inv = min((lattice.basis(key), inv) for key, inv in bad)
    _recheck(m, basis, inv)
    return Verdict(STATUS_FALSE, basis)


def is_weakly_admissible(m: FilteredPhiModule, seed: int = 0, lattice=None) -> Verdict:
    """Degree zero and no positive-degree stable subspace.

    Flag-form Hodge data is required.  The verdict certifies true only when
    the candidate list decides the question (certified enumeration or scalar
    Frobenius); a verified violating subobject certifies falsity regardless.
    `lattice`, when given, replaces the enumeration; see `hn_filtration`.
    """
    if m.rank == 0:
        return Verdict(STATUS_TRUE)
    m.hodge.require_flag("is_weakly_admissible")
    if degree(m) != 0:
        full = tuple(RatMatrix.identity(m.rank).entries)
        return Verdict(STATUS_FALSE, full)
    return _first_violation(m, seed, 0, lattice)


def is_acyclic(m: FilteredPhiModule, seed: int = 0, lattice=None) -> Verdict:
    """Every stable subspace has degree at most deg(M).

    Equivalently every quotient has non-negative degree, equivalently the
    minimal Harder-Narasimhan slope is >= 0.  A certified-false witness W
    satisfies deg(M/W) < 0.  `lattice`: see `hn_filtration`.
    """
    if m.rank == 0:
        return Verdict(STATUS_TRUE)
    m.hodge.require_flag("is_acyclic")
    return _first_violation(m, seed, degree(m), lattice)


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
    """Greedy maximal-destabilizing filtration over the enumerated lattice.

    Ties break by maximal slope, then maximal rank, then lexicographically
    smallest reduced-row-echelon basis; graded slopes strictly decrease.
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
    scored = list(_scored(m, lattice))
    steps = []
    current = scored[0][0]  # the zero subspace, the only element of rank 0
    cur_rank, cur_deg = 0, Fraction(0)
    while cur_rank < m.rank:
        best, tied = None, []
        for key, inv in scored:
            k, d = inv[0], inv[3]
            if k <= cur_rank or not lattice.below(current, key):
                continue
            rank_key = ((d - cur_deg) / (k - cur_rank), k)
            if best is None or rank_key > best:
                best, tied = rank_key, [(key, inv)]
            elif rank_key == best:
                tied.append((key, inv))
        if best is None:
            raise AssertionError("internal: no extension step found")
        basis, current, inv = min((lattice.basis(key), key, inv) for key, inv in tied)
        (slope, k), d = best, inv[3]
        steps.append(HNStep(basis, slope, k, k - cur_rank, d - cur_deg))
        _recheck(m, basis, inv)
        cur_rank, cur_deg = k, d
    certified = lattice.decides
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


def _positive_slope_step(m: FilteredPhiModule, seed: int, lattice) -> tuple:
    """Basis of the filtration step collecting all graded slopes > 0."""
    steps = hn_filtration(m, seed, lattice).steps
    positive = list(itertools.takewhile(lambda s: s.slope > 0, steps))
    return positive[-1].basis if positive else ()


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
        rows = list(protect) + [
            tuple(sum((cvec[i] * comp[i][j] for i in range(k)), Fraction(0)) for j in range(n))
            for cvec in ker
        ]
        yield rref_rows(rows, n)


def _lower_once(m: FilteredPhiModule, seed: int, lattice) -> FilteredPhiModule:
    """Remove one dimension from the top jump met by the positive-slope part.

    Every degree-zero quotient of an acyclic module factors through the
    quotient by the positive-slope step W* (maps from slopes > 0 to slope 0
    vanish), so removing a direction inside W* leaves all such quotients
    untouched while every other quotient has integer degree >= 1 and can
    afford the drop of one.  Let i0 be the top index where Fil^i0 meets W*.
    The first candidate hyperplane H, with Fil^(i0+1) <= H < Fil^i0, whose
    sum with Fil^i0 & W* is Fil^i0 removes such a direction, and one exists:
    that meet is not inside Fil^(i0+1), so some coordinate functional on the
    complement misses it.  H is acyclic by the argument above; that is
    re-checked once, and a failure is an internal fault.
    """
    n = m.rank
    hodge = m.hodge
    wstar = _positive_slope_step(m, seed, lattice)
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
    # the removed direction must come out of the positive part
    hyper = next(
        (h for h in _hyperplane_candidates(fil_top, protect, n) if span_sum(h, inter, n) == fil_top),
        None,
    )
    if hyper is None:
        raise AssertionError("internal: no hyperplane of the top jump misses the positive part")
    chain = [(j, hyper if j == i0 else hodge.subspace_at(j)) for j in range(lo, hi + 1)]
    cand = FilteredPhiModule(m.module, HodgeData._from_chain(chain, n))
    if not is_acyclic(cand, seed, lattice).is_true:
        raise AssertionError(
            "internal: the lowered module is not certified acyclic; this contradicts "
            "the degree-lowering invariant"
        )
    return cand


def fn4_reduce(m: FilteredPhiModule, seed: int = 0) -> FilteredPhiModule:
    """Shrink the filtration pointwise until the module is weakly admissible.

    Requires a certified acyclic input.  Iteratively removes one dimension at
    a time from the top jump of the quotient modulo the maximal slope-zero
    subobject, checking at each step that acyclicity is preserved; the degree
    drops by exactly one per step, so the loop ends at degree zero, where
    acyclic means weakly admissible.  Phi never changes, so every step
    shares one lattice.
    """
    if m.rank:
        m.hodge.require_flag("is_acyclic")  # before enumerating, as is_acyclic does
    lattice = enumerate_subobjects(m, seed)
    verdict = is_acyclic(m, seed, lattice)
    if verdict.status != STATUS_TRUE:
        raise InputError(f"fn4_reduce needs a certified acyclic module (got {verdict.status})")
    if lattice.strategy == "scalar-chain":
        lattice = None  # adapted to the flag, which each step changes: rebuilt per module
    cur = m
    guard = 0
    while degree(cur) > 0:
        cur = _lower_once(cur, seed, lattice)
        guard += 1
        if guard > 10000:  # pragma: no cover
            raise AssertionError("internal: lowering loop failed to terminate")
    final = is_weakly_admissible(cur, seed, lattice)
    if final.status != STATUS_TRUE:  # pragma: no cover
        raise AssertionError("internal: lowered module failed the admissibility check")
    lo, hi = m.hodge.support()
    for j in range(lo, hi + 1):
        if not span_leq(cur.hodge.subspace_at(j), m.hodge.subspace_at(j)):  # pragma: no cover
            raise AssertionError("internal: lowered filtration escaped the original")
    return cur
