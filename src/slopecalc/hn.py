"""Harder-Narasimhan machinery for filtered Frobenius modules.

Degree convention: deg = t_H - t_N.  Under it a rank-one module is
"non-negative" exactly when its Hodge weight is at least its Frobenius slope,
shrinking a filtration lowers the degree, and the global-sections dimension
bookkeeping of `vst_dimension` is coherent.  (The opposite sign also appears
in the literature; this one is forced by the degree-lowering algorithm below
and is used consistently everywhere in this package.)

Subobjects are Frobenius- and N-stable Q_p-subspaces (Fontaine's weak
admissibility, over K_0 = Q_p) with the induced filtration.  When the
characteristic polynomial is squarefree with coprime factors irreducible over
Q_p, the stable subspaces are exactly the sums of their kernels, so the
enumeration is certified complete in two cases: all eigenvalues rational and
distinct (the N-closed sums of eigenlines), and a multiplicity-free slope
normal form (the N-closed sums of blocks: distinct-slope block polynomials
are coprime, and x^h - p^a with gcd(a, h) = 1 is irreducible over Q_p).  A
Q-irreducible factor that splits over Q_p (x^2 - 2 at p = 7) is sampled.
One builder, `_parts_lattice`, takes either list of parts.  Scalar Frobenius
makes every subspace stable (and forces N = 0), so no finite list is
complete; but its flag-adapted chain realizes the extremal degree in every
dimension, which is all the deciders consume, so it is certified too: a
lattice is `certified` when verdicts read off it are proofs.  Everything else
falls back to a sample, fixed by the module, and "uncertified" verdicts,
except that a verified violating subobject always certifies a negative
answer.

The front end runs on Python ints: an enumeration reads the rational roots
of phi's characteristic polynomial, kept by the `PhiModule` as `coeffs`, and
its Newton slopes only if some root is repeated or irrational; the
eigenlines, the parts' N-supports and the sampled closures are computed on
integer rows.  N needs no check here, and t_N(M) no determinant: the module
checks N when built and keeps t_N(M), `tn`.

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
Degrees stay ints.  A decider takes the module alone and its answer depends
on the module alone: the lattice is a function of the module, which keeps
it, so no caller passes one (the `PhiModule` keeps `tn`, `coeffs`,
`slopes` and a lattice that reads only phi and N, the `FilteredPhiModule`
its one lattice, `lattice`, and that lattice's scorer walk, `walk`, set up
when a decider first walks).  `hn_filtration` reads the HN polygon off the
upper concave hull of the largest degree at each rank, with no containment
test but between its steps.  A canonical basis is row-reduced only for what a
call returns or compares: a witness, the first in canonical order among the
violators of least rank, and the elements of largest degree at the hull's
vertices below V.  Every witness and HN step is scored again from the
definition by `sub_invariants` (the restriction matrices of Frobenius and N
and the induced filtration, not the scorer; V against t_H(M) and the
module's t_N(M)), and a disagreement, or a step or witness that phi or N
moves, raises an internal error.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .filtration import HodgeData, induced_on_subspace, t_h
from .isocrystal import PhiModule, dm_blocks, is_dm_normal, t_n
from .base import Dimension, InputError, Record, _vp_int, json_key, lower_hull_vertices, valuation
from .rational import (
    RatMatrix,
    _gauss_jordan,
    _primitive,
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
    rational_roots,
    restriction_matrix,
    rref_rows,
    span_intersect,
    span_leq,
    span_sum,
)

STATUS_TRUE = "certified-true"
STATUS_FALSE = "certified-false"
STATUS_UNCERTIFIED = "uncertified"


class FilteredPhiModule(Record):
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

    @cached_property
    def lattice(self) -> "SubobjectLattice":
        """The deciders' lattice; not a field.

        `enumerate_subobjects` runs once per module: the `PhiModule` keeps
        every lattice but the scalar chain, which reads the flag.
        """
        lattice = self.module.lattice or enumerate_subobjects(self)
        if lattice.strategy != "scalar-chain":
            object.__setattr__(self.module, "lattice", lattice)
        return lattice

    @cached_property
    def walk(self):
        """The `lattice_scorer` walk of `lattice`, set up on first use; not a field."""
        return lattice_scorer(self, self.lattice)

    @classmethod
    def from_obj(cls, obj) -> "FilteredPhiModule":
        module = PhiModule.from_obj(json_key(obj, "module", "filtered module"))
        return cls(module, HodgeData.from_obj(json_key(obj, "hodge", "filtered module")))


class Verdict(Record):
    """Decision with certification status and, when negative, a witness; it
    is about the stable Q_p-subspaces, and a rational witness violates there."""

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


def degree(m: FilteredPhiModule) -> int:
    """deg = t_H - t_N, an int: the module keeps t_N(M) = v_p(det phi), `tn`."""
    return t_h(m.hodge) - m.module.tn


# ---------------------------------------------------------------------------
# subobject enumeration


class SubobjectLattice:
    """The stable subspaces a decider ranges over: its parts and their order.

    Every element is a sum of `parts` (row lists: eigenlines, slope blocks,
    the lines of the flag-adapted chain, or a sample's nonzero elements in
    canonical order), named by the bitmask of its parts.  `order` lists (part,
    requirement mask), each part after the parts it needs; for the eigenlines
    (distinct rational eigenvalues, of any valuations) and the blocks a part
    requires its N-support, which `_parts_lattice` reads off one elimination.
    The elements are the masks holding their parts' requirements, and the
    deciders walk them from there (`lattice_scorer`).  A sample's parts never
    sum (`order` None).  `strategy`: "eigenlines", "blocks", "scalar-chain"
    or "sample".  `certified`, read off it: verdicts read off the family are
    proofs, as it is complete or (the scalar chain) reaches the largest
    degree at every rank; it is then closed under sum and intersection, which
    `hn_filtration` relies on.  `keys` lists the masks on first read;
    `basis(key)` row-reduces an element on first use (a sample's are given).
    """

    def __init__(self, parts, strategy, order):
        self.parts, self.strategy, self.order = parts, strategy, order
        self._built = {}

    @property
    def certified(self) -> bool:
        return self.strategy != "sample"

    @classmethod
    def sample(cls, bases):
        """The lattice of the canonical `bases` (zero and full included), one part each."""
        parts = [b for b in bases if b]
        lattice = cls(parts, "sample", None)
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
            basis = self._built[key] = rref_rows(rows, len(rows[0]) if rows else 0)
            if len(basis) != len(rows):
                raise AssertionError("internal: the lattice parts are not independent")
        return basis


def _n_closed_sums(parts, supports, strategy) -> SubobjectLattice:
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
    return SubobjectLattice(parts, strategy, order)


def _eigenvectors(phi, den: int, r: Fraction) -> list:
    """Int basis of the r-eigenspace, with phi given as `int_matrix` (D*phi, D).

    It is the kernel of D*phi - D*r cleared of its denominator.
    """
    a, b = r.numerator * den, r.denominator  # D*phi - D*r = (b*D*phi - a) / b
    shifted = [[b * x - a * (i == j) for j, x in enumerate(row)] for i, row in enumerate(phi)]
    return int_kernel(shifted, len(phi))


def _parts_lattice(m: PhiModule, parts, strategy) -> SubobjectLattice:
    """Certified lattice of the N-closed sums of `parts`, int row lists forming a basis.

    The N-support of every part is read off the coordinates of the N-images
    of all its rows, solved for at once on integer rows: one elimination of
    [vectors | images], one equation per coordinate, leaves in row i a
    nonzero in the column of image j iff vector i has a nonzero coordinate
    in it.  N = 0 maps every part to zero and needs no elimination.
    """
    n = m.rank
    supports = [0] * len(parts)
    if not m.nilpotent.is_zero():
        nil, _ = int_matrix(m.nilpotent)
        vectors = [v for part in parts for v in part]
        owner = [k for k, part in enumerate(parts) for _ in part]
        columns = vectors + [int_apply(nil, v) for v in vectors]
        rows = [[v[c] for v in columns] for c in range(n)]
        if len(vectors) != n or _gauss_jordan(rows, 2 * n) != list(range(n)):
            raise AssertionError("internal: the lattice parts are not a basis of the module")
        for i, row in enumerate(rows):
            for j in range(n):
                if row[n + j]:
                    supports[owner[j]] |= 1 << owner[i]
    return _n_closed_sums(parts, supports, strategy)


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
    phi = m.module.phi.entries
    if any(x != phi[0][0] if i == j else x for i, r in enumerate(phi) for j, x in enumerate(r)):
        return None  # phi is not a constant times the identity
    m.hodge.require_flag("subobject enumeration")
    n = m.rank
    lines, prev = [], ()
    for _, level in reversed(m.hodge.levels):
        lines.extend([v] for v in complement_basis(prev, level, n))
        prev = level
    return _n_closed_sums(lines, [k and 1 << (k - 1) for k in range(n)], "scalar-chain")


_SAMPLE_SEED = 0  # seed of the sample's random vectors: a verdict depends on the module alone


def _sample_subobjects(m: FilteredPhiModule, roots) -> tuple:
    """A sample of genuinely stable subspaces, the same on every call for a module.

    `roots` are the rational roots of the characteristic polynomial; the
    random vectors come from `_SAMPLE_SEED`.  Every closure is grown on
    integer rows and named by its `int_rref` key; Fractions are built once
    per distinct closure.
    """
    mod = m.module
    n = m.rank
    rng = random.Random(_SAMPLE_SEED)
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
            for c, a in enumerate(v):
                if a:
                    break
            else:
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
    # is the span of the rows of the two `int_rref` keys, each a basis row
    # cleared of its denominators (gcd-primitive with a positive pivot)
    key_of = {b: key for key, b in found.items()}
    singles = [key_of[b] for b in set(found.values()) if b][:10]
    for key1, key2 in itertools.combinations(singles, 2):
        key = int_rref([list(row) for _, row in key1 + key2], n)
        if len(key) < n:
            add(key)
    return tuple(sorted(found.values(), key=lambda b: (len(b), b)))


def enumerate_subobjects(m: FilteredPhiModule) -> SubobjectLattice:
    """All phi- and N-stable subspaces (certified) or a fixed sample of them,
    as a `SubobjectLattice`.

    Its elements always include the zero and full subspaces.  Two recognisers
    feed `_parts_lattice`: simple rational roots of the module's kept
    characteristic polynomial and no other factor give the eigenlines, and
    otherwise a multiplicity-free slope normal form (`is_dm_normal`, distinct
    slopes) gives its coordinate blocks (`dm_blocks`); both read the Newton
    slopes the module keeps.  Scalar Frobenius yields the flag-adapted chain
    (`_scalar_flag_chain`), and anything else a sample.  The roots are found
    once; the Newton slopes are read only when some root is repeated or
    irrational.
    """
    mod, n = m.module, m.rank
    roots, leftover = rational_roots(mod.coeffs)
    if leftover == 0 and all(mult == 1 for _, mult in roots):
        phi, den = int_matrix(mod.phi)
        return _parts_lattice(mod, [_eigenvectors(phi, den, r) for r, _ in roots], "eigenlines")
    if is_dm_normal(mod):
        blocks = dm_blocks(mod)
        if len({s for s, _, _ in blocks}) == len(blocks):  # multiplicity free
            std = [[int(i == j) for j in range(n)] for i in range(n)]
            return _parts_lattice(mod, [std[off : off + size] for _, off, size in blocks], "blocks")
    return _scalar_flag_chain(m) or SubobjectLattice.sample(_sample_subobjects(m, roots))


# ---------------------------------------------------------------------------
# degrees of subobjects and the deciders


def sub_invariants(m: FilteredPhiModule, basis) -> tuple[int, int, Fraction, Fraction]:
    """(rank, t_H, t_N, degree) of the phi- and N-stable subspace spanned by `basis`.

    Scores from the definition: the restriction matrix of Frobenius and the
    induced filtration.  Dependent rows are an input error: phi is invertible
    and the restriction matrix has a zero column at each free row, so its
    determinant is zero exactly then.  A subspace that phi or N moves is an
    input error; N is tested, by its own restriction matrix, only when the
    integer rows that its matrix keeps are not all zero.  The canonical basis
    of V, the identity, is M itself: it scores (n, t_H(M), t_N(M)) with no
    change of basis, t_N(M) being `t_n(m.module)`, which the module keeps.
    V is recognised by comparing its rows, as tuples, with the shared
    `RatMatrix.identity(n)`'s: Fraction, int and bool entries compare alike,
    and the deciders pass those very rows.  The deciders score by
    `lattice_scorer` and re-check with this.
    """
    k = len(basis)
    if k == 0:
        return 0, 0, Fraction(0), Fraction(0)
    if k == m.rank and tuple(map(tuple, basis)) == RatMatrix.identity(k).entries:
        th, tn = t_h(m.hodge), t_n(m.module)
        return k, th, tn, Fraction(th) - tn
    restr = restriction_matrix(m.module.phi, basis)
    if restr is None:
        raise InputError("subspace is not Frobenius-stable")
    det = restr.det()
    if not det:
        raise InputError("subspace basis rows are linearly dependent")
    nil = m.module.nilpotent
    if any(map(any, int_matrix(nil)[0])) and restriction_matrix(nil, basis) is None:
        raise InputError("subspace is not N-stable")
    tn = Fraction(valuation(det, m.module.p))
    th = t_h(induced_on_subspace(m.hodge, basis))
    return k, th, tn, Fraction(th) - tn


def _flag_coordinates(hodge: HodgeData) -> tuple[list, list]:
    """(C, weights): int coordinates adapted to the flag, ascending by weight.

    Nested levels nest their pivots: a level's canonical rows at pivots new to
    it extend those above to a basis B, row i of weight `hodge.weights[i]`.
    One elimination of [B^T | I] leaves in row i of its right half C a nonzero
    multiple of row i of (B^T)^-1: `int_apply(C, v)[i]` is coordinate i of v.
    """
    n = hodge.rank
    found = {}  # pivot column -> int row, by descending weight
    for _, level in hodge.levels[::-1]:  # from the top
        for row in level:
            c = next(c for c, a in enumerate(row) if a)
            if c not in found:
                found[c] = int_row(row)
    rows = [[r[i] for r in reversed(found.values())] + [int(i == t) for t in range(n)]
            for i in range(n)]
    _gauss_jordan(rows, 2 * n)
    return [row[n:] for row in rows], list(hodge.weights)


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
    rank = m.rank  # the walk keeps no reference to m, which keeps the walk

    def walk(cap=None):
        cap = cap or [rank]
        yield 0, (0, 0, 0, 0)
        # (parent mask, rank, t_H, t_N, position of later[0], later, position to add)
        stack = [(0, 0, 0, 0, 0, residues, at) for at in range(count) if not needs[at]]
        while stack:
            mask, k, th, tn, base, later, at = stack.pop()
            new = int_echelon(later[at - base])
            mask, k, tn = mask | bits[at], k + len(new), tn + tns[at]
            for c, _ in new:
                th += weights[c]
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
    """Re-score a returned subspace from the definition; raise on disagreement.

    The subspace is the library's own output, so one that the definition
    rejects (phi or N moves it) is an internal fault too, not an input error."""
    try:
        slow = sub_invariants(m, basis)
    except InputError as exc:
        raise AssertionError(f"internal: the re-check rejects a returned subspace: {exc}") from None
    if slow != fast:
        msg = f"internal: lattice scorer gave {fast} but the definition gives {slow}"
        raise AssertionError(msg)


def _first_violation(m: FilteredPhiModule, bound: int) -> Verdict:
    """First subobject of degree > bound in canonical order, re-checked, as a verdict.

    One walk keeps the violators of the least violating rank found so far and
    pushes no child above it; ranks grow along the walk, so every element up
    to that rank is reached.  Only its violators get a basis."""
    lattice = m.lattice
    cap, bad = [m.rank], []  # the least violating rank so far, and its violators
    for key, inv in m.walk(cap):
        if inv[3] > bound and inv[0] <= cap[0]:
            if inv[0] < cap[0]:
                cap[0], bad = inv[0], []
            bad.append((key, inv))
    if not bad:
        return Verdict(STATUS_TRUE if lattice.certified else STATUS_UNCERTIFIED)
    basis, inv = min((lattice.basis(key), inv) for key, inv in bad)
    _recheck(m, basis, inv)
    return Verdict(STATUS_FALSE, basis)


def is_weakly_admissible(m: FilteredPhiModule) -> Verdict:
    """Degree zero and no positive-degree stable subspace.

    Flag-form Hodge data is required.  The verdict certifies true only on a
    `certified` lattice (a complete enumeration or the scalar chain); a
    verified violating subobject certifies falsity regardless.  The degree
    reads t_N(M) off the module, before the lattice (`m.lattice`) is read.
    """
    if m.rank == 0:
        return Verdict(STATUS_TRUE)
    m.hodge.require_flag("is_weakly_admissible")
    if degree(m) != 0:
        return Verdict(STATUS_FALSE, RatMatrix.identity(m.rank).entries)
    return _first_violation(m, 0)


def is_acyclic(m: FilteredPhiModule) -> Verdict:
    """Every stable subspace has degree at most deg(M).

    Equivalently every quotient has non-negative degree, equivalently the
    minimal Harder-Narasimhan slope is >= 0.  A certified-false witness W
    satisfies deg(M/W) < 0.  deg(M) reads t_N(M) off the module.
    """
    if m.rank == 0:
        return Verdict(STATUS_TRUE)
    m.hodge.require_flag("is_acyclic")
    return _first_violation(m, degree(m))


# ---------------------------------------------------------------------------
# the canonical filtration


class HNStep(Record):
    """One filtration step: cumulative subspace, graded slope/rank/degree."""

    basis: tuple
    slope: Fraction
    rank: int  # cumulative rank of the step subspace
    graded_rank: int
    graded_degree: Fraction


class HNFiltration(Record):
    steps: tuple  # HNStep, graded slopes strictly decreasing
    certified: bool

    def slopes(self) -> list[tuple[Fraction, int]]:
        return [(s.slope, s.graded_rank) for s in self.steps]


def hn_filtration(m: FilteredPhiModule) -> HNFiltration:
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
    The lattice and its walk are the ones the module keeps (`lattice`, `walk`).
    """
    if m.rank == 0:
        return HNFiltration((), True)
    m.hodge.require_flag("hn_filtration")
    lattice = m.lattice
    best = {}  # rank -> [M_r, the (key, invariants) reaching it]
    for key, inv in m.walk():
        top = best.get(inv[0])
        if top is None or inv[3] > top[0]:
            best[inv[0]] = [inv[3], [(key, inv)]]
        elif inv[3] == top[0]:
            top[1].append((key, inv))
    hull = lower_hull_vertices((k, -d) for k, (d, _) in sorted(best.items()))  # P, upside down
    steps, prev, cur_rank, cur_deg = [], (), 0, 0
    for k, _ in hull[1:]:
        d, tied = best[k]
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


class VstResult(Record):
    """Global-sections Dimension of the associated modification."""

    h0: Dimension
    h1_nonvanishing: bool
    certified: bool


def vst_dimension(m: FilteredPhiModule) -> VstResult:
    """Dimension of H^0 of the slope decomposition attached to the module.

    Non-negative graded slopes d/h of rank e*h contribute (e*d, e*h); a
    negative slope makes H^1 nonzero.
    """
    return vst_from_filtration(hn_filtration(m))


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
    afford the drop of one.  Let i0 be the top index where Fil^i0 meets W*:
    one below the index of the level after the top level that meets it.
    The new Fil^i0 is the hyperplane of `_top_hyperplane`, which holds
    Fil^(i0+1) and misses that meet; one exists, since the meet is not
    inside Fil^(i0+1).  That level keeps its indices below i0.
    """
    n, levels = m.rank, m.hodge.levels
    wstar = next((s.basis for s in reversed(filt.steps) if s.slope > 0), ())
    for k in range(len(levels) - 2, -1, -1):
        inter = span_intersect(levels[k][1], wstar, n)
        if inter:
            break
    else:
        raise AssertionError("internal: positive degree but no lowerable jump")
    (start, top), (nxt, protect) = levels[k], levels[k + 1]
    hyper = ((nxt - 1, _top_hyperplane(top, protect, inter, n)),)
    chain = levels[: k + (start < nxt - 1)] + hyper + levels[k + 1 :]  # split if it starts below
    return FilteredPhiModule(m.module, HodgeData._from_chain(chain, n))


def fn4_reduce(m: FilteredPhiModule) -> FilteredPhiModule:
    """Shrink the filtration pointwise until the module is weakly admissible.

    Requires a certified acyclic input, whose degree d is then a
    non-negative integer.  Each of d steps removes one dimension from the top
    jump met by the positive-slope part of the current module's HN
    filtration, which drops the degree by exactly one; that one filtration
    also re-checks that the module it lowers is certified acyclic.  At degree
    zero acyclic means weakly admissible, which is checked last.  Phi never
    changes, so every step shares the module's t_N(M) and the lattice it
    keeps (the scalar chain, which reads the flag, is built per step); the
    input's check and the first filtration, on the same module, share its
    scorer too.
    """
    m.hodge.require_flag("fn4_reduce")  # also at rank 0, where `is_acyclic` needs none
    verdict = is_acyclic(m)
    if verdict.status != STATUS_TRUE:
        raise InputError(f"fn4_reduce needs a certified acyclic module (got {verdict.status})")
    deg = degree(m)
    if deg < 0:
        raise AssertionError(f"internal: a certified acyclic module has degree {deg}")
    cur = m
    for left in range(deg - 1, -1, -1):
        filt = hn_filtration(cur)
        if not filt.certified or filt.steps[-1].slope < 0:
            raise AssertionError(
                "internal: the lowered module is not certified acyclic; this contradicts "
                "the degree-lowering invariant"
            )
        cur = _lower_once(cur, filt)
        if degree(cur) != left:
            raise AssertionError("internal: a lowering step did not drop the degree by one")
    final = is_weakly_admissible(cur)
    if final.status != STATUS_TRUE:  # pragma: no cover
        raise AssertionError("internal: lowered module failed the admissibility check")
    levels = cur.hodge.levels  # each against m at its top index, where m is least
    for (_, level), (nxt, _) in zip(levels, levels[1:]):
        if not span_leq(level, m.hodge.subspace_at(nxt - 1)):  # pragma: no cover
            raise AssertionError("internal: lowered filtration escaped the original")
    return cur
