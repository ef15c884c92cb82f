"""Hodge-side data: weight multisets and explicit flags of rational subspaces.

A descending filtration with finite support is stored either as its integer
weight multiset or as a flag: pairs (index, basis) with strictly increasing
indices, meaning Fil^j is the ambient space below the first listed index,
span(basis of the last entry with index <= j) in between, and zero above the
last listed index.  Weight i then has multiplicity dim Fil^i - dim Fil^{i+1}.

A flag is kept as its levels: the pairs (j, Fil^j) at the indices j where
the filtration changes, from the ambient space at lo (the rows of
`RatMatrix.identity`) to zero at hi, with canonical (RREF) bases, so two
presentations of the same filtration compare equal.  The dense window, one
entry per index strictly between lo and hi, is laid out only for output; a
window wider than `FLAG_MAX_SPAN` indices is an input error.

Weight-only data suffices for slope bookkeeping; subobject tests need a flag
and reject weights-only input with `FlagRequiredError`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

from .base import (FlagRequiredError, InputError, RatMemo, Record, is_row_list, json_either,
                   json_int, json_key, json_list, rat_str)
from .rational import _ZERO, RatMatrix, _gauss_jordan, _normalized, _rat_rows, int_residue, int_row

KIND_WEIGHTS = "weights"
KIND_FLAG = "flag"
FLAG_MAX_SPAN = 1000  # indices in the jump window of a flag; one dense entry each

_STR_ONLY = frozenset((str,))


def _int_row(row, memo: RatMemo, seen: dict) -> list:
    """The integer row of an outside flag row; a row of exact strings is
    looked up in `seen` first, and kept there."""
    if {*map(type, row)} != _STR_ONLY:
        return int_row(memo.row(row))
    key = tuple(row)
    out = seen.get(key)
    if out is None:
        out = seen[key] = int_row(memo.row(key))
    return out


class HodgeData(Record):
    """Weight multiset or full flag presentation of a Hodge filtration: its
    `weights` and, for a flag, its `levels`; `kind` and `rank` are read off them."""

    weights: tuple  # sorted tuple of ints (always derivable)
    levels: Optional[tuple] = None  # canonical ((index, basis-rows), ...), ambient to zero

    @property
    def kind(self) -> str:  # a flag exactly when the levels are kept
        return KIND_WEIGHTS if self.levels is None else KIND_FLAG

    @property
    def rank(self) -> int:
        return len(self.weights)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_weights(cls, weights: Sequence[int]) -> "HodgeData":
        if not isinstance(weights, (list, tuple)):
            raise InputError(f"Hodge weights must be a list of integers, got {weights!r}")
        ws = [json_int(w, "Hodge weights") for w in weights]
        return cls(tuple(sorted(ws)))

    @classmethod
    def from_flag(cls, entries, rank: Optional[int] = None) -> "HodgeData":
        """Build from outside (index, basis) pairs and an optional non-negative
        int `rank` (else the rows' length), each checked; see the module docstring.

        Each distinct entry string is read once and each distinct row of
        strings made an integer row once, however many entries repeat it.
        Each entry, in index order, is row-reduced once on integer rows: its
        canonical basis is that echelon's rows divided by their pivots, and
        it is nested in the entry before when each of its echelon rows leaves
        a zero residue modulo the echelon before.  A nested entry of the same
        dimension as the one before is the same subspace and shares its basis.
        """
        if rank is not None:
            json_int(rank, "flag ranks", 0)
        memo, seen = RatMemo(), {}
        norm = []
        ncols = rank
        for idx, basis in entries:
            json_int(idx, "flag indices")
            if not is_row_list(basis):
                raise InputError("flag bases must be lists of row lists")
            rows = [_int_row(row, memo, seen) for row in basis]
            for row in rows:
                if ncols is None:
                    ncols = len(row)
                elif len(row) != ncols:
                    raise InputError("flag basis rows have inconsistent length")
            norm.append((idx, rows))
        if ncols is None:
            raise InputError("flag rank cannot be inferred; pass rank explicitly")
        if ncols == 0:
            return cls((), ())
        norm.sort(key=lambda t: t[0])
        for (i1, _), (i2, _) in zip(norm, norm[1:]):
            if i1 == i2:
                raise InputError(f"duplicate flag index {i1}")
        if not norm:
            raise InputError("a flag on a nonzero space needs at least one entry")
        raw, prev, basis = [], None, RatMatrix.identity(ncols).entries
        for idx, rows in norm:
            rows = [row.copy() for row in rows]  # the int rows may be shared
            echelon = list(zip(_gauss_jordan(rows, ncols), rows))
            if prev is not None and any(any(int_residue(row, prev)) for _, row in echelon):
                raise InputError("flag subspaces must be nested")
            if len(echelon) != len(basis):  # else the subspace of the entry before
                basis = tuple(_normalized(row, c) for c, row in echelon)
            raw.append((idx, basis))
            prev = echelon
        return cls._from_chain(raw, ncols)

    @classmethod
    def _from_chain(cls, entries, rank: int) -> "HodgeData":
        """Levels and weights from checked (index, basis) entries.

        The entries are sorted by index, their bases canonical (RREF) and
        nested, read as in the module docstring; none of that is checked
        here.  An entry of the same dimension as the one before is dropped,
        and the ambient level goes at lo = min(first proper index, hi - 1) - 1,
        so the dense window lo < j < hi is never empty.
        """
        if rank == 0:
            return cls((), ())
        levels, dim = [], rank
        for idx, basis in entries:
            if len(basis) != dim:
                levels.append((idx, basis))
                dim = len(basis)
        if dim:
            levels.append((entries[-1][0] + 1, ()))
        hi = levels[-1][0]
        lo = min(levels[0][0], hi - 1) - 1
        if hi - lo - 2 >= FLAG_MAX_SPAN:
            msg = f"flag jump window {lo + 1}..{hi - 1} spans over {FLAG_MAX_SPAN} indices"
            raise InputError(msg)
        levels.insert(0, (lo, RatMatrix.identity(rank).entries))
        # weight j - 1 has multiplicity dim Fil^(j-1) - dim Fil^j, j a level past lo
        drops = zip(levels, levels[1:])
        weights = tuple(j - 1 for (_, a), (j, b) in drops for _ in range(len(a) - len(b)))
        return cls(weights, tuple(levels))

    # -- flag access ---------------------------------------------------------

    def require_flag(self, what: str = "this operation"):
        if self.levels is None:
            raise FlagRequiredError(f"{what} requires flag-form Hodge data, got weights only")

    def subspace_at(self, j: int) -> tuple:
        """Canonical basis of Fil^j (flag form only)."""
        self.require_flag("subspace_at")
        k = bisect_right(self.levels, j, key=itemgetter(0))
        return self.levels[k - 1][1] if k else RatMatrix.identity(self.rank).entries

    def support(self) -> tuple[int, int]:
        """(lo, hi) with Fil^lo ambient and Fil^hi zero."""
        if self.levels is not None:
            return (self.levels[0][0], self.levels[-1][0]) if self.levels else (0, 0)
        if not self.weights:
            return (0, 0)
        return (min(self.weights), max(self.weights) + 1)

    @cached_property
    def flag(self) -> Optional[tuple]:
        """Dense flag ((j, Fil^j) for lo < j < hi), as `to_obj` writes it; None for weights."""
        if self.levels is None:
            return None
        lo, hi = self.support()
        return tuple((j, self.subspace_at(j)) for j in range(lo + 1, hi))

    # -- serialization -------------------------------------------------------

    def to_obj(self):
        if self.levels is None:
            return {"weights": list(self.weights)}
        return {
            "flag": [
                {"index": idx, "basis": [[rat_str(x) for x in row] for row in basis]}
                for idx, basis in self.flag
            ],
            "rank": self.rank,
        }

    @classmethod
    def from_obj(cls, obj) -> "HodgeData":
        given = json_either(obj, "HodgeData", "weights", "flag")
        if given == "weights":
            h = cls.from_weights(obj["weights"])
            rank = json_int(json_key(obj, "rank", "HodgeData", h.rank), "Hodge ranks")
            if rank != h.rank:
                raise InputError(f"HodgeData rank {rank} != number of weights {h.rank}")
            return h
        if given == "flag":
            entries = [(json_key(e, "index", "flag entry"), json_key(e, "basis", "flag entry"))
                       for e in json_list(obj, "flag", "HodgeData")]
            return cls.from_flag(entries, rank=obj.get("rank"))
        raise InputError("HodgeData JSON needs 'weights' or 'flag'")


def adapted_basis(h: HodgeData) -> list:
    """Int rows adapted to the flag, from the top level down: nested levels
    nest their pivots, so each level's canonical rows at pivots new to it
    extend the rows above to a basis of it, and the first dim Fil^j rows span
    Fil^j.  Row k has weight `h.weights[-1 - k]`.  Flag form only."""
    h.require_flag("adapted_basis")
    found = {}  # pivot column -> the first row with it, from the top level
    for row in (row for _, level in h.levels[::-1] for row in level):
        found.setdefault(next(c for c, a in enumerate(row) if a), row)
    return [int_row(row) for row in found.values()]


def t_h(h: HodgeData) -> int:
    """Multiplicity-weighted weight sum: sum of i * dim gr^i."""
    return sum(h.weights)


def dual_hodge(h: HodgeData) -> HodgeData:
    """Dual filtration: level i of the dual is the annihilator of Fil^{1-i}.

    The index shift makes the jump bookkeeping come out right: weight w of h
    becomes weight -w of the dual, so t_h negates and double duals return the
    original.  (This is the convention under which weak admissibility is
    stable under duality.)  A level Fil^j that holds up to index j' - 1, j'
    the next level's index, gives the dual its annihilator from index 2 - j'
    on: one annihilator per level but the zero one, whose annihilator is the
    ambient space the dual starts with.
    """
    if h.levels is None:
        return HodgeData.from_weights([-w for w in h.weights])
    chain = [(2 - nxt, _annihilator(b, h.rank)) for (_, b), (nxt, _) in zip(h.levels, h.levels[1:])]
    return HodgeData._from_chain(chain[::-1], h.rank)


def _annihilator(basis, n: int) -> tuple:
    if not basis:
        return RatMatrix.identity(n).entries
    return RatMatrix(list(basis)).nullspace()


def shift(h: HodgeData, r: int) -> HodgeData:
    """Shift every weight / jump index up by r."""
    json_int(r, "shift amounts")
    if h.levels is None:
        return HodgeData.from_weights([w + r for w in h.weights])
    return HodgeData._from_chain([(idx + r, basis) for idx, basis in h.levels], h.rank)


def induced_on_subspace(h: HodgeData, subspace: Sequence) -> HodgeData:
    """Filtration Fil^i intersect W, rewritten on W, with recomputed jumps.

    Requires flag form; the subspace W is spanned by the given row vectors of
    the ambient space.  The result is flag-form of rank dim(W), in the
    coordinates of W's canonical (RREF) basis.

    W is row-reduced once, to int rows w_i = d_i * (RREF row i).  The meets
    with the levels, from the ambient one at lo to zero at hi, are passed to
    the flag builder as they come, canonical and nested.  Each proper level
    [f] is met with W by one elimination of the rows [w_i | e_i] over
    [f | 0]: its rows with a pivot past column n have a zero left half, and
    their right halves a, for which sum a_i w_i lies in Fil^j, span Fil^j & W.
    In RREF coordinates such a vector is (a_i d_i), so each of those rows,
    rescaled and divided by its pivot entry, is a row of the canonical basis
    of the meet.
    """
    h.require_flag("induced_on_subspace")
    n = h.rank
    w = [int_row(v) for v in _rat_rows(subspace, n)]
    pivots = _gauss_jordan(w, n)
    k = len(pivots)
    if k == 0:
        return HodgeData((), ())
    scales = [row[c] for row, c in zip(w, pivots)]
    tagged = [row + [int(i == t) for t in range(k)] for i, row in enumerate(w[:k])]
    pad = [0] * k

    def meet(level) -> tuple:
        if len(level) == n:
            return RatMatrix.identity(k).entries
        if not level:
            return ()
        rows = tagged + [int_row(f) + pad for f in level]
        out = []
        for row, c in zip(rows, _gauss_jordan(rows, n + k)):
            if c >= n:
                a, pv = row[n:], row[c] * scales[c - n]
                out.append(tuple(Fraction(x * d, pv) if x else _ZERO for x, d in zip(a, scales)))
        return tuple(out)

    return HodgeData._from_chain([(j, meet(level)) for j, level in h.levels], k)
