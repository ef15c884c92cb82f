"""Consistency battery for synthetic two-degree cohomology data.

Input is a twist level r plus, for degrees r-1 and r, a Frobenius module
(slopes within [0, i]) and a lattice position encoded by Hodge weights within
[0, i].  Four verdicts about the associated square are computed along
independent routes and must agree:

  a       both degrees yield a modification with vanishing H^1
          (bundle route: build the sheaf, read its cohomology),
  b_rm1   the degree r-1 pair is acyclic (subobject route),
  b_r     the degree r pair is acyclic (subobject route),
  cprime  the kernel and cokernel of the comparison map have height zero
          (height bookkeeping route),
  d       the computed height of the degree-r gluing equals the de Rham
          dimension (total height route).

The verdicts stay separate per route, but in `battery` each degree builds
its HN filtration once, on the lattice and scorer that its `is_acyclic` left
on the module, and the modification and the height count are both read off
that filtration.

`dichotomy` classifies a single pair as "surjective" (vanishing H^1) or
"positive-height-image" with the height deficit; exactly one branch fires.

`mv_check` certifies the height equality at index 3r of two aligned exact
rows via de-Rham-valued Hom-rank bookkeeping, given equal heights everywhere
else in the window and non-positive curvature.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .base import InputError, Record, json_either, json_int, json_key, json_list, json_object

# `bc`, `filtration`, `hn`, `isocrystal` and `sheaf` are imported by the
# functions that use them, so that `mv_check`, which needs only `bc`, loads
# none of the others, and `battery` and `dichotomy` do not load `bc`
if TYPE_CHECKING:
    from .filtration import HodgeData
    from .hn import FilteredPhiModule, HNFiltration, Verdict
    from .isocrystal import PhiModule
    from .sheaf import FFSheaf


def _check_windows(hk: PhiModule, lattice: HodgeData, bound: int, what: str) -> None:
    """Check ranks, slopes and weights, in that order.

    These follow the checks `PhiModule` made when hk was built (shapes, phi
    invertible, N).  The slopes are hk's kept Newton slopes, taken here once
    per module object; a later enumeration of hk reads the same value.
    """
    from .isocrystal import newton_slopes

    if hk.rank != lattice.rank:
        raise InputError(f"{what}: module rank {hk.rank} != lattice rank {lattice.rank}")
    for s, _ in newton_slopes(hk):
        if s < 0 or s > bound:
            raise InputError(f"{what}: slope {s} outside [0, {bound}]")
    for w in lattice.weights:
        if w < 0 or w > bound:
            raise InputError(f"{what}: weight {w} outside [0, {bound}]")


class SyntheticCohomology(Record):
    """Per-degree Frobenius/lattice data for degrees r-1 and r."""

    r: int
    top: FilteredPhiModule  # degree r
    below: FilteredPhiModule  # degree r-1; rank zero when absent

    def __post_init__(self):
        json_int(self.r, "degrees r", 0)
        _check_windows(self.top.module, self.top.hodge, self.r, "degree r")
        _check_windows(self.below.module, self.below.hodge, max(self.r - 1, 0), "degree r-1")

    @classmethod
    def build(cls, r: int, top: FilteredPhiModule, below: Optional[FilteredPhiModule] = None):
        if below is None:
            from . import filtration, hn, isocrystal

            p = top.module.p
            below = hn.FilteredPhiModule(
                isocrystal.PhiModule.zero(p), filtration.HodgeData.from_weights([])
            )
        return cls(r, top, below)

    def to_obj(self):
        def pair(m):
            return {"hk": m.module.to_obj(), "lattice": m.hodge.to_obj()}

        return {
            "r": self.r,
            "degrees": {"r": pair(self.top), "r-1": pair(self.below)},
        }

    @staticmethod
    def _pair_from_obj(obj) -> FilteredPhiModule:
        from . import filtration, hn, isocrystal

        given = {json_either(obj, "degree entry", "hk", "module"),
                 json_either(obj, "degree entry", "lattice", "hodge")}
        if given & {"hk", "lattice"}:
            return hn.FilteredPhiModule(
                isocrystal.PhiModule.from_obj(json_key(obj, "hk", "degree entry")),
                filtration.HodgeData.from_obj(json_key(obj, "lattice", "degree entry")),
            )
        return hn.FilteredPhiModule.from_obj(obj)

    @classmethod
    def from_obj(cls, obj) -> "SyntheticCohomology":
        r = json_key(obj, "r", "synthetic data")
        degrees = json_key(obj, "degrees", "synthetic data")
        top = cls._pair_from_obj(json_key(degrees, "r", "degrees"))
        below = json_key(degrees, "r-1", "degrees", None)
        return cls.build(r, top, below if below is None else cls._pair_from_obj(below))


class Modification(Record):
    """Bundle attached to a pair, in classification normal form."""

    sheaf: FFSheaf
    certified: bool


def build_modification(hk: PhiModule, lattice: HodgeData, r: int) -> Modification:
    """Sheaf whose slopes are the filtration-graded slopes of (hk, lattice).

    The windows are checked first, then `hn_filtration` requires the flag;
    the window check and the enumeration share hk's Newton slopes, which the
    module keeps.
    """
    from . import hn

    json_int(r, "degrees r", 0)
    _check_windows(hk, lattice, r, "modification input")
    return modification_from_filtration(hn.hn_filtration(hn.FilteredPhiModule(hk, lattice)))


def modification_from_filtration(filt: HNFiltration) -> Modification:
    """`build_modification` read off a pair's HN filtration."""
    from .sheaf import canonicalize

    return Modification(canonicalize((s.slope, s.graded_rank) for s in filt.steps), filt.certified)


class DichotomyResult(Record):
    branch: str  # "surjective" | "positive-height-image"
    deficit: int  # height deficit of the image; 0 on the surjective branch
    certified: bool


def dichotomy(hk: PhiModule, lattice: HodgeData, r: int) -> DichotomyResult:
    """Exhaustive-and-exclusive classification of a single pair.

    "surjective" exactly when the modification has vanishing H^1; otherwise
    the image misses a positive height, reported as the deficit (the rank of
    the negative-slope part).  hk keeps its characteristic polynomial and
    its Newton slopes, so the window check takes the Newton polygon once and
    an enumeration that reads slope blocks, or a repeated call, reuses it.
    """
    from .sheaf import cohomology_dim

    mod = build_modification(hk, lattice, r)
    coh = cohomology_dim(mod.sheaf)
    if not coh.h1.quotient_type:
        return DichotomyResult("surjective", 0, mod.certified)
    return DichotomyResult("positive-height-image", coh.h1.ht, mod.certified)


class BatteryReport(Record):
    verdict_a: Verdict
    verdict_b_rm1: Verdict
    verdict_b_r: Verdict
    verdict_cprime: Verdict
    verdict_d: Verdict
    consistent: bool
    certified: bool
    ht_glued: int
    dim_de_rham: int

    def verdicts(self):
        return {f: getattr(self, f) for f in self._fields if f.startswith("verdict_")}


def _status(flag: bool, certified: bool, witness: tuple) -> Verdict:
    from . import hn

    if not certified:
        return hn.Verdict(hn.STATUS_UNCERTIFIED)
    if flag:
        return hn.Verdict(hn.STATUS_TRUE)
    return hn.Verdict(hn.STATUS_FALSE, witness)


def battery(s: SyntheticCohomology) -> BatteryReport:
    """Compute all verdicts along independent routes and compare them.

    Uncertified sub-results mark the affected verdicts (and the report)
    uncertified rather than guessing; `consistent` compares the certified
    verdicts only.  Each degree builds its HN filtration once, after its
    acyclicity verdict and on the lattice and scorer that the module keeps
    (a degree of rank zero has neither: both deciders answer it at once); the
    modification and the height count come from that filtration.  The
    windows `build_modification` checks are not checked again:
    `SyntheticCohomology` enforced stricter ones at construction.
    """
    from . import hn
    from .sheaf import cohomology_dim

    acyc, mods, vst = {}, {}, {}
    for tag, m in (("r-1", s.below), ("r", s.top)):
        acyc[tag], filt = hn.is_acyclic(m), hn.hn_filtration(m)
        mods[tag], vst[tag] = modification_from_filtration(filt), hn.vst_from_filtration(filt)
    acyc_rm1, acyc_r = acyc["r-1"], acyc["r"]
    h1_rm1 = cohomology_dim(mods["r-1"].sheaf).h1
    h1_r = cohomology_dim(mods["r"].sheaf).h1
    cert = mods["r-1"].certified and mods["r"].certified  # both filtrations
    a_true = not h1_rm1.quotient_type and not h1_r.quotient_type
    a_witness = (acyc_rm1.witness if h1_rm1.quotient_type else acyc_r.witness) or ()

    ht0_rm1, ht0_r = vst["r-1"].h0.ht, vst["r"].h0.ht
    rank_rm1, rank_r = s.below.rank, s.top.rank

    ker_ht = ht0_rm1 - rank_rm1  # height of the comparison kernel
    coker_ht = rank_r - ht0_r  # height of the comparison cokernel
    c_true = ker_ht == 0 and coker_ht == 0
    c_witness = (acyc_rm1.witness if ker_ht != 0 else acyc_r.witness) or ()

    ht_glued = ht0_r - (rank_rm1 - ht0_rm1)
    d_true = ht_glued == rank_r
    d_witness = (acyc_r.witness if coker_ht != 0 else acyc_rm1.witness) or ()

    verdict_a = _status(a_true, cert, a_witness)
    verdict_cprime = _status(c_true, cert, c_witness)
    verdict_d = _status(d_true, cert, d_witness)

    # the acyclicity statement is the conjunction of the per-degree verdicts
    if hn.STATUS_FALSE in (acyc_rm1.status, acyc_r.status):
        b_statement = hn.Verdict(hn.STATUS_FALSE, (acyc_rm1.witness or acyc_r.witness) or ())
    elif acyc_rm1.is_true and acyc_r.is_true:
        b_statement = hn.Verdict(hn.STATUS_TRUE)
    else:
        b_statement = hn.Verdict(hn.STATUS_UNCERTIFIED)
    statements = (verdict_a, b_statement, verdict_cprime, verdict_d)
    votes = [v.is_true for v in statements if v.certified]
    consistent = len(set(votes)) <= 1
    certified = all(v.certified for v in statements) and acyc_rm1.certified and acyc_r.certified
    return BatteryReport(
        verdict_a,
        acyc_rm1,
        acyc_r,
        verdict_cprime,
        verdict_d,
        consistent,
        certified,
        ht_glued,
        rank_r,
    )


# ---------------------------------------------------------------------------
# aligned-rows height bookkeeping


class MVReport(Record):
    equal: Optional[bool]
    value: Optional[int]
    violations: tuple
    certified: bool


def _parse_row(obj, tag: str):
    from .bc import BCObject, QBCObject, parse_formal

    what = f"row {tag}"
    objects, arrows = json_list(obj, "objects", what), json_list(obj, "arrows", what)
    built = (BCObject, QBCObject)  # as the library API passes them
    return [o if isinstance(o, built) else parse_formal(json_object(o, f"{what} object"))
            for o in objects], arrows


def mv_check(row_a, row_b, r: int) -> MVReport:
    """Certify equal heights at index 3r of two aligned exact rows.

    Hypotheses checked per index: equal heights away from 3r, non-positive
    curvature (needed for the Hom-rank bookkeeping), and declared exactness
    of both rows.  When they hold, the telescoped image heights computed via
    `height_functor_rank` from both ends force the equality; the common value
    is reported.
    """
    from .bc import check_exact, curvature_nonpositive, dimension, height_functor_rank

    json_int(r, "degrees r", 0)
    a_objs, a_arrows = _parse_row(row_a, "A")
    b_objs, b_arrows = _parse_row(row_b, "B")
    violations = []
    if len(a_objs) != len(b_objs):
        raise InputError("rows must have equal length")
    n = len(a_objs)
    mid = 3 * r
    if mid >= n:
        raise InputError(f"rows too short: index {mid} not present in rows of length {n}")
    for k in range(n):
        if k != mid and dimension(a_objs[k]).ht != dimension(b_objs[k]).ht:
            violations.append(f"ht(A_{k}) != ht(B_{k})")
    for tag, objs in (("A", a_objs), ("B", b_objs)):
        for k, w in enumerate(objs):
            if not curvature_nonpositive(w):
                violations.append(f"{tag}_{k} has positive-curvature part")
    for tag, objs, arrows in (("A", a_objs, a_arrows), ("B", b_objs, b_arrows)):
        try:
            if not check_exact(objs, arrows):
                violations.append(f"row {tag} fails declared exactness")
        except InputError as exc:
            violations.append(f"row {tag}: {exc}")
    if violations:
        return MVReport(None, None, tuple(violations), False)

    def derived_height(objs) -> int:
        left = 0
        for k in range(mid):
            left = height_functor_rank(objs[k]).value - left
        right = 0
        for k in range(n - 1, mid, -1):
            right = height_functor_rank(objs[k]).value - right
        return left + right

    da, db = derived_height(a_objs), derived_height(b_objs)
    ok = da == db == dimension(a_objs[mid]).ht == dimension(b_objs[mid]).ht
    return MVReport(ok, da if ok else None, (), ok)
