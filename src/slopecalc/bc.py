"""Formal finite-dimensional objects: split normal forms and exact bookkeeping.

Objects here are purely formal: a direct sum of stable pieces tagged

  Ueff(d, h)   effective piece of Dimension (d, h), d >= 1, h >= 1, gcd = 1
  Uquot(d, h)  quotient-type piece of Dimension (d, -h), d >= 1, h >= 1, gcd = 1
  Tors(x, m)   torsion module of length m at a labeled point, Dimension (m, 0)
  Qp(n)        etale piece of Dimension (0, n)

with "infty" the distinguished point label.  Morphisms are never represented;
exactness is declared kernel/image Dimension data that `check_exact` validates
for additivity.  A quasi object adds a torsion core whose height is ignored.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .base import (
    INFTY,
    ZERO_DIM,
    Dimension,
    InputError,
    Record,
    json_either,
    json_int,
    json_key,
    json_list,
    torsion_entry,
    torsion_from_obj,
    torsion_normal_form,
)

NEG_INFINITY = -math.inf


def _check_pair(d: int, h: int, tag: str):
    json_int(d, f"{tag} parameters")
    json_int(h, f"{tag} parameters")
    if d < 1 or h < 1:
        raise InputError(f"{tag}({d},{h}) needs d >= 1 and h >= 1")
    if math.gcd(d, h) != 1:
        raise InputError(f"{tag}({d},{h}) must be in lowest terms")


class BCObject(Record):
    """Split normal form: sorted piece data, canonical under direct sum."""

    ueff: tuple = ()  # ((d, h, copies), ...) sorted by slope d/h then h
    uquot: tuple = ()
    torsion: tuple = ()  # ((point, (lengths desc...)), ...) sorted by point
    qp: int = 0

    def __post_init__(self):
        for d, h, c in self.ueff:
            _check_pair(d, h, "Ueff")
            json_int(c, "piece copies", 1)
        for d, h, c in self.uquot:
            _check_pair(d, h, "Uquot")
            json_int(c, "piece copies", 1)
        for entry in self.torsion:
            torsion_entry(entry)
        json_int(self.qp, "qp multiplicities", 0)

    # -- constructors --------------------------------------------------------

    @classmethod
    def build(cls, ueff=(), uquot=(), torsion=(), qp=0) -> "BCObject":
        """Canonicalize raw piece data (merging duplicates, sorting)."""

        def merge(pairs, tag):
            acc: dict[tuple[int, int], int] = {}
            for d, h, c in pairs:
                _check_pair(d, h, tag)  # before the slope d/h is formed for sorting
                json_int(c, "piece copies", 1)  # before the sum: True reads as 1, a -1 is absorbed
                acc[(d, h)] = acc.get((d, h), 0) + c
            return tuple(
                (d, h, c)
                for (d, h), c in sorted(acc.items(), key=lambda t: (Fraction(t[0][0], t[0][1]), t[0][1]))
            )

        tors = torsion_normal_form(torsion)
        return cls(merge(ueff, "Ueff"), merge(uquot, "Uquot"), tors, qp)

    @classmethod
    def zero(cls) -> "BCObject":
        return cls()

    def is_zero(self) -> bool:
        return not self.ueff and not self.uquot and not self.torsion and self.qp == 0

    def direct_sum(self, other: "BCObject") -> "BCObject":
        return BCObject.build(
            self.ueff + other.ueff,
            self.uquot + other.uquot,
            self.torsion + other.torsion,
            self.qp + other.qp,
        )

    # -- serialization -------------------------------------------------------

    def to_obj(self):
        out = []
        for d, h, c in self.ueff:
            out.append({"type": "Ueff", "d": d, "h": h, "copies": c})
        for d, h, c in self.uquot:
            out.append({"type": "Uquot", "d": d, "h": h, "copies": c})
        for point, lengths in self.torsion:
            out.append({"type": "Tors", "point": point, "lengths": list(lengths)})
        if self.qp:
            out.append({"type": "Qp", "n": self.qp})
        return {"summands": out}

    @classmethod
    def from_obj(cls, obj) -> "BCObject":
        ueff, uquot, torsion, qp = [], [], [], 0
        for s in json_list(obj, "summands", "BC"):
            t = json_key(s, "type", "summand")
            if t in ("Ueff", "Uquot"):  # `build` checks the integers
                d, h = json_key(s, "d", "summand"), json_key(s, "h", "summand")
                (ueff if t == "Ueff" else uquot).append((d, h, json_key(s, "copies", "summand", 1)))
            elif t == "Tors":
                torsion.append(torsion_from_obj(s, "summand"))
            elif t == "Qp":
                # checked before the sum, which a negative n would cancel into
                qp += json_int(s.get("n", 1), "qp multiplicities", 0)
            else:
                raise InputError(f"unknown summand tag {t!r}")
        return cls.build(ueff, uquot, torsion, qp)


class QBCObject(Record):
    """Extension of a split object by a torsion core; height ignores the core."""

    torsion_core: tuple  # lengths, sorted descending
    quotient: BCObject

    def __post_init__(self):
        for m in self.torsion_core:
            json_int(m, "torsion core lengths", 1)

    @classmethod
    def build(cls, core: Iterable[int], quotient: BCObject) -> "QBCObject":
        return cls(tuple(sorted(core, reverse=True)), quotient)

    @classmethod
    def from_obj(cls, obj) -> "QBCObject":
        quotient = json_key(obj, "quotient", "quasi object")
        core = json_list(obj, "torsion_core", "quasi object", [])
        core = [json_int(m, "torsion core lengths") for m in core]
        return cls.build(core, BCObject.from_obj(quotient))


Formal = Union[BCObject, QBCObject]


def parse_formal(obj) -> Formal:
    if json_either(obj, "BC", "quotient", "summands") == "quotient":
        return QBCObject.from_obj(obj)
    return BCObject.from_obj(obj)


def dimension(w: Formal) -> Dimension:
    """Componentwise Dimension; for quasi objects the height of the quotient only."""
    dim = 0
    if isinstance(w, QBCObject):
        dim, w = sum(w.torsion_core), w.quotient
    ht = w.qp
    for d, h, c in w.ueff:
        dim, ht = dim + c * d, ht + c * h
    for d, h, c in w.uquot:
        dim, ht = dim + c * d, ht - c * h
    for _, lengths in w.torsion:
        dim += sum(lengths)
    return Dimension(dim, ht)


def hn_slopes(w: BCObject) -> list:
    """Slopes with multiplicities, one entry per stable summand, ascending.

    Effective pieces (d, h) have slope -h/d, quotient-type pieces h/d, torsion
    slope 0, and etale pieces slope -infinity (reported first).
    """
    if not isinstance(w, BCObject):
        raise InputError("hn_slopes takes a split BC object")
    acc: dict = {}

    def add(slope, mult):
        acc[slope] = acc.get(slope, 0) + mult

    if w.qp:
        add(NEG_INFINITY, w.qp)
    for d, h, c in w.ueff:
        add(Fraction(-h, d), c)
    for _, lengths in w.torsion:
        add(Fraction(0), len(lengths))
    for d, h, c in w.uquot:
        add(Fraction(h, d), c)
    return sorted(acc.items(), key=lambda t: t[0])


def canonical_filtration(w: BCObject) -> tuple[BCObject, BCObject, BCObject]:
    """Curvature-sign decomposition (positive, zero, negative part).

    Quotient-type pieces and torsion away from infty form the positive part,
    torsion at infty the zero part, effective and etale pieces the negative
    part.
    """
    if not isinstance(w, BCObject):
        raise InputError("canonical_filtration takes a split BC object")
    away = tuple((pt, ls) for pt, ls in w.torsion if pt != INFTY)
    at = tuple((pt, ls) for pt, ls in w.torsion if pt == INFTY)
    gt0 = BCObject.build(uquot=w.uquot, torsion=away)
    eq0 = BCObject.build(torsion=at)
    lt0 = BCObject.build(ueff=w.ueff, qp=w.qp)
    return gt0, eq0, lt0


def curvature_nonpositive(w: Formal) -> bool:
    """No positive-curvature part: no quotient pieces, no torsion away from infty.

    That is `canonical_filtration(w)[0].is_zero()` (of the quotient, for a
    quasi object), read off the normal form without building the parts.
    """
    if isinstance(w, QBCObject):
        return curvature_nonpositive(w.quotient)
    if not isinstance(w, BCObject):
        raise InputError("curvature_nonpositive takes a formal BC object")
    return not w.uquot and all(pt == INFTY for pt, _ in w.torsion)


# ---------------------------------------------------------------------------
# declared-exactness bookkeeping


def _is_injection_into_infty_torsion(source: Formal, target: Formal) -> bool:
    if not isinstance(source, BCObject) or not isinstance(target, BCObject):
        return False
    if target.is_zero() or target.ueff or target.uquot or target.qp:
        return False
    if any(pt != INFTY for pt, _ in target.torsion):
        return False
    return not source.torsion and not source.uquot


def check_exact(sequence: Sequence[Formal], arrows: Sequence[dict]) -> bool:
    """Validate a declared complex 0 -> W_1 -> ... -> W_n -> 0.

    `arrows[i]` declares {'ker': Dimension, 'im': Dimension} for the map
    W_{i+1} -> W_{i+2}.  Returns True iff Dimension additivity holds at every
    node: each source splits as Ker + Im, consecutive Ker = previous Im, the
    first kernel is zero and the last image fills the final object.  Declared
    sub/quotient data of plain split objects must also satisfy the sign rule
    (dim 0 forces ht >= 0), and a declared injection of effective pieces into
    torsion at infty must satisfy h > d per piece.

    Malformed declarations (wrong arity, negative dims) raise InputError;
    genuine additivity failures return False.
    """
    seq = list(sequence)
    if len(seq) < 1:
        raise InputError("check_exact needs at least one object")
    if len(arrows) != max(len(seq) - 1, 0):
        raise InputError(f"expected {len(seq) - 1} arrows, got {len(arrows)}")
    kers, ims = [], []
    for a in arrows:
        k, i = json_key(a, "ker", "arrow"), json_key(a, "im", "arrow")
        k = k if isinstance(k, Dimension) else Dimension.from_obj(k)
        i = i if isinstance(i, Dimension) else Dimension.from_obj(i)
        if k.dim < 0 or i.dim < 0:
            raise InputError("declared kernel/image dims must be non-negative")
        kers.append(k)
        ims.append(i)
    dims = [dimension(w) for w in seq]

    def bs1_ok(piece: Dimension, ambient: Formal) -> bool:
        # sub/quotient of a plain split object: dim 0 forces ht >= 0
        if isinstance(ambient, QBCObject):
            return True
        return not (piece.dim == 0 and piece.ht < 0)

    for idx in range(len(arrows)):
        src, tgt = dims[idx], dims[idx + 1]
        ker, im = kers[idx], ims[idx]
        if ker + im != src:
            return False
        coker = tgt - im
        if coker.dim < 0:
            return False
        if not (bs1_ok(ker, seq[idx]) and bs1_ok(im, seq[idx + 1]) and bs1_ok(coker, seq[idx + 1])):
            return False
        if ker.is_zero() and _is_injection_into_infty_torsion(seq[idx], seq[idx + 1]):
            if any(h <= d for d, h, _ in seq[idx].ueff):
                return False
        # exactness at the source node
        expected_ker = ims[idx - 1] if idx > 0 else ZERO_DIM
        if ker != expected_ker:
            return False
    # exactness at the final node: last image fills it
    last_im = ims[-1] if arrows else ZERO_DIM
    return last_im == dims[-1]


class HeightRank(Record):
    """Rank of the de Rham-valued Hom functor, with a certification marker."""

    value: int
    certified: bool


def height_functor_rank(w: Formal) -> HeightRank:
    """Rank of Hom(W, B_dR): equals ht(W) when the curvature is <= 0.

    Objects with a positive-curvature part get ht, marked uncertified.
    """
    return HeightRank(dimension(w).ht, curvature_nonpositive(w))


# ---------------------------------------------------------------------------
# Ext-dimension tables for labeled almost-C objects
#
# Supported labels: {"kind": "C", "twist": j}, {"kind": "B", "k": k},
# {"kind": "Qp", "n": n}.  Heights are 0, 0 and n respectively.


def label_c(j: int = 0) -> dict:
    return {"kind": "C", "twist": j}


def label_b(k: int) -> dict:
    return {"kind": "B", "k": k}


def label_qp(n: int = 1) -> dict:
    return {"kind": "Qp", "n": n}


def _norm_label(lbl) -> dict:
    kind = json_key(lbl, "kind", "label")
    if kind == "C":
        return {"kind": "C", "twist": json_int(json_key(lbl, "twist", "label", 0), "C twists")}
    if kind == "B":
        return {"kind": "B", "k": json_int(json_key(lbl, "k", "label"), "B label lengths k", 1)}
    if kind == "Qp":
        return {"kind": "Qp", "n": json_int(json_key(lbl, "n", "label", 1), "Qp label multiplicities n", 1)}
    raise InputError(f"unsupported label kind {kind!r}")


def label_height(lbl) -> int:
    lbl = _norm_label(lbl)
    return lbl["n"] if lbl["kind"] == "Qp" else 0


class ExtTriple(Record):
    """Per-degree Ext dimensions (or None when untabulated) plus Euler data.

    `unit` records the coefficient field of the per-degree entries ("K" or
    "Qp"); `euler_qp` is always the exact Euler characteristic over Q_p.
    """

    ext0: Optional[int]
    ext1: Optional[int]
    ext2: Optional[int]
    unit: Optional[str]
    euler_qp: int

    def triple(self):
        return (self.ext0, self.ext1, self.ext2)


def _tate_split(k: int, j: int) -> tuple[int, int, int]:
    """Case split for Ext^i(length-k module, C(j)) over K."""
    e0 = 1 if j == 0 else 0
    e1 = (1 if j == 0 else 0) + (1 if j == k else 0)
    e2 = 1 if j == k else 0
    return e0, e1, e2


def ext_tables(x, y, k_degree: int = 1) -> ExtTriple:
    """Tabulated Ext dimensions between labeled almost-C objects.

    The Euler characteristic -[K:Qp] ht(x) ht(y) is always exact; per-degree
    dimensions are filled in only for tabulated pairs and marked unknown
    otherwise.
    """
    json_int(k_degree, "base field degrees", 1)
    x, y = _norm_label(x), _norm_label(y)
    euler = -k_degree * label_height(x) * label_height(y)
    if x["kind"] == "B" and y["kind"] == "C":
        e0, e1, e2 = _tate_split(x["k"], y["twist"])
        return ExtTriple(e0, e1, e2, "K", euler)
    if x["kind"] == "C" and y["kind"] == "C":
        e0, e1, e2 = _tate_split(1, y["twist"] - x["twist"])
        return ExtTriple(e0, e1, e2, "K", euler)
    if x["kind"] == "B" and y["kind"] == "B" and x["k"] < y["k"]:
        # no maps and no extensions upward in length; the Euler characteristic
        # (zero, both heights vanish) then forces the top degree
        return ExtTriple(0, 0, 0, "K", euler)
    if x["kind"] == "Qp" and y["kind"] == "Qp":
        n, m = x["n"], y["n"]
        return ExtTriple(n * m, n * m * (1 + k_degree), 0, "Qp", euler)
    return ExtTriple(None, None, None, None, euler)
