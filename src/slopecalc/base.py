"""Scalars, records and valuation polygons: the half of the kernel every command loads.

All arithmetic is exact, over `fractions.Fraction` and Python ints, and
nothing here ever rounds.  The only float in the module is `math.inf`, used
as the conventional valuation of zero.  This module holds the error types,
the checks and coercions of JSON input (`rat`, `json_int`, the object
readers `json_object`, `json_key`, `json_list`, `json_either`, the torsion
helpers and `INFTY`) and `rat_str`, `Record` (the base of every immutable
record) and `Dimension`, exact primality and p-adic valuations, and the
valuation polygons: `lower_hull_vertices`, `Polygon` and `newton_polygon`.
It builds no matrix, so a command without linear algebra (`newton`, `plot`,
`cohdim`, the `bc` commands, `mv-check`) loads it and not `rational`.

Slope convention, used by everything downstream: `newton_polygon` returns
the NEGATED slopes of the lower convex hull of the points ``(i, v_p(a_i))``.
The returned numbers are therefore the valuations of the roots of the
polynomial, so the slope multiset of a Frobenius matrix equals the valuation
multiset of its eigenvalues.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

INFINITY = math.inf


class InputError(ValueError):
    """Malformed user-supplied data (bad rationals, non-primes, schema errors)."""


class FlagRequiredError(InputError):
    """An operation needing an explicit flag got weights-only Hodge data."""


def rat(x) -> Fraction:
    """Coerce x (int, Fraction, or string 'a/b' / 'a') to an exact Fraction.

    A string is what `fractions.Fraction` reads on the running interpreter,
    less any '.', 'e' or 'E', with surrounding whitespace stripped.  A plain
    one, ASCII digits with an optional leading '-' and an optional '/digits',
    is read by `int` without `Fraction`'s regex, to the same value or the
    same error (a zero denominator, a part past the int-to-str digit limit).
    """
    if type(x) is Fraction:  # the exact-type tests skip the ABC check
        return x
    if isinstance(x, str):  # no str is a Fraction, so this may precede the subclass test
        s = x.strip()
        if "." in s or "e" in s or "E" in s:
            raise InputError(f"rationals must be exact 'a/b' strings, got {x!r}")
        num, slash, den = s.partition("/")
        try:
            if s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational string {x!r}") from exc
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"not a rational: {x!r} (floats are rejected)")


class RatMemo(dict):
    """`rat` with a memo of the strings it read: each distinct entry string
    is read once per memo, that is once per matrix or flag.

    Only exact `str` values are keys, as `row` looks up nothing else: `True`,
    `1` and `1.0` hash and compare alike, so every other value goes through
    `rat` each time, to the same value or the same error.  A string that
    does not read is not kept, so it raises again wherever it repeats.
    """

    __slots__ = ()

    def __missing__(self, s: str) -> Fraction:
        q = self[s] = rat(s)
        return q

    def row(self, row) -> tuple:
        """`tuple(map(rat, row))`, with each exact-str entry read through the memo."""
        return tuple([self[x] if type(x) is str else rat(x) for x in row])


def is_row_list(x) -> bool:
    """Whether x is a list (or tuple) of lists (or tuples), as matrices and bases are."""
    return isinstance(x, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in x)


def json_int(x, what: str, low: Optional[int] = None) -> int:
    """A JSON integer (not a bool, a string or a float), at least any `low`; else InputError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be integers, got {x!r}")
    if low is not None and x < low:
        raise InputError(f"{what} must be >= {low}, got {x}")
    return x


_REQUIRED = object()  # the default of a key that must be present


def json_object(obj, what: str) -> dict:
    """obj itself, the JSON object `what`; anything else is an InputError."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} JSON must be an object")
    return obj


def json_key(obj, key: str, what: str, default=_REQUIRED):
    """obj[key] of the JSON object `what`, or any `default`; else an InputError.

    Only membership is checked, so a KeyError raised while building from the
    value stays an internal fault.  A dict is read directly; `json_object` is
    called only to raise, so it alone words the "must be an object" error.
    """
    if not isinstance(obj, dict):
        json_object(obj, what)
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise InputError(f"{what} JSON missing key {key!r}")
    return default


def json_list(obj, key: str, what: str, default=_REQUIRED) -> list:
    """`json_key`, whose value must be a JSON list."""
    value = json_key(obj, key, what, default)
    if not isinstance(value, list):
        raise InputError(f"{key!r} must be a JSON list")
    return value


def json_either(obj, what: str, *keys: str) -> Optional[str]:
    """The one of `keys` that the JSON object `what` holds, or None if it holds
    none; two are an InputError, as an input gives one alternative."""
    obj = json_object(obj, what)
    held = [key for key in keys if key in obj]
    if len(held) > 1:
        raise InputError(f"{what} JSON gives both {held[0]!r} and {held[1]!r}")
    return held[0] if held else None


INFTY = "infty"  # the distinguished torsion point


def torsion_from_obj(obj, what: str) -> tuple:
    """(point, lengths) of the JSON object `what`, the point `INFTY` by default."""
    return json_key(obj, "point", what, INFTY), json_key(obj, "lengths", what)


def torsion_entry(entry) -> tuple[str, tuple]:
    """One torsion entry (point, lengths), checked before any merge or sort.

    The point is a nonempty string and the lengths a nonempty list or tuple
    of positive integers; `bc` and `sheaf` apply this rule to raw entries and
    to their normal forms.
    """
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise InputError("a torsion entry is a (point, lengths) pair")
    point, lengths = entry
    if not isinstance(point, str) or not point:
        raise InputError("torsion point labels must be nonempty strings")
    if not isinstance(lengths, (list, tuple)) or not lengths:
        raise InputError("torsion entries need a nonempty list of lengths")
    for m in lengths:
        json_int(m, "torsion lengths", 1)
    return point, tuple(lengths)


def torsion_normal_form(entries) -> tuple:
    """((point, lengths descending), ...) by point: checked `entries` merged by point."""
    tors: dict[str, list[int]] = {}
    for entry in entries:
        point, lengths = torsion_entry(entry)  # before the sort, which compares them
        tors.setdefault(point, []).extend(lengths)
    return tuple((pt, tuple(sorted(ls, reverse=True))) for pt, ls in sorted(tors.items()))


def rat_str(q: Fraction) -> str:
    """Serialize a Fraction as 'a/b', or 'a' when the denominator is 1.

    A part past the interpreter's int-to-str digit limit is an InputError.
    """
    q = rat(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise InputError(f"result too large to print: {exc}") from None


class Record:
    """Immutable record whose fields are its class body's annotations, in order.

    A class attribute named like a field is its default.  Construction sets
    the fields, then runs `__post_init__` if the class has one; `==`, `hash`,
    `repr` and `to_obj` read the fields only.  Instances keep a `__dict__`, so
    `cached_property` and `object.__setattr__` can keep values that are not
    fields; a copy (`pickle`, `copy.deepcopy`) is built from the fields alone,
    so it drops them and construction recomputes what it keeps.  It stands in
    for `dataclasses`, whose import loads `inspect` and `ast`.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    # `__init__`, `==` and `hash` compile the class's own on first use, as
    # `dataclasses` writes them: a shared `*args` __init__ was about 5% slower
    # on battery-mix, and `==` by `operator.attrgetter` about 20% slower on an
    # HNStep (CHANGES.md).  Compiling on first use spares a CLI call the
    # classes it never builds or compares.
    def __init__(self, *args, **kwargs):
        _define_init(type(self)).__init__(self, *args, **kwargs)

    def __eq__(self, other):
        return _define_comparisons(type(self)).__eq__(self, other)

    def __hash__(self):
        return _define_comparisons(type(self)).__hash__(self)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_obj(self):
        """The fields by name as JSON: a record by its `to_obj`, a tuple as a list."""
        return {f: _json_value(getattr(self, f)) for f in self._fields}


def _define(cls, lines: list) -> type:
    """Compile the functions in `lines` and set them on `cls` as its methods."""
    namespace = {"_body": vars(cls), "_set": object.__setattr__}
    exec("\n".join(lines), namespace)
    for name, function in list(namespace.items()):
        if name.startswith("__") and callable(function):
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, function)
    return cls


def _define_init(cls) -> type:
    """Give `cls` an `__init__` that sets each field, then runs any `__post_init__`.

    A field without a default after one with a default is a SyntaxError here.
    """
    body = vars(cls)
    params = "".join(f", {f}=_body[{f!r}]" if f in body else f", {f}" for f in cls._fields)
    post = ["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    return _define(cls, [f"def __init__(self{params}):",
                         *(f"    _set(self, {f!r}, {f})" for f in cls._fields), *post])


def _define_comparisons(cls) -> type:
    """Give `cls` its `__eq__` and `__hash__` over the tuple of its fields."""
    mine, theirs = (", ".join(f"{who}.{f}" for f in cls._fields) + "," for who in ("self", "other"))
    return _define(cls, ["def __eq__(self, other):",
                         "    if other.__class__ is not self.__class__:",
                         "        return NotImplemented",
                         f"    return ({mine}) == ({theirs})",
                         "def __hash__(self):",
                         f"    return hash(({mine}))"])


def _json_value(value):
    """A field value as `Record.to_obj` writes it: a Fraction by `rat_str`."""
    if isinstance(value, Record):
        return value.to_obj()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return rat_str(value) if type(value) is Fraction else value


class Dimension(Record):
    """(dim, ht) pair of integers with exact componentwise arithmetic.

    It lives here, not in `bc` (which re-exports it), so that `hn` and `sheaf`
    can use it without loading `bc`.
    """

    dim: int
    ht: int

    def __post_init__(self):
        json_int(self.dim, "Dimension components")
        json_int(self.ht, "Dimension components")

    def __add__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.dim + other.dim, self.ht + other.ht)

    def __sub__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.dim - other.dim, self.ht - other.ht)

    def is_zero(self) -> bool:
        return self.dim == 0 and self.ht == 0

    @classmethod
    def from_obj(cls, obj) -> "Dimension":
        return cls(json_key(obj, "dim", "Dimension"), json_key(obj, "ht", "Dimension"))


ZERO_DIM = Dimension(0, 0)


# Miller-Rabin with the first 13 primes as bases is exact below MR_LIMIT
# (Sorenson and Webster, Math. Comp. 86 (2017), "Strong pseudoprimes to
# twelve prime bases"); no base set is proven above it.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: trial division by MR_BASES, then deterministic Miller-Rabin.

    An n with no factor among the bases and n >= MR_LIMIT is an InputError.
    """
    if not isinstance(n, int) or n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= MR_LIMIT:
        raise InputError(f"primality is decided only below {MR_LIMIT}, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p) -> int:
    if not is_prime(json_int(p, "primes p")):
        raise InputError(f"p must be a prime integer >= 2, got {p!r}")
    return p


def _vp_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(q, p):
    """Exact p-adic valuation of a rational; +infinity for 0.

    Satisfies v(xy) = v(x) + v(y) for nonzero x, y.
    """
    check_prime(p)
    q = rat(q)
    if q == 0:
        return INFINITY
    return _vp_int(abs(q.numerator), p) - _vp_int(q.denominator, p)


# ---------------------------------------------------------------------------
# polygons


def lower_hull_vertices(points: Iterable) -> list:
    """Vertices of the lower convex hull of points (x, y) with rising x.

    One monotone chain with exact cross products: a middle point on or above
    the chord past it is dropped, so a collinear one is not a vertex.
    """
    hull = []
    for x, y in points:
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
            hull.pop()
        hull.append((x, y))
    return hull


class Polygon(Record):
    """Lower-convex polygon: integer x's strictly increasing, slopes non-decreasing."""

    vertices: tuple  # (x, y) pairs; any iterable of them is kept as a tuple

    def __post_init__(self):
        vs = tuple((json_int(x, "vertex x-coordinates"), rat(y)) for x, y in self.vertices)
        if not vs:
            raise InputError("a polygon needs at least one vertex")
        for (x1, _), (x2, _) in zip(vs, vs[1:]):
            if x2 <= x1:
                raise InputError("polygon x-coordinates must strictly increase")
        slopes = [
            (y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(vs, vs[1:])
        ]
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 < s1:
                raise InputError("polygon is not convex from below")
        object.__setattr__(self, "vertices", vs)

    def __repr__(self):
        return f"Polygon{list(self.vertices)!r}"

    @classmethod
    def lower_hull(cls, points: Iterable) -> "Polygon":
        """Lower convex hull of a finite point set (monotone chain, exact)."""
        best: dict[int, Fraction] = {}
        for x, y in points:
            x = json_int(x, "vertex x-coordinates")
            y = rat(y)
            if x not in best or y < best[x]:
                best[x] = y
        if not best:
            raise InputError("no points")
        return cls(lower_hull_vertices(sorted(best.items())))

    def slopes(self) -> list[tuple[Fraction, int]]:
        """Segment slopes with their integer horizontal runs, left to right."""
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            out.append(((y2 - y1) / (x2 - x1), x2 - x1))
        return out


def newton_polygon(coefficients: Sequence, p: int) -> list[tuple[Fraction, int]]:
    """Root valuations of a polynomial from its p-adic Newton polygon.

    `coefficients` are in ascending degree order.  The constant and leading
    coefficients must be nonzero (strip zero roots before calling).  Returns
    (valuation, multiplicity) pairs sorted by ascending valuation; these are
    the NEGATED lower-hull slopes, and the multiplicities sum to the degree.
    The hull of the integer points (i, v_p(a_i)) is `lower_hull_vertices`;
    its slopes rise from left to right, so their negations, read from the
    right, ascend.
    """
    check_prime(p)
    coeffs = [rat(c) for c in coefficients]
    if not coeffs:
        raise InputError("empty coefficient list")
    if all(c == 0 for c in coeffs):
        raise InputError("zero polynomial has no Newton polygon")
    if coeffs[-1] == 0:
        raise InputError("leading coefficient must be nonzero")
    if coeffs[0] == 0:
        raise InputError("constant coefficient must be nonzero (strip zero roots first)")
    hull = lower_hull_vertices((x, _vp_int(abs(c.numerator), p) - _vp_int(c.denominator, p))
                               for x, c in enumerate(coeffs) if c)
    return [(Fraction(y1 - y2, x2 - x1), x2 - x1)
            for (x1, y1), (x2, y2) in zip(reversed(hull[:-1]), reversed(hull[1:]))]
