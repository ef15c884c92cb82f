"""The integer-row kernel of `rational` against its generator form in
`_fraction_reference`.

Seeded integer matrices from 0x0 to 10x12, with zero rows and columns,
dependent rows, negative pivots and entries up to 300 bits, given as list
rows and as tuple rows.  Every result must be equal in value and type,
element by element, or raise the same exception; the rows list that
`_gauss_jordan`, `int_kernel`, `int_rref` and `int_det` work on must be
equal afterwards too, and `int_echelon` must hand back the very row objects
the reference hands back.  The module also runs as a plain script, for
interpreters without pytest:

    PYTHONPATH=src python3.10 tests/test_kernel_parity.py
"""

import random
import sys

import _fraction_reference as ref
from slopecalc import rational as lib

SHAPES = [(r, c) for r in range(11) for c in range(13)]


def matrix(rng, nrows, ncols, bits, as_tuple):
    """Sparse signed ints of up to `bits` bits, with some zero columns and
    some rows that are integer combinations of the rows above them."""
    zero_cols = {c for c in range(ncols) if rng.random() < 0.15}
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * ncols
        elif kind < 0.35 and rows:
            picks = rng.sample(rows, min(len(rows), rng.randint(1, 3)))
            row = [sum(rng.randint(-3, 3) * r[c] for r in picks) for c in range(ncols)]
        else:
            row = [0 if c in zero_cols or rng.random() < 0.3
                   else rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, bits))
                   for c in range(ncols)]
        rows.append(row)
    if rows and rng.random() < 0.3:  # a common factor, so rows are not primitive
        g = rng.randint(2, 9)
        rows = [[g * a for a in row] for row in rows]
    return [tuple(row) for row in rows] if as_tuple else rows


def cases(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        nrows, ncols = SHAPES[i % len(SHAPES)]
        bits = rng.choice((1, 3, 8, 40, 300))
        yield rng, nrows, ncols, matrix(rng, nrows, ncols, bits, as_tuple=i % 2 == 1)


def outcome(fn, *args):
    """('value', structure) or ('raises', type, message), with every int,
    list and tuple inside the value tagged by its type."""
    try:
        got = fn(*args)
    except Exception as exc:  # the exception is the result compared
        return ("raises", type(exc), str(exc))
    return ("value", typed(got))


def typed(x):
    if isinstance(x, (list, tuple)):
        return (type(x), tuple(typed(a) for a in x))
    return (type(x), x)


def copy(rows):
    return [list(r) if type(r) is list else tuple(r) for r in rows]


def same_in_place(name, rows, ncols=None):
    """The library and the reference on copies of `rows`: equal results and
    equal rows lists afterwards."""
    args = () if ncols is None else (ncols,)
    a, b = copy(rows), copy(rows)
    got = outcome(getattr(lib, name), a, *args)
    want = outcome(getattr(ref, name), b, *args)
    assert got == want, (name, rows, got, want)
    assert typed(a) == typed(b), (name, rows, a, b)


def test_int_apply_and_primitive():
    for rng, nrows, ncols, rows in cases(101, 600):
        for v in (matrix(rng, 1, ncols, 300, False)[0], [0] * ncols):
            for vec in (v, tuple(v)):
                assert outcome(lib.int_apply, rows, vec) == outcome(ref.int_apply, rows, vec)
        for row in rows:
            assert outcome(lib._primitive, row) == outcome(ref._primitive, row)
            got, want = lib._primitive(row), ref._primitive(row)
            assert (got is row) == (want is row)


def test_int_residue_and_int_echelon():
    for rng, nrows, ncols, rows in cases(202, 600):
        split = rng.randint(0, nrows)
        echelon = ref.int_echelon(rows[:split])
        got, want = lib.int_echelon(rows[split:], echelon), ref.int_echelon(rows[split:], echelon)
        assert typed(got) == typed(want), rows
        # the same row objects are kept as given
        assert [r for _, r in got] == [r for _, r in want]
        assert [any(r is x for x in rows) for _, r in got] == \
            [any(r is x for x in rows) for _, r in want]
        assert lib.int_echelon(iter(rows)) == ref.int_echelon(iter(rows))
        for v in rows:
            assert typed(lib.int_residue(v, echelon)) == typed(ref.int_residue(v, echelon))


def test_eliminations_in_place():
    for rng, nrows, ncols, rows in cases(303, 800):
        for name in ("_gauss_jordan", "int_kernel", "int_rref"):
            same_in_place(name, rows, ncols)
        n = min(nrows, ncols)
        same_in_place("int_det", [row[:n] for row in rows[:n]])


def test_int_det_on_dense_and_singular_squares():
    rng = random.Random(404)
    for n in range(11):
        for _ in range(30):
            rows = matrix(rng, n, n, rng.choice((2, 16, 300)), as_tuple=False)
            same_in_place("int_det", rows)
            if n > 1:  # a repeated row, and a zero leading column
                same_in_place("int_det", rows[:-1] + [list(rows[0])])
                same_in_place("int_det", [[0] + row[1:] for row in rows])


def test_named_edge_cases():
    for rows, ncols in [
        ([], 0), ([], 3), ([[]], 0), ([[], []], 0), ([[0, 0]], 2),
        ([[0, -4, 6], [0, 2, -3]], 3), ([(5,), (-10,)], 1), ([[-2**300, 3], [1, 0]], 2),
    ]:
        for name in ("_gauss_jordan", "int_kernel", "int_rref"):
            same_in_place(name, rows, ncols)
        assert outcome(lib.int_echelon, rows) == outcome(ref.int_echelon, rows)
    for rows in ([], [[0]], [[-7]], [[0, 1], [1, 0]], [(1, 2), (3, 4)], [[2, 4], [1, 2]]):
        same_in_place("int_det", rows)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed under Python {sys.version.split()[0]}")
