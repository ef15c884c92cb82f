"""Input parsing reads each distinct entry string once per matrix or flag.

`RatMatrix` and `HodgeData.from_flag` keep a memo of the strings they read
(`base.RatMemo`), and `from_flag` keeps each distinct row of strings as one
integer row.  Only exact `str` values are memo keys, so a value that hashes
and compares like an earlier one (`True` after `1`, `1.0` after `"1"`'s
value) still goes through `rat` and raises as it did, and an entry that
does not read raises where it first occurs.  `DenseFlagParity` checks dense
flags, as the bench writes them, against `_fraction_reference.from_flag`;
`test_filtration.TestFromFlagParity` runs it under pytest.  The module also
runs as a plain script, for interpreters without pytest:

    PYTHONPATH=src python3.10 tests/test_parse_once.py
"""

import random
import sys
from fractions import Fraction

import _fraction_reference as ref
import slopecalc.base as base
import slopecalc.filtration as filtration
from slopecalc.base import InputError, rat_str
from slopecalc.filtration import HodgeData
from slopecalc.rational import RatMatrix


def outcome(build):
    """('value', result) or ('raises', type, message)."""
    try:
        return ("value", build())
    except InputError as exc:
        return ("raises", type(exc), str(exc))


def reference_matrix(rows):
    """`RatMatrix(rows)` as every entry read by the reference `rat`."""
    if not base.is_row_list(rows):
        raise InputError("a matrix must be a list of row lists")
    ent = tuple(tuple(ref.rat(x) for x in row) for row in rows)
    if ent and any(len(r) != len(ent[0]) for r in ent):
        raise InputError("ragged matrix rows")
    return RatMatrix._trusted(ent)


# Values that hash and compare like an entry met before them, and that
# `rat` rejects; each follows an equal-hashing 1 or "1" in its matrix or flag.
LOOKALIKES = [True, 1.0, None, [1]]
BEFORE = [1, "1", Fraction(1)]


def lookalike_rows():
    for first in BEFORE:
        for bad in LOOKALIKES:
            yield [[first, "2"], ["1", bad]]
            yield [[first, bad]]
            yield [["1", first], [first, "1"], [bad, "1"]]


def test_lookalikes_in_a_matrix_still_raise():
    for rows in lookalike_rows():
        want = outcome(lambda: reference_matrix(rows))
        assert want[0] == "raises", rows
        assert outcome(lambda: RatMatrix(rows)) == want, rows


def test_lookalikes_in_a_flag_still_raise():
    for rows in lookalike_rows():
        width = len(rows[0])
        for entries in ([(0, rows)], [(0, [["1"] * width]), (1, rows)], [(1, rows), (0, rows)]):
            want = outcome(lambda: ref.from_flag(entries))
            assert want[0] == "raises", entries
            assert outcome(lambda: HodgeData.from_flag(entries)) == want, entries


def test_a_repeated_bad_string_raises_where_it_first_occurs():
    # each case meets another bad value between or before the repeats, so
    # the error names whichever comes first in reading order
    matrices = [
        [["x", True], [True, "x"]],
        [[True, "x"], ["x", "x"]],
        [["1", "1/0"], ["2", None], ["1/0", "1"]],
        [["1.5", "2"], ["2", 1.5]],
    ]
    for rows in matrices:
        want = outcome(lambda: reference_matrix(rows))
        assert want[0] == "raises" and outcome(lambda: RatMatrix(rows)) == want, rows
    flags = [
        [(0, [["x", "1"]]), (1, [[True, "x"]])],
        [(1, [[True, "x"]]), (0, [["x", "1"]])],
        [(0, [["1", "2"], ["1"]]), (1, [["x", "x"]])],
        [(0, [["1", "2"]]), (1, [["1", "2"], ["x", "2"]]), (2, [["x", "2"], [None, "2"]])],
    ]
    for entries in flags:
        want = outcome(lambda: ref.from_flag(entries))
        assert want[0] == "raises" and outcome(lambda: HodgeData.from_flag(entries)) == want, entries


def bench_flag(rng, n, weights, scale=1):
    """A dense flag as the bench writes one: a full flag in general position,
    one entry per index from the least weight to the greatest, each entry
    repeating the rows of the entries above it, entries as strings."""
    while True:
        t = [[Fraction(rng.randint(-3, 3), scale) for _ in range(n)] for _ in range(n)]
        if RatMatrix._trusted(tuple(map(tuple, t))).det() != 0:
            break
    weights = sorted(weights, reverse=True)
    return [(j, [[rat_str(x) for x in t[i]] for i in range(n) if weights[i] >= j])
            for j in range(weights[-1], weights[0] + 1)]


class Counter:
    """Count calls of `module.name` while in effect, as a context manager."""

    def __init__(self, module, name):
        self.module, self.name, self.real, self.args = module, name, getattr(module, name), []

    def __enter__(self):
        def counted(*args):
            self.args.append(args)
            return self.real(*args)

        setattr(self.module, self.name, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.real)


def test_each_distinct_string_and_row_is_read_once():
    rng = random.Random(28)
    entries = bench_flag(rng, 6, [0, 1, 1, 3, 4, 6], scale=2)
    strings = {x for _, rows in entries for row in rows for x in row}
    distinct_rows = {tuple(row) for _, rows in entries for row in rows}
    total_rows = sum(len(rows) for _, rows in entries)
    assert total_rows > 2 * len(distinct_rows) == 12  # the dense flag repeats its rows
    with Counter(base, "rat") as rat_calls, Counter(filtration, "int_row") as row_calls:
        h = HodgeData.from_flag(entries)
    assert h == ref.from_flag(entries)
    assert sorted(a for a, in rat_calls.args) == sorted(strings)
    assert len(row_calls.args) == len(distinct_rows)
    rows = [row for _, basis in entries for row in basis]
    with Counter(base, "rat") as rat_calls:
        m = RatMatrix(rows)
    assert m == reference_matrix(rows)
    assert sorted(a for a, in rat_calls.args) == sorted(strings)


def test_non_strings_are_read_every_time():
    rows = [[Fraction(1), 1, "1"], [Fraction(1), 1, "1"]]
    with Counter(base, "rat") as rat_calls:
        RatMatrix(rows)
    assert [a for a, in rat_calls.args] == [Fraction(1), 1, "1", Fraction(1), 1]
    entries = [(0, rows), (1, [[1, 1, "1"]])]
    with Counter(base, "rat") as rat_calls, Counter(filtration, "int_row") as row_calls:
        HodgeData.from_flag(entries)
    assert [a for a, in rat_calls.args] == [Fraction(1), 1, "1", Fraction(1), 1, 1, 1]
    assert len(row_calls.args) == 3


def flag_outcome(build):
    """The flag with its repr, JSON and hash, or the error."""
    try:
        h = build()
    except InputError as exc:
        return ("raises", type(exc), str(exc))
    return ("value", h, repr(h), h.to_obj(), hash(h))


class DenseFlagParity:
    """Dense flags against `_fraction_reference.from_flag`: the HodgeData,
    its repr, its JSON and its hash must agree."""

    def assert_parity(self, entries, rank=None):
        want = flag_outcome(lambda: ref.from_flag(entries, rank=rank))
        assert flag_outcome(lambda: HodgeData.from_flag(entries, rank=rank)) == want, entries
        return want

    def test_bench_flags_match_the_reference(self):
        rng = random.Random(2028)
        for _ in range(60):
            n = rng.randint(1, 8)
            weights = [rng.randint(-3, 4) for _ in range(n)]
            entries = bench_flag(rng, n, weights, scale=rng.choice([1, 1, 3]))
            assert self.assert_parity(entries, n)[0] == "value"

    def test_flags_with_index_gaps_match_the_reference(self):
        rng = random.Random(2029)
        for _ in range(60):
            n = rng.randint(2, 7)
            entries = bench_flag(rng, n, [rng.randint(0, 9) for _ in range(n)])
            kept = [e for e in entries if rng.random() < 0.6] or entries[:1]
            rng.shuffle(kept)
            assert self.assert_parity(kept)[0] == "value"

    def test_repeated_rows_and_equal_levels_match_the_reference(self):
        rng = random.Random(2030)
        for _ in range(60):
            n = rng.randint(2, 6)
            entries = bench_flag(rng, n, [rng.randint(0, 4) for _ in range(n)])
            # a level written twice, a row repeated inside an entry, and a
            # dependent row, none of which changes the subspace
            doubled = []
            for j, rows in entries:
                rows = rows + rows[:1] if rows and rng.random() < 0.5 else rows
                doubled.append((2 * j, rows))
                if rng.random() < 0.5:
                    doubled.append((2 * j + 1, rows[::-1]))
            self.assert_parity(doubled)
        # an entry of the same dimension as the one before but not nested in it
        self.assert_parity([(0, [["1", "0", "0"], ["0", "1", "0"]]), (1, [["1", "0", "0"], ["0", "0", "1"]])])

    def test_a_900_index_window_round_trips(self):
        rng = random.Random(2031)
        entries = bench_flag(rng, 5, [0, 0, 900, 400, 900])
        h = HodgeData.from_flag(entries)
        obj = h.to_obj()
        assert len(obj["flag"]) == 900
        round_trip = [(e["index"], e["basis"]) for e in obj["flag"]]
        want = self.assert_parity(round_trip, obj["rank"])
        assert want[0] == "value" and want[1] == h
        assert flag_outcome(lambda: HodgeData.from_obj(obj)) == want


def _tests():
    """Every test of this module, as (name, function), the parity class's too."""
    out = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    parity = DenseFlagParity()
    out += [(f"DenseFlagParity.{name}", getattr(parity, name))
            for name in sorted(vars(DenseFlagParity)) if name.startswith("test_")]
    return out


if __name__ == "__main__":
    tests = _tests()
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed under Python {sys.version.split()[0]}")
