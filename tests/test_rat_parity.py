"""`base.rat` against the Fraction-regex reference `_fraction_reference.rat`.

Each case must give the same value (of the same type, the very object for a
Fraction) or the same exception type, message and cause type.  The module
also runs as a plain script, for interpreters without pytest:

    PYTHONPATH=src python3.10 tests/test_rat_parity.py
"""

import decimal
import sys
from fractions import Fraction

import _fraction_reference as ref
from slopecalc.base import rat


class Half(Fraction):
    pass


class Text(str):
    pass


BIG = "7" * 5000

STRINGS = [
    # signs and whitespace
    "3", "-3", "+3", "-0", "+0", " 3 ", "\t-3/4\n", " 5 ", " 1/2",
    # leading zeros and zero numerators
    "007", "-007/010", "0/5", "-0/5", "00/05", "0", "000",
    # what only Fraction's regex reads, on some interpreters
    "1_000", "1_000/3", "1__0", "_1", "1_", "١٢", "٣/٤", "²", "1²",
    "³/4", "½", "１/２",
    # errors
    "1/0", "0/0", "-0/0", "1/-2", "1/+2", "1 / 2", "1/ 2", "1 /2", "1/", "/2", "/", "--1",
    "-", "+", "+-1", "", " ", "nan", "inf", "-inf", "0x10", "0b1", "1.5", "1e3", "1E3", ".5",
    "3/2/1", "1,000", "abc", "1/2a", "a1",
    # the int-to-str digit limit (4300 on the interpreters tested)
    BIG, "-" + BIG, "1/" + BIG, BIG + "/3", "7" * 4300, "7" * 4301, "1/" + "7" * 4300,
    "0" * 5000, "1/" + "0" * 4999 + "1",
]

VALUES = [
    True, False, 1.0, float("nan"), 0, -5, 2**200, Fraction(3, 4), Fraction(-6, 4),
    Half(1, 2), Text("3/4"), Text(" -2 "), Text("1.5"), None, [1], (1,), b"1",
    decimal.Decimal("1.5"), 1j,
]


def outcome(fn, x):
    """('value', type, value) or ('raises', type, message, cause type)."""
    try:
        got = fn(x)
    except Exception as exc:  # the exception is the result compared
        cause = type(exc.__cause__) if exc.__cause__ is not None else None
        return ("raises", type(exc), str(exc), cause)
    return ("value", type(got), got)


def mismatches(cases) -> list:
    out = []
    for x in cases:
        want, got = outcome(ref.rat, x), outcome(rat, x)
        if want != got:
            out.append((x, want, got))
    return out


def test_strings_match_the_reference():
    assert mismatches(STRINGS) == []


def test_values_match_the_reference():
    assert mismatches(VALUES) == []


def test_a_fraction_comes_back_as_itself():
    for q in (Fraction(3, 4), Half(1, 2)):
        assert rat(q) is q


def test_plain_strings_are_read_without_the_regex():
    # no stand-in Fraction class sees a plain string, as the direct path
    # reads it by int() and builds Fraction(int, int)
    class Recording(Fraction):
        seen = []

        def __new__(cls, numerator=0, denominator=None):
            cls.seen.append(numerator)
            return Fraction.__new__(Fraction, numerator, denominator)

    import slopecalc.base as base

    real = base.Fraction
    base.Fraction = Recording
    try:
        for s in ("12", "-3/4", " 5 ", "0/7"):
            rat(s)
        assert not [a for a in Recording.seen if isinstance(a, str)]
        rat("+3")
        assert Recording.seen[-1] == "+3"
    finally:
        base.Fraction = real


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed under Python {sys.version.split()[0]}")
