import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc import filtration
from slopecalc.filtration import (
    FLAG_MAX_SPAN,
    HodgeData,
    adapted_basis,
    dual_hodge,
    induced_on_subspace,
    shift,
    t_h,
)
from slopecalc.base import FlagRequiredError, InputError
from slopecalc.hn import FilteredPhiModule, _scalar_flag_chain, sub_invariants
from slopecalc.isocrystal import PhiModule
from slopecalc.rational import RatMatrix, rref_rows

import _fraction_reference as ref
from _deadline import deadline
from _generators import random_flag, random_unimodular
from test_parse_once import DenseFlagParity
from test_parse_once import flag_outcome as _flag_outcome


def flag2(entries, rank=2):
    return HodgeData.from_flag(entries, rank=rank)


class TestTH:
    def test_all_zero(self):
        assert t_h(HodgeData.from_weights([0, 0, 0])) == 0

    def test_zero_one(self):
        assert t_h(HodgeData.from_weights([0, 1])) == 1

    def test_flag_jumps(self):
        # rank 3, a one-dimensional drop entering index 2 and death at 3:
        # weights {1, 3, 3}, t_h = 7
        h = HodgeData.from_flag(
            [(1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (2, [[0, 1, 0], [0, 0, 1]]), (3, [[0, 1, 0], [0, 0, 1]])],
            rank=3,
        )
        assert h.weights == (1, 3, 3)
        assert t_h(h) == 7


class TestFlagSemantics:
    def test_subspace_lookup(self):
        h = flag2([(1, [[1, 0]])])
        assert len(h.subspace_at(0)) == 2
        assert h.subspace_at(1) == ((F(1), F(0)),)
        assert h.subspace_at(2) == ()

    def test_weights_from_flag(self):
        assert flag2([(1, [[1, 0]])]).weights == (0, 1)

    def test_kind_and_rank_are_read_off_the_fields(self):
        flag, weights = flag2([(1, [[1, 0]])]), HodgeData.from_weights([2, -1, 2])
        assert HodgeData._fields == ("weights", "levels")
        assert (flag.kind, flag.rank) == ("flag", 2) and (weights.kind, weights.rank) == ("weights", 3)
        assert HodgeData((), ()).kind == "flag" and HodgeData(()).kind == "weights"

    def test_weights_form_support_and_flag(self):
        h = HodgeData.from_weights([2, -1, 2])
        assert h.support() == (-1, 3) and h.flag is None
        assert HodgeData.from_weights([]).support() == (0, 0)

    def test_presentations_compare_equal(self):
        a = flag2([(1, [[1, 0]])])
        b = flag2([(0, [[1, 0], [0, 1]]), (1, [[1, 0]])])
        assert a == b

    def test_nesting_enforced(self):
        with pytest.raises(InputError):
            flag2([(0, [[1, 0]]), (1, [[0, 1]])])

    def test_non_integer_weight_rejected(self):
        with pytest.raises(InputError):
            HodgeData.from_weights([F(1, 2)])

    @pytest.mark.parametrize("rank, message", [
        (1.0, "flag ranks must be integers, got 1.0"),
        (2.0, "flag ranks must be integers, got 2.0"),
        (True, "flag ranks must be integers, got True"),
        ("2", "flag ranks must be integers, got '2'"),
        (-1, "flag ranks must be >= 0, got -1"),
    ], ids=["rank-float-1", "rank-float-2", "rank-bool", "rank-string", "rank-negative"])
    @pytest.mark.parametrize("row", [[1, 0], [1]], ids=["two-columns", "one-column"])
    def test_malformed_rank_rejected(self, rank, message, row):
        with pytest.raises(InputError) as info:
            HodgeData.from_flag([(1, [row])], rank=rank)
        assert str(info.value) == message
        with pytest.raises(InputError) as info:
            HodgeData.from_obj({"flag": [{"index": 1, "basis": [row]}], "rank": rank})
        assert str(info.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: HodgeData.from_weights([0, 2.0]), "Hodge weights must be integers, got 2.0"),
        (lambda: HodgeData.from_weights([True]), "Hodge weights must be integers, got True"),
        (lambda: flag2([(1.0, [[1, 0]])]), "flag indices must be integers, got 1.0"),
        (lambda: flag2([("1", [[1, 0]])]), "flag indices must be integers, got '1'"),
        (lambda: shift(flag2([(1, [[1, 0]])]), 2.0), "shift amounts must be integers, got 2.0"),
        (lambda: shift(HodgeData.from_weights([0]), True),
         "shift amounts must be integers, got True"),
    ], ids=["weight-float", "weight-bool", "index-float", "index-string", "shift-float",
            "shift-bool"])
    def test_one_integer_rule(self, build, message):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == message

    def test_json_roundtrip(self):
        h = flag2([(1, [[1, 0]])])
        assert HodgeData.from_obj(h.to_obj()) == h
        w = HodgeData.from_weights([0, 2])
        assert HodgeData.from_obj(w.to_obj()) == w


def dense_by_levels(entries, n):
    """The canonical dense flag, reading Fil^j off the entries index by index."""
    raw = sorted(((idx, rref_rows(rows, n)) for idx, rows in entries), key=lambda t: t[0])
    full = rref_rows(RatMatrix.identity(n).entries, n)
    first, last = raw[0][0], raw[-1][0]

    def fil(j):
        return next((b for idx, b in reversed(raw) if idx <= j), full) if j <= last else ()

    window = range(first, last + 1)
    j1 = max((j for j in window if fil(j)), default=first - 1)
    if j1 < first:
        return ((first - 1, full),)
    j0 = min(next((j for j in window if len(fil(j)) < n), j1), j1)
    return tuple((j, fil(j)) for j in range(j0, j1 + 1))


class TestFlagWindow:
    def test_sparse_entries_match_the_levels(self):
        rng = random.Random(46)
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = RatMatrix.identity(n).entries
            dims = sorted((rng.randint(0, n) for _ in range(rng.randint(1, 5))), reverse=True)
            indices = sorted(rng.sample(range(-4, 12), len(dims)))
            entries = [(j, rows[:d]) for j, d in zip(indices, dims)]
            rng.shuffle(entries)
            assert HodgeData.from_flag(entries, rank=n).flag == dense_by_levels(entries, n)

    @pytest.mark.parametrize("far", [3_000_000, 10**30])
    @deadline(2)  # twice the bound asserted below, so a regression fails rather than hangs
    def test_far_apart_indices_rejected_quickly(self, far):
        start = time.perf_counter()
        with pytest.raises(InputError):
            flag2([(0, [[1, 0]]), (far, [])])
        assert time.perf_counter() - start < 1

    def test_widest_window(self):
        assert len(flag2([(0, [[1, 0]]), (FLAG_MAX_SPAN, [])]).flag) == FLAG_MAX_SPAN
        with pytest.raises(InputError):
            flag2([(0, [[1, 0]]), (FLAG_MAX_SPAN + 1, [])])


class TestLevels:
    """The flag is kept as its levels, and the dense window is derived from them."""

    def test_random_flags_rebuild_from_their_levels(self):
        rng = random.Random(49)
        rows = RatMatrix.identity(2).entries
        widest = flag2([(-3, rows[:1]), (FLAG_MAX_SPAN - 3, [])])
        single = flag2([(4, rows), (5, [])])
        assert single.support() == (3, 5) and single.flag == ((4, single.levels[0][1]),)
        cases = [widest, single]
        for trial in range(240):
            n = trial % 6
            width = FLAG_MAX_SPAN if trial % 40 == 0 else rng.choice([0, 1, 2, 3, 7])
            cases.append(HodgeData.from_flag(random_chain(rng, n, width), rank=n))
        assert len(widest.flag) == FLAG_MAX_SPAN
        for h in cases:
            n = h.rank
            assert HodgeData.from_flag(list(h.levels), rank=n) == h
            lo, hi = h.support()
            full, dense = rref_rows(RatMatrix.identity(n).entries, n), dict(h.flag)
            if n:
                assert h.levels[0] == (lo, full) and h.levels[-1] == (hi, ())
                dims = [len(b) for _, b in h.levels]
                assert dims == sorted(set(dims), reverse=True)
            for j in range(lo - 2, hi + 3):
                assert h.subspace_at(j) == (full if j <= lo else dense.get(j, ()))


class TestAdaptedBasis:
    """`adapted_basis` over seeded full flags of rank 1-8: int rows whose prefix
    of length dim Fil^j spans Fil^j, so the scalar chain on them, whose
    elements are those prefixes, reaches the largest t_H at every rank."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_prefixes_span_the_levels(self, n):
        rng = random.Random(3800 + n)
        for _ in range(6):
            h = random_flag(rng, n, 0, 4)
            rows = adapted_basis(h)
            assert len(rows) == n and all(type(x) is int for row in rows for x in row)
            for _, level in h.levels:
                assert rref_rows(rows[: len(level)], n) == level

    @pytest.mark.parametrize("n", range(1, 9))
    def test_scalar_chain_reaches_the_largest_t_h(self, n):
        rng = random.Random(3900 + n)
        mod = PhiModule.from_matrices(2, RatMatrix.identity(n).scale(2))
        for _ in range(4):
            m = FilteredPhiModule(mod, random_flag(rng, n, 0, 4))
            chain = _scalar_flag_chain(m)
            top = sorted(m.hodge.weights, reverse=True)
            got = [sub_invariants(m, chain.basis(2**k - 1))[:2] for k in range(n + 1)]
            assert got == [(k, sum(top[:k])) for k in range(n + 1)]

    def test_weights_only_is_refused(self):
        with pytest.raises(FlagRequiredError, match="adapted_basis"):
            adapted_basis(HodgeData.from_weights([0, 1]))


class TestDual:
    # The annihilator-of-Fil^{1-i} recipe negates weights: that is the unique
    # convention making double duals the identity AND weak admissibility
    # duality-stable (a rank-one module with weight w and slope w must dualize
    # to weight -w, slope -w).

    def test_single_zero_weight(self):
        assert dual_hodge(HodgeData.from_weights([0])).weights == (0,)
        assert dual_hodge(HodgeData.from_weights([1])).weights == (-1,)

    def test_zero_one(self):
        assert dual_hodge(HodgeData.from_weights([0, 1])).weights == (-1, 0)

    def test_involution_weights(self):
        h = HodgeData.from_weights([-1, 0, 2, 2])
        assert dual_hodge(dual_hodge(h)).weights == h.weights

    def test_involution_flag(self):
        h = flag2([(1, [[1, 2]])])
        assert dual_hodge(dual_hodge(h)) == h

    def test_flag_dual_weights(self):
        h = flag2([(1, [[1, 0]])])
        assert dual_hodge(h).weights == (-1, 0)

    def test_flag_dual_is_annihilator(self):
        h = flag2([(1, [[1, 0]])])
        d = dual_hodge(h)
        # level 0 of the dual annihilates Fil^1 = span(e1)
        assert d.subspace_at(0) == ((F(0), F(1)),)

    @settings(max_examples=25)
    @given(st.integers(0, 10**6))
    def test_dual_weight_sum(self, seed):
        rng = random.Random(seed)
        h = random_flag(rng, rng.randint(1, 3), 0, 3)
        assert t_h(dual_hodge(h)) == -t_h(h)

    def test_one_annihilator_per_distinct_level(self, monkeypatch):
        # rank 8, proper levels of dimension 6, 3 and 1 at 0, 1 and 900: the
        # dense window has 903 indices but only five levels, V and 0 included;
        # the zero level's annihilator is the ambient space, not computed
        rows = RatMatrix.identity(8).entries
        h = flag2([(0, rows[:6]), (1, rows[:3]), (900, rows[:1])], rank=8)
        calls, real = [], filtration._annihilator
        monkeypatch.setattr(filtration, "_annihilator", lambda b, n: calls.append(b) or real(b, n))
        dual = dual_hodge(h)
        assert len(calls) == 4
        lo, hi = h.support()
        dense = [(j, real(h.subspace_at(1 - j), 8)) for j in range(1 - hi, 2 - lo)]
        assert dual == HodgeData.from_flag(dense, rank=8)
        assert dual.weights == tuple(sorted(-w for w in h.weights))


class TestShift:
    def test_by_two(self):
        assert shift(HodgeData.from_weights([0, 1]), 2).weights == (2, 3)

    def test_identity(self):
        h = flag2([(1, [[1, 1]])])
        assert shift(h, 0) == h

    @settings(max_examples=25)
    @given(st.integers(0, 10**6), st.integers(-3, 3))
    def test_th_linear(self, seed, r):
        rng = random.Random(seed)
        h = random_flag(rng, rng.randint(1, 3), 0, 2)
        assert t_h(shift(h, r)) == t_h(h) + r * h.rank


class TestInduced:
    def test_whole_space(self):
        h = flag2([(1, [[1, 0]])])
        ind = induced_on_subspace(h, [[1, 0], [0, 1]])
        assert ind.weights == h.weights

    def test_zero_subspace(self):
        h = flag2([(1, [[1, 0]])])
        ind = induced_on_subspace(h, [])
        assert ind.rank == 0 and t_h(ind) == 0

    def test_lines(self):
        h = flag2([(1, [[1, 0]])])
        assert induced_on_subspace(h, [[1, 0]]).weights == (1,)
        assert induced_on_subspace(h, [[1, 1]]).weights == (0,)

    def test_weights_only_rejected(self):
        with pytest.raises(FlagRequiredError):
            induced_on_subspace(HodgeData.from_weights([0, 1]), [[1, 0]])

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_monotone_dimension_bound(self, seed):
        # t_h of a subspace never exceeds taking the largest weights available
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        h = random_flag(rng, n, 0, 3)
        k = rng.randint(0, n)
        rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        ind = induced_on_subspace(h, rows)
        top = sorted(h.weights, reverse=True)[: ind.rank]
        assert t_h(ind) <= sum(top)


def random_chain(rng, n, width):
    """Dense chain of canonical, nested levels over `width` + 2 indices, from the
    ambient space down to zero; levels repeat, and some chains drop from the
    ambient space straight to zero."""
    rows = random_unimodular(rng, n).entries
    if rng.random() < 0.2:
        full = rng.randint(0, width)
        dims = [n] * full + [0] * (width - full)
    else:
        dims = sorted((rng.randint(0, n) for _ in range(width)), reverse=True)
    start = rng.randint(-5, 5)
    levels = [n] + dims + [0]
    return [(start + i, rref_rows(rows[:d], n)) for i, d in enumerate(levels)]


class TestChainBuilder:
    """The internal flag builder against `from_flag`, which checks its input."""

    def test_dense_chains_match_from_flag(self):
        rng = random.Random(47)
        for trial in range(240):
            n = trial % 6
            width = FLAG_MAX_SPAN if trial % 40 == 0 else rng.choice([0, 1, 2, 3, 7])
            chain = random_chain(rng, n, width)
            built = HodgeData._from_chain(chain, n)
            assert built == HodgeData.from_flag(chain, rank=n)
            if n:
                assert built.flag == dense_by_levels(chain, n)
            # weight j has multiplicity dim Fil^j - dim Fil^(j+1)
            drops = zip(chain, chain[1:])
            assert built.weights == tuple(j for (j, a), (_, b) in drops for _ in range(len(a) - len(b)))

    def test_window_bound_shared_with_from_flag(self):
        rows = RatMatrix.identity(2).entries
        chain = [(0, rows)] + [(j, rows[:1]) for j in range(1, FLAG_MAX_SPAN + 2)]
        chain.append((FLAG_MAX_SPAN + 2, ()))
        with pytest.raises(InputError):
            HodgeData.from_flag(chain, rank=2)
        with pytest.raises(InputError):
            HodgeData._from_chain(chain, 2)

    def test_operations_equal_their_from_flag_rebuilds(self):
        rng = random.Random(48)
        for _ in range(60):
            n = rng.randint(1, 5)
            h = random_flag(rng, n, rng.randint(-3, 0), rng.randint(0, 4))
            r = rng.randint(-3, 3)
            sub = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, n))]
            for out in (dual_hodge(h), shift(h, r), induced_on_subspace(h, sub)):
                assert out == HodgeData.from_flag(list(out.flag), rank=out.rank)
            assert shift(h, r) == HodgeData.from_flag([(j + r, b) for j, b in h.flag], rank=n)
            lo, hi = h.support()
            levels = [(j, h.subspace_at(1 - j)) for j in range(1 - hi, 2 - lo)]
            annihilators = [
                (j, RatMatrix(list(b)).nullspace() if b else RatMatrix.identity(n).entries)
                for j, b in levels
            ]
            assert dual_hodge(h) == HodgeData.from_flag(annihilators, rank=n)


def _entry_string(rng, x: F):
    """x as JSON writes it: usually the string 'a/b' or 'a', sometimes an int."""
    if x.denominator == 1 and rng.random() < 0.3:
        return int(x)
    return str(x) if rng.random() < 0.9 else f" {x} "


def _flag_object(rng):
    """A seeded flag JSON object, valid or malformed: nested chains in mixed
    presentations (dependent, zero and repeated rows), with some entries made
    ragged, unnested, duplicated, mistyped or dropped."""
    n = rng.randint(0, 5)
    base = [[F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7])) for _ in range(n)]
            for _ in range(n)]
    dims = sorted((rng.randint(0, n) for _ in range(rng.randint(0, 4))), reverse=True)
    index = rng.randint(-3, 3)
    entries = []
    for d in dims:
        rows = [list(r) for r in base[:d]]
        if rows and rng.random() < 0.4:  # a dependent row
            c = F(rng.randint(-2, 2), rng.choice([1, 5]))
            rows.append([a + c * b for a, b in zip(rows[0], rows[-1])])
        if rng.random() < 0.2:
            rows.append([F(0)] * n)
        if rng.random() < 0.15:  # a row outside the level before
            rows.append([F(rng.randint(-3, 3)) for _ in range(n)])
        rng.shuffle(rows)
        entries.append({"index": index,
                        "basis": [[_entry_string(rng, x) for x in row] for row in rows]})
        index += rng.choice([0, 1, 1, 1, 2]) if rng.random() < 0.1 else rng.choice([1, 2])
    fault = rng.random()
    if entries and fault < 0.08:  # ragged
        row = next((r for e in entries for r in e["basis"] if r), None)
        if row is not None and rng.random() < 0.5:
            row.pop()
        elif row is not None:
            row.append("1")
    elif entries and fault < 0.14:
        entries[rng.randrange(len(entries))]["index"] = rng.choice([1.0, True, "1"])
    elif entries and fault < 0.2:
        row = next((r for e in entries for r in e["basis"] if r), None)
        if row is not None:
            row[0] = rng.choice(["1.5", "x", "1/0", None, 2.0])
    elif entries and fault < 0.24:
        entries[0]["basis"] = "not rows"
    rng.shuffle(entries)
    obj = {"flag": entries}
    if rng.random() < 0.6:
        obj["rank"] = n if rng.random() < 0.9 else rng.choice([n + 1, max(n - 1, 0), -1])
    return obj


class TestFromFlagParity(DenseFlagParity):
    """`from_flag`'s one integer elimination per entry against the parent
    form, `rref_rows` per entry and `span_leq` nesting (`_fraction_reference`);
    the dense flags of `test_parse_once.DenseFlagParity` too."""

    def test_seeded_flags_match_the_reference(self):
        rng = random.Random(26)
        kinds = {"value": 0, "raises": 0}
        for _ in range(3000):
            obj = _flag_object(rng)
            entries = [(e["index"], e["basis"]) for e in obj["flag"]]
            want = _flag_outcome(lambda: ref.from_flag(entries, rank=obj.get("rank")))
            got = _flag_outcome(lambda: HodgeData.from_obj(obj))
            assert got == want, obj
            kinds[got[0]] += 1
        assert min(kinds.values()) > 500  # both valid and malformed flags are covered

    @pytest.mark.parametrize("entries, rank", [
        ([], 2),
        ([], 0),
        ([(0, [])], None),
        ([(3, [[1, 0]])], 0),
        ([(0, [])], 0),
        ([(0, [[1, 2], [2, 4]]), (1, [[3, 6]])], None),
        ([(1, [[1, 0]]), (1, [[1, 0]])], 2),
        ([(0, [[1, 0]]), (1, [[0, 1]])], 2),
        ([(0, [[1, 0], [0]])], None),
        ([(0, [[0, 0]]), (1, [[1, 0]])], 2),
        ([(2, [["1/2", "-3/4", "0"]]), (0, [[1, 0, 0], [0, 1, 0]])], 3),
    ], ids=["none", "none-rank-0", "empty-basis", "rank-0", "rank-0-empty", "dependent",
            "duplicate", "unnested", "ragged", "zero-then-line", "unsorted"])
    def test_edge_cases_match_the_reference(self, entries, rank):
        want = _flag_outcome(lambda: ref.from_flag(entries, rank=rank))
        assert _flag_outcome(lambda: HodgeData.from_flag(entries, rank=rank)) == want


def test_from_flag_runs_one_elimination_per_entry(monkeypatch):
    import slopecalc.rational as rational

    def forbidden(*args):
        raise AssertionError("from_flag must not call rref_rows or span_leq")

    monkeypatch.setattr(rational, "rref_rows", forbidden)
    monkeypatch.setattr(rational, "span_leq", forbidden)
    assert not hasattr(filtration, "rref_rows") and not hasattr(filtration, "span_leq")
    calls = []
    real = filtration._gauss_jordan
    monkeypatch.setattr(filtration, "_gauss_jordan", lambda rows, n: calls.append(n) or real(rows, n))
    entries = [(0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (1, [[1, 1, 0], [0, 1, 0]]),
               (2, [[2, 2, 0], [1, 1, 0]]), (3, [])]
    h = HodgeData.from_flag(entries, rank=3)
    assert h.weights == (0, 1, 2)
    assert calls == [3, 3, 3, 3]
