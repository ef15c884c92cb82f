import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc import hn
from slopecalc.bc import BCObject, dimension
from slopecalc.diagram import (
    BatteryReport,
    MVReport,
    SyntheticCohomology,
    battery,
    build_modification,
    dichotomy,
    mv_check,
)
from slopecalc.filtration import HodgeData
from slopecalc.hn import (
    STATUS_FALSE,
    STATUS_TRUE,
    STATUS_UNCERTIFIED,
    FilteredPhiModule,
    Verdict,
    enumerate_subobjects,
    is_acyclic,
    vst_dimension,
)
from slopecalc.isocrystal import PhiModule, SlopeMultiset, from_slopes
from slopecalc.base import FlagRequiredError, InputError
from slopecalc.rational import RatMatrix
from slopecalc.sheaf import cohomology_dim

from _generators import (
    certified_filtered_instance,
    diagonal_instance,
    random_flag,
    random_unimodular,
)

P = 2


def fm(phi, flag_entries, rank, nil=None):
    return FilteredPhiModule(
        PhiModule.from_matrices(P, phi, nil),
        HodgeData.from_flag(flag_entries, rank=rank),
    )


def full_flag_all_weight(n, w):
    ident = [[F(i == j) for j in range(n)] for i in range(n)]
    return HodgeData.from_flag([(w, ident)], rank=n) if w != 0 else HodgeData.from_flag([(0, ident)], rank=n)


STEIN = fm([[1, 0], [0, P]], [(1, [[1, 0], [0, 1]])], 2)
PROPER = fm([[1, 0], [0, P]], [(1, [[0, 1]])], 2)
BAD = fm([[P]], [(0, [[1]])], 1)


class TestBuildModification:
    def test_unit_line_weight_one(self):
        mod = build_modification(PhiModule.from_matrices(P, [[1]]),
                                 HodgeData.from_flag([(1, [[1]])], rank=1), 1)
        assert mod.certified and mod.sheaf.bundle == ((F(1), 1),)

    def test_weakly_admissible_gives_trivial_bundle(self):
        mod = build_modification(PROPER.module, PROPER.hodge, 1)
        assert mod.sheaf.bundle == ((F(0), 2),)

    def test_negative_line(self):
        mod = build_modification(BAD.module, BAD.hodge, 1)
        assert mod.sheaf.bundle == ((F(-1), 1),)

    def test_window_validation(self):
        with pytest.raises(InputError):
            build_modification(PhiModule.from_matrices(P, [[8]]),
                               HodgeData.from_flag([(1, [[1]])], rank=1), 1)
        with pytest.raises(InputError):
            build_modification(PhiModule.from_matrices(P, [[1]]),
                               HodgeData.from_flag([(2, [[1]])], rank=1), 1)

    def test_degree_and_rank_invariants(self):
        mod = build_modification(STEIN.module, STEIN.hodge, 1)
        from slopecalc.hn import degree

        assert mod.sheaf.degree() == degree(STEIN)
        assert mod.sheaf.rank() == STEIN.rank


class TestDichotomy:
    def test_weakly_admissible_surjective(self):
        res = dichotomy(PROPER.module, PROPER.hodge, 1)
        assert res.branch == "surjective" and res.deficit == 0

    def test_bad_line(self):
        res = dichotomy(BAD.module, BAD.hodge, 1)
        assert res.branch == "positive-height-image" and res.deficit == 1

    def test_stein_surjective(self):
        assert dichotomy(STEIN.module, STEIN.hodge, 1).branch == "surjective"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_exhaustive_exclusive(self, seed):
        rng = random.Random(seed)
        r = rng.randint(1, 3)
        m = certified_filtered_instance(rng, max_rank=min(r + 1, 3),
                                        weight_lo=0, weight_hi=r, exp_lo=0, exp_hi=r)
        res = dichotomy(m.module, m.hodge, r)
        assert res.branch in ("surjective", "positive-height-image")
        assert (res.branch == "surjective") == (res.deficit == 0)
        if res.certified:
            assert (res.branch == "surjective") == (is_acyclic(m).status == STATUS_TRUE)


class TestBattery:
    def test_stein_like(self):
        rep = battery(SyntheticCohomology.build(1, STEIN))
        assert rep.certified and rep.consistent
        assert all(v.is_true for v in rep.verdicts().values())
        assert rep.ht_glued == 2 == rep.dim_de_rham

    def test_proper_like(self):
        rep = battery(SyntheticCohomology.build(1, PROPER))
        assert all(v.is_true for v in rep.verdicts().values())
        assert rep.ht_glued == rep.dim_de_rham == 2

    def test_failure_case(self):
        rep = battery(SyntheticCohomology.build(1, BAD))
        assert rep.certified and rep.consistent
        assert not rep.verdict_a.is_true
        assert not rep.verdict_b_r.is_true
        assert not rep.verdict_cprime.is_true
        assert not rep.verdict_d.is_true
        assert rep.verdict_b_rm1.is_true  # vacuous at the trivial degree
        assert rep.ht_glued == 0 and rep.dim_de_rham == 1

    def test_lower_degree_failure_propagates(self):
        # acyclic at degree r, non-acyclic at degree r-1
        bad_below = fm([[P]], [(0, [[1]])], 1)
        s = SyntheticCohomology.build(2, fm([[1]], [(1, [[1]])], 1), bad_below)
        rep = battery(s)
        assert not rep.verdict_b_rm1.is_true
        assert not rep.verdict_d.is_true
        assert rep.consistent

    def test_window_enforced(self):
        with pytest.raises(InputError):
            SyntheticCohomology.build(1, fm([[P ** 3]], [(1, [[1]])], 1))

    def test_json_roundtrip(self):
        s = SyntheticCohomology.build(1, STEIN, None)
        again = SyntheticCohomology.from_obj(s.to_obj())
        assert again.top == s.top and again.r == s.r and again.below.rank == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_weight_window_maximal_always_true(self, seed):
        # weights all equal to the degree: the target quotient collapses
        rng = random.Random(seed)
        r = rng.randint(1, 3)
        n = rng.randint(1, min(3, r + 1))  # distinct exponents must fit in [0, r]
        from _generators import diagonal_instance

        mod = diagonal_instance(rng, P, n, 0, r)
        ident = [[F(i == j) for j in range(n)] for i in range(n)]
        hodge = HodgeData.from_flag([(r, ident)], rank=n)
        rep = battery(SyntheticCohomology.build(r, FilteredPhiModule(mod, hodge)))
        if rep.certified:
            assert all(v.is_true for v in rep.verdicts().values())


def battery_by_separate_calls(s):
    """The battery report assembled from one `is_acyclic`, `build_modification`
    and `vst_dimension` call per degree, each enumerating on its own."""
    def status(flag, certified, witness):
        if not certified:
            return Verdict(STATUS_UNCERTIFIED)
        return Verdict(STATUS_TRUE) if flag else Verdict(STATUS_FALSE, witness or ())

    degrees = (s.below, s.top)
    acyc = [is_acyclic(m) for m in degrees]
    h1s, mod_cert, ht0, vst_cert = [], True, [], True
    for m in degrees:
        mod = build_modification(m.module, m.hodge, s.r)
        h1s.append(cohomology_dim(mod.sheaf).h1.quotient_type)
        mod_cert = mod_cert and mod.certified
        vst = vst_dimension(m) if m.rank else None
        ht0.append(vst.h0.ht if vst else 0)
        vst_cert = vst_cert and (vst.certified if vst else True)
    rank_rm1, rank_r = s.below.rank, s.top.rank
    ker_ht, coker_ht = ht0[0] - rank_rm1, rank_r - ht0[1]
    ht_glued = ht0[1] - (rank_rm1 - ht0[0])
    a = status(not any(h1s), mod_cert, acyc[0].witness if h1s[0] else acyc[1].witness)
    c = status(ker_ht == coker_ht == 0, vst_cert,
               acyc[0].witness if ker_ht else acyc[1].witness)
    d = status(ht_glued == rank_r, vst_cert, acyc[1].witness if coker_ht else acyc[0].witness)
    if any(v.status == STATUS_FALSE for v in acyc):
        b = Verdict(STATUS_FALSE, acyc[0].witness or acyc[1].witness or ())
    else:
        b = Verdict(STATUS_TRUE if all(v.is_true for v in acyc) else STATUS_UNCERTIFIED)
    votes = {v.is_true for v in (a, b, c, d) if v.certified}
    certified = all(v.certified for v in (a, b, c, d, *acyc))
    return BatteryReport(a, acyc[0], acyc[1], c, d, len(votes) <= 1, certified, ht_glued, rank_r)


def windowed(rng, r, rank_cap):
    """Seeded eigenline pair with slopes and weights in [0, r]."""
    return certified_filtered_instance(rng, max_rank=min(r + 1, rank_cap), weight_lo=0,
                                       weight_hi=r, exp_lo=0, exp_hi=r)


def battery_cases():
    rng = random.Random(606)
    cases = {
        "r0-rank0-below": SyntheticCohomology.build(0, fm([[1]], [(0, [[1]])], 1)),
        "stein": SyntheticCohomology.build(1, STEIN),
        "proper": SyntheticCohomology.build(1, PROPER),
        "certified-false": SyntheticCohomology.build(1, BAD),
        "false-below": SyntheticCohomology.build(2, fm([[1]], [(1, [[1]])], 1), BAD),
        "scalar-chain": SyntheticCohomology.build(
            2, fm([[P, 0], [0, P]], [(1, [[1, 0], [0, 1]]), (2, [[1, 1]])], 2), PROPER
        ),
        "sample": SyntheticCohomology.build(
            2, fm([[1, 1], [0, 1]], [(1, [[1, 1]])], 2), fm([[1, 1], [0, 1]], [(1, [[1, 0]])], 2)
        ),
    }
    # eigenvalue 1 twice: a sampled lattice whose HN steps depend on the
    # sample's random vectors
    rng_sample = random.Random(18)
    conj = random_unimodular(rng_sample, 3)
    phi = conj @ RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, P]]) @ conj.inverse()
    cases["sample-seeded"] = SyntheticCohomology.build(2, FilteredPhiModule(
        PhiModule(P, phi, RatMatrix([[0] * 3] * 3)), random_flag(rng_sample, 3, 0, 2)
    ))
    for k, slopes in enumerate(([(F(1, 2), 2), (F(0), 1)], [(F(3, 2), 2), (F(1), 1)])):
        r = k + 1
        top = from_slopes(SlopeMultiset(slopes), P)
        below = from_slopes(SlopeMultiset([(F(r - 1), 1)]), P)
        cases[f"blocks-{r}"] = SyntheticCohomology.build(
            r, FilteredPhiModule(top, random_flag(rng, 3, 0, r)),
            FilteredPhiModule(below, random_flag(rng, 1, 0, r - 1)),
        )
    for k in range(12):
        r = rng.randint(1, 3)
        cases[f"eigenlines-{k}"] = SyntheticCohomology.build(
            r, windowed(rng, r, 3), windowed(rng, r - 1, 2) if r > 1 else None
        )
    return cases


BATTERY_CASES = battery_cases()


def seeded_pair(rng, kind, n, r):
    """Eigenline ("eigen") or slope normal form ("snf") pair of rank n,
    slopes and weights in [0, r]; an snf pair of rank 2 or 3 has a block of
    slope a/2."""
    if kind == "eigen":
        mod = diagonal_instance(rng, P, n, 0, r)
    else:
        slopes = [(F(rng.randint(0, r)), 1)] if n != 2 else []
        if n > 1:
            slopes.append((F(rng.randrange(1, 2 * r, 2), 2), 2))
        mod = from_slopes(SlopeMultiset(slopes), P)
    return FilteredPhiModule(mod, random_flag(rng, n, 0, r))


def seeded_pairs():
    """Two-degree data with a top pair of each kind and rank 1-3 at r = 1-3
    (an eigenline pair of rank n needs r >= n - 1), over a pair of the other
    kind in degree r - 1 when r > 1."""
    rng = random.Random(1515)
    cases = {}
    for r in (1, 2, 3):
        for kind, other in (("eigen", "snf"), ("snf", "eigen")):
            for n in range(1, 4):
                if kind == "eigen" and n > r + 1:
                    continue
                below = None
                if r > 1:
                    below = seeded_pair(rng, other, rng.randint(1, 2), r - 1)
                top = seeded_pair(rng, kind, n, r)
                cases[f"{kind}{n}-r{r}"] = SyntheticCohomology.build(r, top, below)
    return cases


SEEDED_PAIRS = seeded_pairs()


class TestBatteryShared:
    """One lattice and one HN filtration per degree, same report as separate calls."""

    def test_cases_cover_every_kind(self):
        kinds = set()
        for s in BATTERY_CASES.values():
            for m in (s.below, s.top):
                if m.rank:
                    lattice = enumerate_subobjects(m)
                    kinds.add(lattice.strategy)
                    if lattice.strategy == "eigenlines":
                        kinds.add("with N" if any(any(r) for r in m.module.nilpotent.entries)
                                  else "without N")
        assert kinds == {"eigenlines", "with N", "without N", "blocks", "scalar-chain", "sample"}
        statuses = {v.status for s in BATTERY_CASES.values() for v in battery(s).verdicts().values()}
        assert statuses == {STATUS_TRUE, STATUS_FALSE, STATUS_UNCERTIFIED}

    @pytest.mark.parametrize("name", sorted(BATTERY_CASES))
    def test_equals_separate_calls(self, name):
        s = BATTERY_CASES[name]
        assert battery(s) == battery_by_separate_calls(s)

    @pytest.mark.parametrize("name", sorted(BATTERY_CASES))
    def test_one_lattice_and_one_filtration_per_degree(self, name, monkeypatch):
        s = rebuilt(BATTERY_CASES[name])
        calls = {"enumerate_subobjects": [], "hn_filtration": []}
        for fn_name, seen in calls.items():
            real = getattr(hn, fn_name)

            def counted(m, *args, _real=real, _seen=seen):
                _seen.append(m)
                return _real(m, *args)

            # both are looked up on the hn module at call time
            monkeypatch.setattr(hn, fn_name, counted)
        battery(s)
        # a degree of rank zero is answered by the deciders, with no lattice
        assert calls["enumerate_subobjects"] == [m for m in (s.below, s.top) if m.rank]
        assert calls["hn_filtration"] == [s.below, s.top]

    @pytest.mark.parametrize("name", sorted(BATTERY_CASES) + sorted(SEEDED_PAIRS))
    def test_one_scorer_per_degree(self, name, monkeypatch):
        # acyclicity and the HN filtration of a degree share the scorer it keeps
        s = BATTERY_CASES[name] if name in BATTERY_CASES else SEEDED_PAIRS[name]
        want, s = battery_by_separate_calls(s), rebuilt(s)
        built, real = [], hn.lattice_scorer

        def counted(m, *args):
            built.append(m)
            return real(m, *args)

        monkeypatch.setattr(hn, "lattice_scorer", counted)
        assert battery(s) == want
        assert built == [m for m in (s.below, s.top) if m.rank]

    def test_seeded_pairs_cover_both_kinds_and_every_rank(self):
        # a rank-one slope normal form is an eigenline
        strategies = {(enumerate_subobjects(m).strategy, m.rank)
                      for s in SEEDED_PAIRS.values() for m in (s.below, s.top) if m.rank}
        assert strategies == {("eigenlines", 1), ("eigenlines", 2), ("eigenlines", 3),
                              ("blocks", 2), ("blocks", 3)}
        statuses = {battery(s).verdict_b_r.status for s in SEEDED_PAIRS.values()}
        assert statuses == {STATUS_TRUE, STATUS_FALSE}


def rebuilt(s):
    """A twin of the battery input `s` whose modules keep no lattice or scorer yet."""
    return SyntheticCohomology.from_obj(s.to_obj())


def count_calls(monkeypatch, fn):
    """The first argument of every call of `fn`, under every name a slopecalc
    module binds it to (the callers import it by name)."""
    import sys

    seen = []

    def counted(first, *args, **kwargs):
        seen.append(first)
        return fn(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("slopecalc"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return seen


def dichotomy_cases():
    """(name, module, hodge, r): every degree of the battery cases and seeded pairs."""
    out = []
    for name, s in sorted(BATTERY_CASES.items()) + sorted(SEEDED_PAIRS.items()):
        out.append((f"{name}/r", s.top.module, s.top.hodge, s.r))
        if s.below.rank:
            out.append((f"{name}/r-1", s.below.module, s.below.hodge, s.r - 1))
    return out


DICHOTOMY_CASES = dichotomy_cases()


def fresh(mod):
    """A twin of mod that has not computed its characteristic polynomial."""
    twin = PhiModule.from_obj(mod.to_obj())
    assert twin == mod and "coeffs" not in vars(twin)
    return twin


def strategy_of(mod, hodge):
    """The strategy of the lattice of (mod, hodge)."""
    return enumerate_subobjects(FilteredPhiModule(mod, hodge)).strategy


def reads_slopes(mod, hodge):
    """Whether an enumeration of (mod, hodge) takes the Newton polygon: it
    does when the eigenlines do not certify."""
    return strategy_of(mod, hodge) != "eigenlines"


class TestSpectralPass:
    """`rational.charpoly` runs at most once per `PhiModule` object, which
    keeps it as `coeffs`: a dichotomy on a new module runs it once however
    often it is repeated, and a battery input runs it once per degree, when
    `SyntheticCohomology` checks its windows, so `battery` runs none.  The
    Newton polygon is taken once per `PhiModule` object too, which keeps its
    slopes: the window check and the block enumerator share that reading."""

    @pytest.mark.parametrize("name, mod, hodge, r", DICHOTOMY_CASES,
                             ids=[c[0] for c in DICHOTOMY_CASES])
    def test_dichotomy_runs_one_charpoly(self, name, mod, hodge, r, monkeypatch):
        from slopecalc import isocrystal, rational

        want, strategy = dichotomy(mod, hodge, r), strategy_of(mod, hodge)
        twin = fresh(mod)
        charpolys = count_calls(monkeypatch, rational.charpoly)
        slopes = count_calls(monkeypatch, isocrystal.newton_slopes)
        assert dichotomy(twin, hodge, r) == dichotomy(twin, hodge, r) == want
        assert len(charpolys) == 1 and charpolys[0] is twin.phi
        # the window check on each call; an enumeration that reads slope blocks
        # once, as twin keeps every lattice but the scalar chain, which each
        # call's new filtered module builds again
        enumerations = 2 if strategy == "scalar-chain" else 1
        want_slopes = 2 + (strategy != "eigenlines") * enumerations
        assert len(slopes) == want_slopes and all(m is twin for m in slopes)

    def test_dichotomy_cases_cover_every_strategy(self):
        strategies = {enumerate_subobjects(FilteredPhiModule(mod, hodge)).strategy
                      for _, mod, hodge, _ in DICHOTOMY_CASES}
        assert strategies == {"eigenlines", "blocks", "scalar-chain", "sample"}

    @pytest.mark.parametrize("name", sorted(BATTERY_CASES) + sorted(SEEDED_PAIRS))
    def test_battery_runs_one_charpoly_per_degree(self, name, monkeypatch):
        from slopecalc import isocrystal, rational

        s = BATTERY_CASES[name] if name in BATTERY_CASES else SEEDED_PAIRS[name]
        want = battery(s)
        reading = [reads_slopes(m.module, m.hodge) for m in (s.below, s.top) if m.rank]
        charpolys = count_calls(monkeypatch, rational.charpoly)
        slopes = count_calls(monkeypatch, isocrystal.newton_slopes)
        twin = SyntheticCohomology.from_obj(s.to_obj())
        degrees = [m.module for m in (twin.below, twin.top) if m.rank]
        checked = [m.module.phi for m in (twin.top, twin.below) if m.rank]
        assert charpolys == checked  # by the window checks, degree r first
        del charpolys[:], slopes[:]
        assert battery(twin) == want
        # the Newton slopes once for each degree whose enumeration reads slope
        # blocks; the degrees keep their lattices, so a second call reads none
        once = [mod for mod, reads in zip(degrees, reading) if reads]
        assert [id(mod) for mod in slopes] == [id(mod) for mod in once]
        assert battery(twin) == want and len(slopes) == len(once)
        assert charpolys == []

    @pytest.mark.parametrize("name", sorted(BATTERY_CASES) + sorted(SEEDED_PAIRS))
    def test_one_newton_polygon_per_module(self, name, monkeypatch):
        # construction checks the windows, then battery, a dichotomy and an
        # enumeration of each degree read the slopes that degree's module kept
        from slopecalc import base

        def degrees(s):
            return [(m, r) for m, r in ((s.top, s.r), (s.below, s.r - 1)) if m.rank]

        s = BATTERY_CASES[name] if name in BATTERY_CASES else SEEDED_PAIRS[name]
        want = battery(s), [dichotomy(m.module, m.hodge, r) for m, r in degrees(s)]
        polygons = count_calls(monkeypatch, base.newton_polygon)
        twin = rebuilt(s)
        assert battery(twin) == want[0]
        assert [dichotomy(m.module, m.hodge, r) for m, r in degrees(twin)] == want[1]
        for m, _ in degrees(twin):
            enumerate_subobjects(FilteredPhiModule(m.module, m.hodge))
        assert [id(c) for c in polygons] == [id(m.module.coeffs) for m, _ in degrees(twin)]

    @pytest.mark.parametrize("name", sorted(BATTERY_CASES))
    def test_enumeration_and_deciders_share_one_charpoly(self, name, monkeypatch):
        from slopecalc import rational

        charpolys = count_calls(monkeypatch, rational.charpoly)
        s = BATTERY_CASES[name]
        for m in (s.below, s.top):
            if not m.rank:
                continue
            twin = FilteredPhiModule(fresh(m.module), m.hodge)
            del charpolys[:]
            enumerate_subobjects(twin)
            enumerate_subobjects(twin)  # again, on the polynomial the module kept
            for decide in (hn.is_weakly_admissible, is_acyclic, hn.hn_filtration, vst_dimension):
                decide(twin)
            if is_acyclic(twin).status == STATUS_TRUE:
                hn.fn4_reduce(twin)  # lowers the flag of the same module
            assert len(charpolys) == 1 and charpolys[0] is twin.module.phi

    @pytest.mark.parametrize("name", sorted(BATTERY_CASES))
    def test_acyclic_then_hn_take_module_tn_off_the_lattice(self, name, monkeypatch):
        # t_N(M) is read off the module, which kept it when it was built: no
        # decider, and not `degree`, takes a determinant of phi
        s = BATTERY_CASES[name]
        for m in (s.below, s.top):
            if not m.rank:
                continue
            want = is_acyclic(m), hn.hn_filtration(m), hn.degree(m)
            m = FilteredPhiModule(fresh(m.module), m.hodge)
            assert hn.t_n(m.module) == m.module.tn
            dets, real = [], RatMatrix.det

            def counted(self):
                dets.append(self)
                return real(self)

            monkeypatch.setattr(RatMatrix, "det", counted)
            # the enumeration runs here too, and takes no determinant either
            got = is_acyclic(m), hn.hn_filtration(m), hn.degree(m)
            monkeypatch.setattr(RatMatrix, "det", real)
            assert got == want
            assert not any(d is m.module.phi or d == m.module.phi for d in dets)

    @pytest.mark.parametrize("hk, hodge, error, message", [
        # each input breaks every check from its own on: the first one reports
        ([[8, 0], [0, 1]], HodgeData.from_weights([5]), InputError,
         "modification input: module rank 2 != lattice rank 1"),
        ([[8, 0], [0, 1]], HodgeData.from_weights([5, 0]), InputError,
         "modification input: slope 3 outside [0, 1]"),
        ([[1, 0], [0, 2]], HodgeData.from_weights([5, 0]), InputError,
         "modification input: weight 5 outside [0, 1]"),
        ([[1, 0], [0, 2]], HodgeData.from_weights([1, 0]), FlagRequiredError,
         "hn_filtration requires flag-form Hodge data, got weights only"),
    ], ids=["rank", "slope", "weight", "flag"])
    def test_dichotomy_errors_keep_their_order(self, hk, hodge, error, message):
        with pytest.raises(error) as info:
            dichotomy(PhiModule.from_matrices(P, hk), hodge, 1)
        assert type(info.value) is error and str(info.value) == message

    def test_bad_monodromy_cannot_be_built(self, capsys, monkeypatch):
        # the error order starts with construction: a bad N is reported
        # before the rank mismatch that dichotomy would find next
        import io
        import json

        from slopecalc import cli

        with pytest.raises(InputError, match=r"^N must satisfy N\.phi = p\.phi\.N$"):
            PhiModule.from_matrices(P, [[1, 0], [0, 4]], [[1, 0], [0, 0]])
        hk = {"p": P, "phi": [["1", "0"], ["0", "4"]], "N": [["1", "0"], ["0", "0"]]}
        payload = {"hk": hk, "lattice": {"weights": [1]}, "r": 1}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code = cli.run(["dichotomy", "--input", "-"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "N must satisfy N.phi = p.phi.N"

    @pytest.mark.parametrize("fixture", ["battery_two_degrees", "dichotomy_deficit"])
    def test_monodromy_checked_once_per_module(self, fixture, monkeypatch):
        # from parsing through the call, each module's N is checked once: when
        # the module is built, by whichever constructor builds it
        import json
        import pathlib

        from slopecalc import isocrystal

        path = pathlib.Path(__file__).parent / "fixtures" / f"{fixture}.json"
        inp = json.loads(path.read_text(encoding="utf-8"))["input"]
        checked = count_calls(monkeypatch, isocrystal._monodromy_fault)  # keeps each module alive
        if fixture.startswith("battery"):
            s = SyntheticCohomology.from_obj(inp)
            battery(s)
            parsed = [s.top.module, s.below.module]
        else:
            hk = PhiModule.from_obj(inp["hk"])
            dichotomy(hk, HodgeData.from_obj(inp["lattice"]), inp["r"])
            parsed = [hk]
        assert len({id(m) for m in checked}) == len(checked)
        assert all(any(m is mod for m in checked) for mod in parsed)


def split_row(parts):
    """Exact row 0 -> X1 -> X1+X2 -> ... -> Xn -> 0 from summands."""
    objs = [parts[0]]
    for a, b in zip(parts, parts[1:]):
        objs.append(a.direct_sum(b))
    objs.append(parts[-1])
    # arrows alternate kill/inject along the chain
    arrows = []
    kills = [BCObject.zero()] + parts
    for i in range(len(objs) - 1):
        arrows.append({"ker": dimension(kills[i]), "im": dimension(parts[i] if i < len(parts) else parts[-1])})
    return {
        "objects": [o.to_obj() for o in objs],
        "arrows": [{"ker": a["ker"].to_obj(), "im": a["im"].to_obj()} for a in arrows],
    }


class TestMVCheck:
    def mk_rows(self, pa, pb):
        return split_row(pa), split_row(pb)

    def test_identical_rows(self):
        parts = [BCObject.build(qp=1), BCObject.build(ueff=[(1, 1, 1)]),
                 BCObject.build(torsion=[("infty", (2,))])]
        row = split_row(parts)
        rep = mv_check(row, row, 1)
        assert rep.equal and rep.certified

    def test_glued_rows(self):
        # same heights summand by summand, different objects
        pa = [BCObject.build(qp=2), BCObject.build(ueff=[(1, 1, 1)]),
              BCObject.build(torsion=[("infty", (1,))])]
        pb = [BCObject.build(ueff=[(1, 2, 1)], qp=0, torsion=[("infty", (1,))]),
              BCObject.build(qp=1), BCObject.build(torsion=[("infty", (3,))])]
        # align heights: pa hts = [2, 1, 0]; pb hts = [2, 1, 0]
        ra, rb = self.mk_rows(pa, pb)
        rep = mv_check(ra, rb, 1)
        assert rep.equal is True
        assert rep.value == dimension(pa[-1]).ht  # index 3r = 3 holds the last summand

    def test_height_mismatch_reported(self):
        pa = [BCObject.build(qp=1), BCObject.build(qp=1), BCObject.build(qp=1)]
        pb = [BCObject.build(qp=2), BCObject.build(qp=1), BCObject.build(qp=1)]
        ra, rb = self.mk_rows(pa, pb)
        rep = mv_check(ra, rb, 1)
        assert rep.equal is None
        assert any("ht(A_0)" in v for v in rep.violations)

    def test_positive_curvature_reported(self):
        pa = [BCObject.build(uquot=[(1, 1, 1)]), BCObject.build(qp=1), BCObject.build(qp=1)]
        ra, rb = self.mk_rows(pa, pa)
        rep = mv_check(ra, rb, 1)
        assert rep.equal is None and any("curvature" in v for v in rep.violations)

    def test_reports_equal_the_canonical_filtration_rule(self, monkeypatch):
        # seeded rows shaped as the benchmark's (three parts of heights 1-3),
        # some with a quotient piece or torsion away from infty, give the same
        # reports as when the curvature is read off `canonical_filtration`
        from slopecalc import bc

        def part(rng, ht):
            h = rng.randint(1, ht)
            ueff = [(1, h, 1)] if rng.random() < 0.5 else []
            return BCObject.build(
                ueff=ueff, uquot=[(1, 1, 1)] if rng.random() < 0.1 else [],
                torsion=[(rng.choice(["infty", "infty", "x"]), (rng.randint(1, 3),))]
                if rng.random() < 0.5 else [],
                qp=ht - (h if ueff else 0))

        rng, rows = random.Random(36), []
        for _ in range(60):
            heights = [rng.randint(1, 3) for _ in range(3)]
            row_a = split_row([part(rng, ht) for ht in heights])
            heights[0] += rng.random() < 0.25
            rows.append((row_a, split_row([part(rng, ht) for ht in heights])))
        got = [mv_check(a, b, 1) for a, b in rows]
        monkeypatch.setattr(bc, "curvature_nonpositive", lambda w: bc.canonical_filtration(
            w.quotient if isinstance(w, bc.QBCObject) else w)[0].is_zero())
        assert got == [mv_check(a, b, 1) for a, b in rows]
        assert {(r.certified, any("curvature" in v for v in r.violations)) for r in got} == {
            (True, False), (False, False), (False, True)}

    def test_rows_past_the_middle_telescope_from_the_right(self):
        # heights 1, 2, 1 | 2 | 4, 2 at r = 1: the left end telescopes to 0,
        # so the value 2 at index 3 comes from the two objects past it
        parts = [BCObject.build(qp=1), BCObject.build(ueff=[(1, 1, 1)]),
                 BCObject.build(torsion=[("infty", (2,))]), BCObject.build(qp=2),
                 BCObject.build(ueff=[(1, 2, 1)])]
        row = split_row(parts)
        assert len(row["objects"]) == 6
        assert mv_check(row, row, 1) == MVReport(True, 2, (), True)
        assert mv_check(row, row, 0) == MVReport(True, 1, (), True)

    def test_rows_too_short(self):
        pa = [BCObject.build(qp=1)]
        ra, rb = self.mk_rows(pa, pa)
        with pytest.raises(InputError):
            mv_check(ra, rb, 2)


class TestMVWithQuasiObjects:
    def test_quasi_rows_certify(self):
        from slopecalc.bc import Dimension, QBCObject

        # row A carries a torsion core through the first two nodes; row B is
        # the plain version; heights agree index by index
        tail = BCObject.build(torsion=[("infty", (1,))])
        a1 = QBCObject.build([2], BCObject.build(qp=1))
        a2 = QBCObject.build([2], BCObject.build(qp=1, torsion=[("infty", (1,))]))
        b1 = BCObject.build(qp=1)
        b2 = BCObject.build(qp=1, torsion=[("infty", (1,))])

        def row(w1, w2):
            objs = [w1, w2, tail, BCObject.zero()]
            arrows = [
                {"ker": {"dim": 0, "ht": 0}, "im": dimension(w1).to_obj()},
                {"ker": dimension(w1).to_obj(), "im": {"dim": 1, "ht": 0}},
                {"ker": {"dim": 1, "ht": 0}, "im": {"dim": 0, "ht": 0}},
            ]
            return {"objects": [o.to_obj() for o in objs], "arrows": arrows}

        rep = mv_check(row(a1, a2), row(b1, b2), 1)
        assert rep.violations == ()
        assert rep.equal is True and rep.value == 0  # index 3 is the zero object
