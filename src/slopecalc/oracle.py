"""The CLI's `--oracle` cross-checks, loaded only by a call that asks for them.

Each check re-derives a command's result along a brute-force path, or tests
an identity the result must satisfy, and raises on disagreement; none
changes the output.  The checks raise explicitly rather than by `assert`, so
they also run under `python -O`, and a failure is an internal fault (exit 4).
Like the handlers, a check imports the modules it needs when it runs.
"""

from __future__ import annotations

from fractions import Fraction

from .base import lower_hull_vertices, rat, valuation


def require(ok: bool, what: str) -> None:
    """An oracle check that `python -O` keeps: failure is an internal fault."""
    if not ok:
        raise AssertionError(f"internal: oracle: {what}")


def check_newton(coeffs, p, got):
    """The Newton slopes by a walk along the lower envelope, one edge at a time."""
    pts = [(i, valuation(c, p)) for i, c in enumerate(coeffs) if rat(c) != 0]
    walk = []
    cur = 0
    while cur < len(pts) - 1:
        x0, y0 = pts[cur]
        best = None
        for j in range(cur + 1, len(pts)):
            x1, y1 = pts[j]
            s = Fraction(y1 - y0, x1 - x0)
            if best is None or s < best[0] or (s == best[0] and x1 > pts[best[1]][0]):
                best = (s, j)
        walk.append((-best[0], pts[best[1]][0] - x0))
        cur = best[1]
    walk.sort(key=lambda t: t[0])
    require(walk == got, "envelope walk disagrees with hull slopes")


def check_hodge(h):
    from .filtration import dual_hodge, t_h

    require(t_h(dual_hodge(h)) == -t_h(h), "dual weight sum")
    require(dual_hodge(dual_hodge(h)).weights == h.weights, "double dual")


def _stable(m, basis) -> tuple:
    """`basis`, checked to span a subspace stable under phi and N."""
    from .rational import restriction_matrix, span_contains

    require(restriction_matrix(m.module.phi, basis) is not None, "unstable subspace")
    for v in basis:
        require(span_contains(basis, m.module.nilpotent.apply(v)), "not N-stable")
    return basis


def check_verdict(m, verdict, kind):
    """Stability of every element of the lattice the verdict was read from (the
    module keeps it, `m.lattice`); a certified-true verdict is re-scored on every
    element by `sub_invariants`, a certified-false one on its witness."""
    from . import hn

    lattice = m.lattice
    subs = [_stable(m, lattice.basis(key)) for key in lattice.keys]
    total = hn.degree(m)
    bound = 0 if kind == "wa" else total
    if verdict.status == hn.STATUS_TRUE:
        require(kind != "wa" or total == 0, "weakly admissible module of nonzero degree")
        for basis in subs:
            _, _, _, d = hn.sub_invariants(m, basis)
            require(d <= bound, "a subobject violates a certified-true verdict")
    if verdict.status == hn.STATUS_FALSE and verdict.witness:
        _, _, _, d = hn.sub_invariants(m, verdict.witness)
        if kind == "wa":
            require(total != 0 or d > 0, "witness does not violate")
        else:
            require(d > total, "witness does not violate")


def _hn_slopes(m) -> list:
    """(slope, graded rank) along the upper concave hull of the points (r, M_r),
    M_r the largest degree at rank r over every element of the module's
    lattice, each scored by `sub_invariants`."""
    from . import hn

    lattice, best = m.lattice, {}
    for key in lattice.keys:
        k, _, _, d = hn.sub_invariants(m, _stable(m, lattice.basis(key)))
        best[k] = max(best.get(k, d), d)
    hull = lower_hull_vertices((k, -d) for k, d in sorted(best.items()))  # upside down
    return [((y1 - y2) / (k2 - k1), k2 - k1) for (k1, y1), (k2, y2) in zip(hull, hull[1:])]


def check_hn(m, filt):
    """The steps nest, with strictly falling slopes, up to V, and each basis
    scores its step's cumulative (rank, degree) by `sub_invariants`; on a
    certified result the slopes are those of the lattice's HN polygon."""
    from . import hn
    from .rational import span_leq

    prev, rank, deg = (), 0, 0
    for step in filt.steps:
        rank, deg = rank + step.graded_rank, deg + step.graded_degree
        require(step.graded_rank > 0 and step.slope * step.graded_rank == step.graded_degree,
                "an HN step's slope is not its graded degree over its graded rank")
        require(span_leq(prev, step.basis), "HN steps do not nest")
        k, _, _, d = hn.sub_invariants(m, _stable(m, step.basis))
        require(k == rank == step.rank and d == deg, "an HN step does not score its degree")
        prev = step.basis
    slopes = filt.slopes()
    require(all(s > t for (s, _), (t, _) in zip(slopes, slopes[1:])), "HN slopes do not fall")
    require(rank == m.rank, "the last HN step is not V")
    if filt.certified:
        require(slopes == _hn_slopes(m), "HN slopes disagree with the lattice's polygon")


def check_vst(m, res):
    """On a certified result, H^0 and whether H^1 vanishes as the lattice's HN
    polygon gives them: each slope s >= 0 of graded rank r adds (s r, r)."""
    if res.certified:
        slopes = _hn_slopes(m)
        h0 = (sum(s * r for s, r in slopes if s >= 0), sum(r for s, r in slopes if s >= 0))
        require((res.h0.dim, res.h0.ht) == h0, "H^0 disagrees with the lattice's polygon")
        require(res.h1_nonvanishing == any(s < 0 for s, _ in slopes), "H^1 disagrees")


def check_fn4(m, reduced):
    """The reduction keeps the module and its flag form, each of its levels
    lies inside the input's at the same index, and its weak admissibility is
    certified true and passes `check_verdict`."""
    from . import hn
    from .rational import span_leq

    old, new = m.hodge, reduced.hodge
    require(reduced.module == m.module and new.kind == old.kind, "fn4 changes the module")
    for j in {j for j, _ in old.levels} | {j for j, _ in new.levels}:
        require(span_leq(new.subspace_at(j), old.subspace_at(j)), "fn4 raises a level")
    verdict = hn.is_weakly_admissible(reduced)
    require(verdict.status == hn.STATUS_TRUE, "fn4 output is not certified weakly admissible")
    check_verdict(reduced, verdict, "wa")


def check_tensor(a, b, product):
    """The checks that building the product skips: the rule N.phi = p.phi.N,
    and the valuation of its own determinant (infinite for a zero one), which
    must be m t_N(a) + n t_N(b) for ranks n of a and m of b, and the t_N it
    was given."""
    from .isocrystal import _monodromy_fault
    from .rational import int_matrix

    fault = _monodromy_fault(product, int_matrix(product.phi)[0])
    require(fault is None, "tensor product breaks N.phi = p.phi.N")
    vp = valuation(product.phi.det(), product.p)
    require(vp == product.tn == b.rank * a.tn + a.rank * b.tn, "tensor degree additivity")


def check_cohdim(s, dims):
    require(dims.h0.dim - dims.h1.dim == s.degree(), "Euler degree mismatch")
    require(dims.h0.ht + dims.h1.ht == s.rank(), "Euler rank mismatch")


def check_canfil(w, gt0, eq0, lt0):
    from .bc import dimension

    total = gt0.direct_sum(eq0).direct_sum(lt0)
    require(dimension(total) == dimension(w), "filtration loses pieces")


def check_ext(triple, k_degree):
    if triple.unit is not None:
        scale = k_degree if triple.unit == "K" else 1
        chi = scale * (triple.ext0 - triple.ext1 + triple.ext2)
        require(chi == triple.euler_qp, "Euler characteristic mismatch")


def check_battery(report):
    if report.certified:
        require(report.consistent, "certified verdicts disagree")


def check_dichotomy(res):
    require((res.branch == "surjective") == (res.deficit == 0), "branch exclusivity")
