"""The CLI's `--oracle` cross-checks, loaded only by a call that asks for them.

Each check re-derives a command's result along a brute-force path, or tests
an identity the result must satisfy, and raises on disagreement; none
changes the output.  The checks raise explicitly rather than by `assert`, so
they also run under `python -O`, and a failure is an internal fault (exit 4).
Like the handlers, a check imports the modules it needs when it runs.
"""

from __future__ import annotations

from fractions import Fraction

from .base import InputError, lower_hull_vertices, rat, valuation


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


def _scalar_maxima(m):
    """[M_0, ..., M_n] when phi = lam * I, else None: every subspace is then
    stable, so the largest degree at rank k is M_k = (the sum of the k largest
    Hodge weights) - k v_p(lam), read off the weights without the lattice."""
    phi = m.module.phi.entries
    lam = phi[0][0] if phi else 1
    if any(x != (lam if i == j else 0) for i, row in enumerate(phi) for j, x in enumerate(row)):
        return None
    top, v = sorted(m.hodge.weights, reverse=True), valuation(lam, m.module.p)
    return [sum(top[:k]) - k * v for k in range(m.rank + 1)]


def check_verdict(m, verdict, kind):
    """Stability of every element of the lattice the verdict was read from (the
    module keeps it, `m.lattice`); a certified-true verdict is re-scored on every
    element by `sub_invariants`, a certified-false one on its witness.  When phi
    is scalar, the verdict is also checked against `_scalar_maxima`: true needs
    every M_k within the bound, and a witness, but V for a `wa` of nonzero
    degree, has the least violating k as its rank.  k runs from 0: every
    lattice holds the zero subspace, so an `acyclic` of negative degree has
    it as its witness."""
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
    maxima = _scalar_maxima(m)
    if maxima is not None and verdict.certified:
        over = [k for k, d in enumerate(maxima) if d > bound]
        if verdict.status == hn.STATUS_TRUE:
            require(not over, "a rank of scalar phi violates a certified-true verdict")
        elif kind != "wa" or total == 0 or len(verdict.witness) != m.rank:
            require(over[:1] == [len(verdict.witness)],
                    "the witness is not at scalar phi's least violating rank")


def _hn_polygons(m) -> list:
    """(whose, slopes): the (slope, graded rank) along the upper concave hull of
    the points (r, M_r), M_r the largest degree at rank r over every element
    of the module's lattice, each scored by `sub_invariants`, and when phi is
    scalar over every subspace, by `_scalar_maxima`."""
    from . import hn

    lattice, best = m.lattice, {}
    for key in lattice.keys:
        k, _, _, d = hn.sub_invariants(m, _stable(m, lattice.basis(key)))
        best[k] = max(best.get(k, d), d)
    polygons = [("the lattice's", _hull_slopes(sorted(best.items())))]
    maxima = _scalar_maxima(m)
    if maxima is not None:
        polygons.append(("scalar phi's", _hull_slopes(enumerate(maxima))))
    return polygons


def _hull_slopes(points) -> list:
    hull = lower_hull_vertices((k, -d) for k, d in points)  # upside down
    return [(Fraction(y1 - y2) / (k2 - k1), k2 - k1) for (k1, y1), (k2, y2) in zip(hull, hull[1:])]


def check_hn(m, filt):
    """The steps nest, with strictly falling slopes, up to V, and each basis
    scores its step's cumulative (rank, degree) by `sub_invariants`; on a
    certified result the slopes are those of each of `_hn_polygons`."""
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
    for whose, polygon in _hn_polygons(m) if filt.certified else ():
        require(slopes == polygon, f"HN slopes disagree with {whose} polygon")


def check_vst(m, res):
    """On a certified result, H^0 and whether H^1 vanishes as each of
    `_hn_polygons` gives them: each slope s >= 0 of graded rank r adds (s r, r)."""
    for whose, slopes in _hn_polygons(m) if res.certified else ():
        h0 = (sum(s * r for s, r in slopes if s >= 0), sum(r for s, r in slopes if s >= 0))
        require((res.h0.dim, res.h0.ht) == h0, f"H^0 disagrees with {whose} polygon")
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


def check_mv(row_a, row_b, r, report):
    """The report re-derived without `height_functor_rank` or
    `curvature_nonpositive`: the violations (heights by `bc.dimension` away
    from index 3r, the curvature sign as the positive part of
    `canonical_filtration`, of the quotient for a quasi object, and declared
    exactness), then the heights telescoped from both ends of each row."""
    from .bc import QBCObject, canonical_filtration, check_exact, dimension
    from .diagram import _parse_row

    (a_objs, a_arrows), (b_objs, b_arrows) = _parse_row(row_a, "A"), _parse_row(row_b, "B")
    rows = (("A", a_objs, a_arrows), ("B", b_objs, b_arrows))
    mid, n = 3 * r, len(a_objs)
    bad = [f"ht(A_{k}) != ht(B_{k})" for k in range(n)
           if k != mid and dimension(a_objs[k]).ht != dimension(b_objs[k]).ht]
    for tag, objs, _ in rows:
        for k, w in enumerate(objs):
            if not canonical_filtration(w.quotient if isinstance(w, QBCObject) else w)[0].is_zero():
                bad.append(f"{tag}_{k} has positive-curvature part")
    for tag, objs, arrows in rows:
        try:
            exact = check_exact(objs, arrows)
        except InputError as exc:
            bad.append(f"row {tag}: {exc}")
            continue
        if not exact:
            bad.append(f"row {tag} fails declared exactness")
    require(tuple(bad) == report.violations, "mv-check violations disagree")
    if bad:
        require((report.equal, report.value, report.certified) == (None, None, False),
                "mv-check answers despite a violation")
        return
    heights = set()  # each row's telescoped height at index 3r and its own
    for objs in (a_objs, b_objs):
        left = right = 0
        for w in objs[:mid]:
            left = dimension(w).ht - left
        for w in objs[:mid:-1]:
            right = dimension(w).ht - right
        heights |= {left + right, dimension(objs[mid]).ht}
    value = heights.pop() if len(heights) == 1 else None
    want = (value is not None, value, value is not None)
    require((report.equal, report.value, report.certified) == want,
            "mv-check's telescoped heights disagree")


def check_dichotomy(res):
    require((res.branch == "surjective") == (res.deficit == 0), "branch exclusivity")
