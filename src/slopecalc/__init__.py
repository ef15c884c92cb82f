"""Exact slope calculus for p-adic Hodge data.

Rational-exact Newton polygons, Frobenius modules with monodromy, Hodge
filtrations, Harder-Narasimhan filtrations with weak-admissibility and
acyclicity deciders, formal coherent-sheaf and finite-dimensional vector
space bookkeeping, and a consistency battery for synthetic two-degree
cohomology data.  Everything is computed over `fractions.Fraction`; no
floating point arithmetic is used anywhere.

Submodules load on first use (PEP 562): `slopecalc.PhiModule` imports
`isocrystal` when it is first read, so a command that needs two modules
compiles only those two.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("base", "bc", "diagram", "filtration", "hn", "isocrystal", "rational", "sheaf")

# public name -> the submodule that defines it
_OWNERS = {
    name: module
    for module, names in {
        "base": (
            "Dimension INFINITY FlagRequiredError InputError Polygon newton_polygon rat rat_str "
            "valuation"
        ),
        "bc": (
            "BCObject QBCObject canonical_filtration check_exact dimension "
            "ext_tables height_functor_rank hn_slopes label_b label_c label_qp"
        ),
        "diagram": (
            "BatteryReport SyntheticCohomology battery build_modification dichotomy mv_check"
        ),
        "filtration": "HodgeData dual_hodge induced_on_subspace shift t_h",
        "hn": (
            "FilteredPhiModule HNFiltration Verdict degree enumerate_subobjects fn4_reduce "
            "hn_filtration is_acyclic is_weakly_admissible vst_dimension"
        ),
        "isocrystal": (
            "PhiModule SlopeMultiset det dual from_slopes newton_slopes t_n tensor"
        ),
        "rational": "RatMatrix charpoly",
        "sheaf": "FFSheaf canonicalize cohomology_dim hom_dim",
    }.items()
    for name in names.split()
}

__all__ = sorted((*_OWNERS, *_SUBMODULES))


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
