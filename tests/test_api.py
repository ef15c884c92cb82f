"""The package's public names, which its `__init__` resolves on first use."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import slopecalc

ROOT = pathlib.Path(__file__).resolve().parents[1]

PUBLIC = [
    "BCObject", "BatteryReport", "Dimension", "FFSheaf", "FilteredPhiModule",
    "FlagRequiredError", "HNFiltration", "HodgeData", "INFINITY", "InputError",
    "PhiModule", "Polygon", "QBCObject", "RatMatrix", "SlopeMultiset",
    "SyntheticCohomology", "Verdict", "battery", "bc", "build_modification",
    "canonical_filtration", "canonicalize", "charpoly", "check_exact",
    "cohomology_dim", "degree", "det", "diagram", "dichotomy", "dimension", "dual",
    "dual_hodge", "enumerate_subobjects", "ext_tables", "filtration", "fn4_reduce",
    "from_slopes", "height_functor_rank", "hn", "hn_filtration", "hn_slopes", "hom_dim",
    "induced_on_subspace", "is_acyclic", "is_weakly_admissible", "isocrystal", "label_b",
    "label_c", "label_qp", "mv_check", "newton_polygon", "newton_slopes", "rat",
    "rat_str", "rational", "sheaf", "shift", "t_h", "t_n", "tensor", "valuation",
    "vst_dimension",
]

SUBMODULES = ("bc", "diagram", "filtration", "hn", "isocrystal", "rational", "sheaf")


def test_all_lists_the_public_names():
    assert slopecalc.__all__ == PUBLIC


def test_each_public_name_resolves():
    for name in PUBLIC:
        value = getattr(slopecalc, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"slopecalc.{name}"]
        else:  # the object its defining submodule binds to the same name
            owners = [m for m in SUBMODULES
                      if getattr(sys.modules.get(f"slopecalc.{m}"), name, None) is value]
            assert owners, name


def test_det_is_the_isocrystal_determinant():
    assert slopecalc.det is slopecalc.isocrystal.det


def test_dimension_is_shared_by_bc_and_rational():
    assert slopecalc.Dimension is slopecalc.bc.Dimension is slopecalc.rational.Dimension


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(slopecalc))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        slopecalc.no_such_name
    assert not hasattr(slopecalc, "no_such_name")


def test_star_import_binds_every_name_in_a_fresh_process():
    script = (
        "import json, sys\n"
        "from slopecalc import *\n"
        f"missing = [n for n in {PUBLIC!r} if n not in globals()]\n"
        "sys.stdout.write(json.dumps(missing))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_bench_tracer_layers_resolve():
    """Every function the bench tracer wraps exists under the name it uses."""
    import importlib

    for layer, (modname, names) in _bench_tracer().LAYERS.items():
        module = importlib.import_module(f"slopecalc.{modname}")
        for name in names:
            owner = module
            for attr in name.split("."):
                assert hasattr(owner, attr), f"{layer}: slopecalc.{modname}.{name} is gone"
                owner = getattr(owner, attr)
            assert callable(owner), f"{layer}: slopecalc.{modname}.{name} is not callable"


def _bench_tracer():
    import importlib.util

    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_no_dead_module_level_functions():
    """Every module-level function and class of `src/slopecalc` is referenced
    by name elsewhere in `src/` (not only from its own body), exported
    through `slopecalc._OWNERS`, or wrapped by name by the bench tracer."""
    import ast

    defined, referenced = {}, set()
    tops = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted((ROOT / "src" / "slopecalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            own = top.name if isinstance(top, tops) else None
            if own:
                defined[own] = path.name
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else (
                    node.attr if isinstance(node, ast.Attribute) else None)
                if name and name != own:
                    referenced.add(name)
    wrapped = {name.split(".")[-1] for _, names in _bench_tracer().LAYERS.values()
               for name in names}
    kept = referenced | set(slopecalc._OWNERS) | wrapped
    dead = sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in kept and not name.startswith("__"))
    assert dead == []
