"""Per-layer call counts and self times, measured from outside the library.

`Tracer.install()` wraps the public functions of each slopecalc module and
rebinds every `slopecalc.*` namespace that holds them, since `hn`, `diagram`
and `cli` import their callees by name.  `RatMatrix.rref` and `.det` are
wrapped on the class.  A layer's span starts when control enters it from a
different layer; its self time is the span minus the spans of the layers it
calls.  Counters are aggregated in memory; no span is stored.
"""

import sys
from time import perf_counter

# layer name -> (module, function names); "RatMatrix.x" means a method.
LAYERS = {
    "rational.rref": ("rational", ("RatMatrix.rref",)),
    "rational.det": ("rational", ("RatMatrix.det",)),
    "rational.charpoly": ("rational", ("charpoly",)),
    "rational.span": ("rational", (
        "rref_rows", "coordinates", "span_contains", "span_leq", "span_sum",
        "span_intersect", "restriction_matrix", "complement_basis",
    )),
    "isocrystal.newton_slopes": ("isocrystal", ("newton_slopes",)),
    "isocrystal.dm": ("isocrystal", ("dm_blocks", "is_dm_normal")),
    "isocrystal.from_slopes": ("isocrystal", ("from_slopes",)),
    "filtration.induced_on_subspace": ("filtration", ("induced_on_subspace",)),
    "filtration.t_h": ("filtration", ("t_h",)),
    "hn.enumerate_subobjects": ("hn", ("enumerate_subobjects",)),
    "hn.sub_invariants": ("hn", ("sub_invariants",)),
    "hn.hn_filtration": ("hn", ("hn_filtration",)),
    "hn.is_acyclic": ("hn", ("is_acyclic",)),
    "hn.is_weakly_admissible": ("hn", ("is_weakly_admissible",)),
    "hn.vst_dimension": ("hn", ("vst_dimension",)),
    "hn.fn4_reduce": ("hn", ("fn4_reduce",)),
    "sheaf.cohomology_dim": ("sheaf", ("cohomology_dim",)),
    "sheaf.hom_dim": ("sheaf", ("hom_dim",)),
    "bc.dimension": ("bc", ("dimension",)),
    "bc.check_exact": ("bc", ("check_exact",)),
    "bc.height_functor_rank": ("bc", ("height_functor_rank",)),
    "bc.ext_tables": ("bc", ("ext_tables",)),
    "diagram.battery": ("diagram", ("battery",)),
    "diagram.build_modification": ("diagram", ("build_modification",)),
    "diagram.dichotomy": ("diagram", ("dichotomy",)),
    "diagram.mv_check": ("diagram", ("mv_check",)),
    "cli.run": ("cli", ("run",)),
}
ENUMERATE = "hn.enumerate_subobjects"


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.lattice_elements = 0
        self.enumerations = 0
        self.repeats = 0
        self._seen = set()
        self._stack = []
        self._undo = []

    def begin_call(self):
        """Start a workload call: repeats are counted within one call."""
        self._seen = set()

    def reset(self):
        """Zero the counters, e.g. after warm-up; wrappers stay installed."""
        for layer in LAYERS:
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
        self.lattice_elements = self.enumerations = self.repeats = 0

    def _wrap(self, layer, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        enumerate_layer = layer == ENUMERATE

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if enumerate_layer:
                self._count_lattice(args[0], result[0])
            return result

        return traced

    def _count_lattice(self, m, elements):
        self.enumerations += 1
        self.lattice_elements += len(elements)
        key = (m.module.phi, m.module.nilpotent)
        if key in self._seen:
            self.repeats += 1
        self._seen.add(key)

    def install(self):
        """Wrap every layer function in every slopecalc namespace holding it."""
        spaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "slopecalc" or name.startswith("slopecalc."))]
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules.get(f"slopecalc.{modname}")
            if module is None:
                continue  # never imported (cli in the library workloads), never called
            for name in names:
                if name.startswith("RatMatrix."):
                    cls, attr = module.RatMatrix, name.split(".")[1]
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(layer, original))
                    self._undo.append((cls, attr, original))
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(layer, original)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            setattr(space, attr, wrapped)
                            self._undo.append((space, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def metrics(self):
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["hn.lattice.elements"] = (self.lattice_elements, "count")
        ratio = self.repeats / self.enumerations if self.enumerations else 0.0
        out["hn.lattice.repeat_ratio"] = (ratio, "ratio")
        return out
