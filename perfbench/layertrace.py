"""Per-layer spans for ppchow, recorded from outside the program.

The tracer replaces the layer entry points with timing wrappers at every
place they are bound: the module globals of every loaded ``ppchow`` module
(which covers the names other modules import with ``from .x import f``) and
the class attributes of the constructors and methods listed in ``METHODS``.
The program's files are not touched; uninstalling restores the originals.

A layer is the ``ppchow`` module that defines a function.  A span's self time
is its duration minus the time its traced child spans cover; a layer's self
time is the sum over its spans.  ``<layer>.calls`` counts entries into the
layer from another layer or from the benchmark, so calls a layer makes to
itself do not count; the named sub-metrics count every call.
"""

import functools
import json
import time
import types

LAYERS = ("qlinalg", "polyring", "polyhedra", "ppfan", "specialfiber",
          "cycles", "limits", "arithchow", "io", "checks")

# Only public functions are wrapped; private helpers serve their own module.
# Scalar, vector and conversion helpers run millions of times per round; a
# span around each would cost more than the work.  Their time counts toward
# the caller.
HELPERS = {
    "qlinalg": {"rat", "rat_str", "vec", "mat", "zero_vec", "vadd", "vsub",
                "vscale", "vdot", "is_zero_vec", "mat_vec", "transpose"},
    "polyring": {"monomial_exponents"},
}

# Constructors and methods wrapped in addition to the module-level functions.
METHODS = {
    "polyhedra": {"Polyhedron": ("__init__", "intersect"),
                  "Cone": ("__init__", "intersect"),
                  "PolyComplex": ("__init__",),
                  "Fan": ("__init__",)},
    "limits": {"ModelChain": ("__init__",),
               "CurrentTower": ("value", "check_compat", "materialize")},
    "arithchow": {"LimitTower": ("__init__", "check_compat")},
}

# Spans opened at a nesting depth below this are kept one by one; deeper
# ones only in the caller/callee aggregate, which keeps the output small.
KEEP_DEPTH = 3

# qlinalg routines whose first argument is a matrix (or a list of vectors).
MATRIX_ARG = {"rref", "rank", "solve", "kernel_basis", "det", "in_span",
              "span_basis", "smith_normal_form", "hermite_row_basis",
              "lattice_basis", "mat_inverse", "integer_kernel_basis"}

# Named sub-metrics: metric prefix -> the wrapped names it sums over.
GROUPS = {
    "polyhedra.builds": ("polyhedra.Polyhedron.__init__", "polyhedra.Cone.__init__"),
    "polyhedra.intersect": ("polyhedra.Polyhedron.intersect", "polyhedra.Cone.intersect"),
    "polyhedra.complex_build": ("polyhedra.PolyComplex.__init__", "polyhedra.Fan.__init__"),
    "ppfan.graded_basis": ("ppfan.graded_basis",),
    "ppfan.phi_ray": ("ppfan.phi_ray",),
    "ppfan.pushforward": ("ppfan.pushforward",),
    "specialfiber.cross_check": ("specialfiber.ddc_one_shot", "specialfiber.dim_ker_rho"),
    "specialfiber.homology_presentation": ("specialfiber.homology_presentation",),
    "specialfiber.transfers": tuple("specialfiber." + f for f in (
        "alpha", "beta", "zeta", "pullback_special", "iota_upper", "iota_lower",
        "vertical_decompose")),
    "limits.check_compat": ("limits.CurrentTower.check_compat",),
    "limits.tower_stabilization": ("limits.tower_stabilization",),
    "limits.tower_values": ("limits.CurrentTower.value",),
    "arithchow.theta": ("arithchow.theta",),
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("qlinalg.calls", "count"), ("qlinalg.self_s", "s"),
    ("qlinalg.entries", "count"), ("qlinalg.max_entries", "count"),
    ("polyring.calls", "count"), ("polyring.self_s", "s"),
    ("polyhedra.calls", "count"), ("polyhedra.self_s", "s"),
    ("polyhedra.builds", "count"), ("polyhedra.intersect.calls", "count"),
    ("polyhedra.intersect.self_s", "s"), ("polyhedra.complex_build.self_s", "s"),
    ("polyhedra.cone_over.hit_ratio", "ratio"),
    ("ppfan.calls", "count"), ("ppfan.self_s", "s"),
    ("ppfan.graded_basis.self_s", "s"), ("ppfan.phi_ray.calls", "count"),
    ("ppfan.pushforward.self_s", "s"),
    ("specialfiber.calls", "count"), ("specialfiber.self_s", "s"),
    ("specialfiber.cross_check.self_s", "s"),
    ("specialfiber.homology_presentation.self_s", "s"),
    ("specialfiber.transfers.calls", "count"),
    ("cycles.calls", "count"), ("cycles.self_s", "s"),
    ("limits.calls", "count"), ("limits.self_s", "s"),
    ("limits.check_compat.calls", "count"), ("limits.check_compat.self_s", "s"),
    ("limits.tower_stabilization.self_s", "s"), ("limits.tower_values", "count"),
    ("arithchow.calls", "count"), ("arithchow.self_s", "s"),
    ("arithchow.theta.self_s", "s"),
    ("io.calls", "count"), ("io.self_s", "s"), ("io.bytes", "B"),
    ("checks.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
)


class Tracer:
    """In-memory span recorder; spans are recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self._stack = []          # open frames, innermost last
        self.spans = []           # (name, parent span index or -1, start, end)
        self.edges = {}           # (caller name, callee name) -> [calls, total s, self s]
        self.calls = {}           # wrapped name -> calls
        self.self_s = {}          # wrapped name -> self seconds
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.layer_self_s = dict.fromkeys(LAYERS, 0.0)
        self.top_s = 0.0          # time covered by spans the benchmark opened
        self.entries = 0
        self.max_entries = 0
        self.io_bytes = 0
        self.cone_over_calls = 0
        self.cone_over_hits = 0
        self._cone_over_seen = {}
        self._installed = []      # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        short = name.rsplit(".", 1)[1]
        matrix_arg = layer == "qlinalg" and short in MATRIX_ARG
        self.calls[name] = 0
        self.self_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                tracer.layer_calls[layer] += 1
                if matrix_arg and args:
                    tracer._count_entries(args[0])
            # frame: layer, name, child seconds, index of the kept span or -1
            frame = [layer, name, 0.0, -1]
            if len(stack) < KEEP_DEPTH:
                frame[3] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.layer_self_s[layer] += own
                edge = (parent[1] if parent else "", name)
                agg = tracer.edges.get(edge)
                if agg is None:
                    tracer.edges[edge] = [1, duration, own]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += own
                if parent is None:
                    tracer.top_s += duration
                else:
                    parent[2] += duration
                if frame[3] >= 0:
                    tracer.spans[frame[3]] = (name, parent[3] if parent else -1,
                                              start, end)
            if short == "cone_over":
                tracer._note_cone_over(args[0], result)
            elif short == "dump_json" and isinstance(result, str):
                tracer.io_bytes += len(result.encode())
            return result

        return wrapper

    def _count_entries(self, matrix):
        try:
            rows = len(matrix)
            cols = len(matrix[0]) if rows else 0
        except TypeError:
            return
        self.entries += rows * cols
        self.max_entries = max(self.max_entries, rows * cols)

    def _note_cone_over(self, pc, result):
        # The seen map holds the result, which holds the complex, so an id
        # cannot be reused while it is in the map.
        self.cone_over_calls += 1
        if self._cone_over_seen.get(id(pc)) is result:
            self.cone_over_hits += 1
        self._cone_over_seen[id(pc)] = result

    def note_read(self, text):
        """Count JSON text the benchmark hands to the io layer for parsing."""
        if self.active:
            self.io_bytes += len(text.encode())

    def end_round(self):
        self._cone_over_seen.clear()

    def install(self, package_modules):
        """Wrap the layer entry points at every binding in ``package_modules``.

        ``package_modules`` maps a module name (``"ppchow.qlinalg"``, ...) to
        the module; every module in it is scanned for bindings to rebind.
        """
        wrappers = {}
        for layer in LAYERS:
            mod = package_modules["ppchow." + layer]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in HELPERS.get(layer, ())):
                    wrappers[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    wrapped = self._wrap(layer, f"{layer}.{cls_name}.{meth}", original)
                    self._installed.append((cls, meth, original))
                    setattr(cls, meth, wrapped)
        for mod in package_modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- report --------------------------------------------------------

    def _group(self, table, prefix):
        return sum(table[n] for n in GROUPS[prefix] if n in table)

    def metrics(self, rounds, op_wall_s, ref_per_wall, overhead_s):
        """Per-layer metrics, per round.

        ``op_wall_s`` is the traced operations' wall time; ``ref_per_wall``
        converts the recorded wall seconds to the run's reference seconds.
        """
        per = 1.0 / rounds
        secs = ref_per_wall / rounds
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer] * per
            out[f"{layer}.self_s"] = self.layer_self_s[layer] * secs
        out["qlinalg.entries"] = self.entries * per
        out["qlinalg.max_entries"] = self.max_entries
        out["polyhedra.builds"] = self._group(self.calls, "polyhedra.builds") * per
        for prefix in ("polyhedra.intersect", "limits.check_compat", "ppfan.phi_ray",
                       "specialfiber.transfers"):
            out[prefix + ".calls"] = self._group(self.calls, prefix) * per
        out["limits.tower_values"] = self._group(self.calls, "limits.tower_values") * per
        for prefix in ("polyhedra.intersect", "polyhedra.complex_build",
                       "ppfan.graded_basis", "ppfan.pushforward",
                       "specialfiber.cross_check",
                       "specialfiber.homology_presentation",
                       "limits.check_compat", "limits.tower_stabilization",
                       "arithchow.theta"):
            out[prefix + ".self_s"] = self._group(self.self_s, prefix) * secs
        out["polyhedra.cone_over.hit_ratio"] = (
            self.cone_over_hits / self.cone_over_calls if self.cone_over_calls else 0.0)
        out["io.bytes"] = self.io_bytes * per
        out["trace.overhead_s"] = overhead_s
        out["trace.coverage"] = self.top_s / op_wall_s if op_wall_s else 0.0
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}

    def dump(self, path):
        """Write the kept spans and the caller/callee aggregate as JSON."""
        spans = [[i, parent, name, start, end]
                 for i, (name, parent, start, end) in enumerate(self.spans)]
        edges = [[caller, callee, calls, total, own]
                 for (caller, callee), (calls, total, own) in sorted(self.edges.items())]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "edges": edges}, fh)
