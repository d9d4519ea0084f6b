"""Spans and counters recorded from outside ``colorhomlie``.

``Tracer.install`` wraps functions and methods of the package in place and
``Tracer.uninstall`` puts the originals back; an untraced run never installs
anything.  A wrapped name is replaced in every module that holds it, so a
function imported by name (``cohomology`` imports ``sort_with_sign``) is
traced at every call site.

Two kinds of wrapper:

* span: a public module function (plus a few named private ones).  Each call
  is kept in memory as ``[name, start_ns, end_ns, parent, job, acc_ns,
  counters]`` until the run ends.
* accumulator: scalar and bi-character operations and the small, hot helpers
  (``mat_vec``, ``BracketTable.bilinear``, ``Representation.rho_of``, ...).
  These add a call count and their own time to a per-span bucket instead of
  making a span each; a dim-6 job makes millions of them.  A span function
  called inside an accumulator is counted as an accumulator too, so spans
  never sit inside accumulators.

A span's self time is its duration minus its child spans and minus the
accumulators called directly under it (``span_self_ns``).  A layer's self
time adds its spans' self time and its accumulators' own time.
"""
from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "colorhomlie"

# span record fields
NAME, START, END, PARENT, JOB, ACC, COUNTERS = range(7)

# Accumulator wrappers per module: (class, or None for a function; attribute).
HOT = {
    "scalars_grading": [
        ("CycloScalar", "__add__"), ("CycloScalar", "__radd__"),
        ("CycloScalar", "__sub__"), ("CycloScalar", "__neg__"),
        ("CycloScalar", "__mul__"), ("CycloScalar", "__rmul__"),
        ("CycloScalar", "inverse"), ("CycloScalar", "from_rational"),
        ("CycloScalar", "root_of_unity"), ("BiCharacter", "__call__"),
        (None, "sort_with_sign"), (None, "reorder_sign"), (None, "epsilon_eval"),
        (None, "scalar_inverse"), (None, "parse_scalar"), (None, "format_scalar"),
    ],
    "linalg": [(None, n) for n in ("zeros", "identity", "mat_vec", "mat_mul",
                                   "mat_pow", "transpose", "mat_add", "mat_scale",
                                   "mat_eq", "is_zero_matrix")],
    "algebra_core": [
        ("BracketTable", "bilinear"), ("BracketTable", "of_basis"),
        ("BracketTable", "compose_with"), ("BracketTable", "equals"),
        ("ColorHomAlgebra", "apply_alpha"), ("ColorHomAlgebra", "alpha_power"),
        ("ColorHomAlgebra", "basis_vector"), ("ColorHomAlgebra", "jacobi_residual"),
        ("HomAssociativeColorAlgebra", "mu_vec"),
    ],
    "morphisms_twists": [(None, "verify_morphism"), (None, "current_budget")],
    "representations": [("Representation", "rho_of"), ("Representation", "act"),
                        ("ModuleStructure", "act")],
    "cohomology": [("CochainSpace", "evaluate"), ("CochainSpace", "evaluate_basis")],
    "hls_bracket": [("CommutativeColorAlgebra", "mu_vec"), ("QuotientSpace", "reduce")],
    "structure_theory": [("ProductAlgebraData", "product")],
}

# Private functions traced as spans in addition to every public one.
EXTRA_SPANS = {
    "cohomology": ["_compat_rows"],
    "structure_theory": ["_solve_space", "_defining_rows"],
    "cli": ["_emit"],
}

MODULES = ("scalars_grading", "linalg", "algebra_core", "morphisms_twists",
           "representations", "cohomology", "hls_bracket", "structure_theory",
           "deformations", "fileio", "cli")

# Leaf scalar operations get a cheaper wrapper: they call no traced code.
_LEAF_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "add", "__neg__": "add",
             "__mul__": "mul", "__rmul__": "mul", "inverse": "inverse"}


# Counts a span records from its arguments and result, by function name.
_PROBES = {
    "linalg.rref": lambda args, res: {
        "entries": len(args[0]) * (len(args[0][0]) if args[0] else 0)},
    "linalg.kernel_basis": lambda args, res: {"rows": len(args[0]), "cols": args[1]},
    "cohomology.delta_matrix": lambda args, res: {"columns": len(res[0])},
    "cohomology.cochain_basis": lambda args, res: {"free_dim": res.free_dim,
                                                   "compat_dim": res.compat_dim},
    "morphisms_twists.enumerate_morphisms": lambda args, res: {"found": len(res)},
}


class Tracer:
    """In-memory spans and per-span accumulators for one traced run."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.on = False
        self.job = None
        self.spans = []
        # (span index, key) -> [calls, own ns]; span index -1 is "no span"
        self.acc = defaultdict(lambda: [0, 0])
        self._stack = []      # per open frame: [child span ns, child accumulator ns]
        self._span = -1       # innermost open span
        self._acc_depth = 0
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _call(self, fn, key, hot, probe, args, kwargs):
        as_span = not hot and self._acc_depth == 0
        parent = self._span
        frame = [0, 0]
        if as_span:
            idx = len(self.spans)
            record = [key, 0, 0, parent, self.job, 0, None]
            self.spans.append(record)
            self._span = idx
        else:
            self._acc_depth += 1
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            elapsed = end - start
            if self._stack:
                self._stack[-1][0 if as_span else 1] += elapsed
            if as_span:
                self._span = parent
                record[START], record[END], record[ACC] = start, end, frame[1]
            else:
                self._acc_depth -= 1
                st = self.acc[(parent, key)]
                st[0] += 1
                st[1] += elapsed - frame[0] - frame[1]
        if as_span and probe is not None:
            try:
                record[COUNTERS] = probe(args, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # a changed signature loses the counter, never the result
        return result

    def _wrap(self, fn, key, hot):
        probe = _PROBES.get(key)
        call = self._call

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            return call(fn, key, hot, probe, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, fn, op):
        clock, acc, stack = self.clock, self.acc, self._stack
        keys = {}

        def wrapper(a, *rest):
            if not self.on:
                return fn(a, *rest)
            start = clock()
            result = fn(a, *rest)
            elapsed = clock() - start
            m = getattr(a, "root_order", None)
            key = keys.get(m)
            if key is None:
                key = keys[m] = f"scalars_grading.{op}.m{m}"
            st = acc[(self._span, key)]
            st[0] += 1
            st[1] += elapsed
            if stack:
                stack[-1][1] += elapsed
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the traced names of every imported ``colorhomlie`` module.

        A listed module, class or attribute that no longer exists is skipped,
        so a refactor of the package loses counters, not the traced run.
        """
        holders = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name in MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{name}")
            if mod is None:
                continue
            hot = HOT.get(name, [])
            for cls_name, attr in hot:
                cls = getattr(mod, cls_name, None) if cls_name is not None else None
                if cls is not None and attr in cls.__dict__:
                    self._patch_method(name, cls, attr)
            hot_funcs = {attr for cls_name, attr in hot if cls_name is None}
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                if attr in hot_funcs:
                    self._patch_function(holders, fn, self._wrap(fn, f"{name}.{attr}", True))
                elif not attr.startswith("_") or attr in EXTRA_SPANS.get(name, ()):
                    self._patch_function(holders, fn, self._wrap(fn, f"{name}.{attr}", False))

    def _patch_function(self, holders, fn, wrapper):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def _patch_method(self, layer, cls, attr):
        raw = cls.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        op = _LEAF_OPS.get(attr) if layer == "scalars_grading" else None
        if op is not None:
            wrapper = self._wrap_leaf(fn, op)
        else:
            wrapper = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", True)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self):
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def span_self_ns(spans):
    """Self time of every span: duration minus child spans and accumulators."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] - s[ACC] for i, s in enumerate(spans)]


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


def layer_self_ns(tracer) -> dict:
    """Self time per layer: spans' self time plus accumulators' own time."""
    out = defaultdict(int)
    for s, own in zip(tracer.spans, span_self_ns(tracer.spans)):
        out[layer_of(s[NAME])] += own
    for (_, key), (_, ns) in tracer.acc.items():
        out[layer_of(key)] += ns
    return dict(out)


def _outermost(spans, layer):
    """Indices of a layer's spans whose parent span belongs to another layer."""
    return [i for i, s in enumerate(spans) if layer_of(s[NAME]) == layer and (
        s[PARENT] < 0 or layer_of(spans[s[PARENT]][NAME]) != layer)]


def _has_ancestor(spans, s, name):
    p = s[PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(tracer, passes: int, wall_ns: int, untraced_wall_s: float,
                  stdout_bytes: int) -> dict:
    """The per-layer metrics of a traced run, per pass, as {name: (value, unit)}."""
    spans = tracer.spans
    own = span_self_ns(spans)
    layers = layer_self_ns(tracer)
    calls = defaultdict(int)
    acc_ns = defaultdict(int)
    for (_, key), (n, ns) in tracer.acc.items():
        calls[key] += n
        acc_ns[key] += ns
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def count(name):
        return len(by_name[name])

    def duration(idxs):
        return sum(spans[i][END] - spans[i][START] for i in idxs) / 1e9

    def field(i, name):
        return (spans[i][COUNTERS] or {}).get(name, 0)

    def counter(name, field_name):
        return sum(field(i, field_name) for i in by_name[name])

    def calls_prefix(prefix):
        return sum(n for k, n in calls.items() if k.startswith(prefix))

    def mul_ns(m):
        key = f"scalars_grading.mul.m{m}"
        return acc_ns[key] / calls[key] if calls[key] else 0.0

    def layer_time(layer):
        return duration(_outermost(spans, layer))

    rref_entries = counter("linalg.rref", "entries")
    rref_self = sum(own[i] for i in by_name["linalg.rref"])
    under_solve = [i for i in by_name["linalg.kernel_basis"]
                   if _has_ancestor(spans, spans[i], "structure_theory.solve_space")]
    candidates = sum(n for (sp, key), (n, _) in tracer.acc.items()
                     if key == "morphisms_twists.verify_morphism" and sp >= 0
                     and spans[sp][NAME] == "morphisms_twists.enumerate_morphisms")
    found = counter("morphisms_twists.enumerate_morphisms", "found")
    parse = [i for i in _outermost(spans, "fileio") if ".parse" in spans[i][NAME]]
    cochains = by_name["cohomology.cochain_basis"]
    traced_wall_s = wall_ns / 1e9
    residual_s = (wall_ns - sum(layers.values())) / 1e9

    metrics = {
        "scalars_grading.mul.calls": (calls_prefix("scalars_grading.mul."), "count"),
        "scalars_grading.add.calls": (calls_prefix("scalars_grading.add."), "count"),
        "scalars_grading.inverse.calls": (calls_prefix("scalars_grading.inverse."),
                                          "count"),
        "scalars_grading.eps.calls": (calls["scalars_grading.BiCharacter.__call__"],
                                      "count"),
        "scalars_grading.self_s": (layers.get("scalars_grading", 0) / 1e9, "s"),
        "scalars_grading.mul_ns.m2": (mul_ns(2), "ns"),
        "scalars_grading.mul_ns.m3": (mul_ns(3), "ns"),
        "linalg.rref.calls": (count("linalg.rref"), "count"),
        "linalg.rref.entries": (rref_entries, "count"),
        "linalg.rref.self_s": (rref_self / 1e9, "s"),
        "linalg.rref.ns_per_entry": (rref_self / rref_entries if rref_entries else 0.0,
                                     "ns"),
        "linalg.matvec.calls": (calls["linalg.mat_vec"] + calls["linalg.mat_mul"],
                                "count"),
        "linalg.self_s": (layers.get("linalg", 0) / 1e9, "s"),
        "representations.rho_of.calls": (calls["representations.Representation.rho_of"],
                                          "count"),
        "representations.self_s": (layers.get("representations", 0) / 1e9, "s"),
        "cohomology.delta_columns": (counter("cohomology.delta_matrix", "columns"),
                                     "count"),
        "cohomology.coboundary_evals": (count("cohomology.coboundary_of_coords"),
                                        "count"),
        "cohomology.cochain_evals": (calls["cohomology.CochainSpace.evaluate"], "count"),
        "cohomology.free_dim.max": (max([field(i, "free_dim") for i in cochains],
                                        default=0), "count"),
        "cohomology.compat_dim.max": (max([field(i, "compat_dim") for i in cochains],
                                          default=0), "count"),
        "cohomology.time_s": (layer_time("cohomology"), "s"),
        "cohomology.self_s": (layers.get("cohomology", 0) / 1e9, "s"),
        "structure_theory.solve.calls": (count("structure_theory.solve_space"), "count"),
        "structure_theory.equations": (sum(field(i, "rows") for i in under_solve),
                                       "count"),
        "structure_theory.unknowns": (sum(field(i, "cols") for i in under_solve),
                                      "count"),
        "structure_theory.solve.time_s": (duration(by_name["structure_theory.solve_space"]),
                                          "s"),
        "structure_theory.reverify.time_s": (
            duration(by_name["structure_theory.reverify_space"]), "s"),
        "structure_theory.jordan.time_s": (
            duration(by_name["structure_theory.quasi_centroid_jordan"]
                     + by_name["structure_theory.check_hom_jordan"]), "s"),
        "structure_theory.self_s": (layers.get("structure_theory", 0) / 1e9, "s"),
        "algebra_core.bilinear.calls": (calls["algebra_core.BracketTable.bilinear"],
                                        "count"),
        "algebra_core.check.time_s": (duration(by_name["algebra_core.check_color_hom_lie"]),
                                      "s"),
        "algebra_core.self_s": (layers.get("algebra_core", 0) / 1e9, "s"),
        "morphisms_twists.candidates": (candidates, "count"),
        "morphisms_twists.found": (found, "count"),
        "morphisms_twists.yield": (found / candidates if candidates else 0.0, "frac"),
        "morphisms_twists.time_s": (layer_time("morphisms_twists"), "s"),
        "hls_bracket.time_s": (layer_time("hls_bracket"), "s"),
        "deformations.time_s": (layer_time("deformations"), "s"),
        "fileio.parse.calls": (len(parse), "count"),
        "fileio.parse.time_s": (duration(parse), "s"),
        "cli.emit.time_s": (duration(by_name["cli._emit"]), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
    # Counts and times are per pass; ratios, maxima and per-op figures are not.
    out = {name: (value if unit in ("frac", "ns") or name.endswith(".max")
                  else value / passes, unit)
           for name, (value, unit) in metrics.items()}
    out["trace.residual_s"] = (residual_s / passes, "s")
    out["trace.overhead_frac"] = (traced_wall_s / passes / untraced_wall_s - 1.0, "frac")
    return out
