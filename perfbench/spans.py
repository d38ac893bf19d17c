"""In-memory spans around the calls through which a solve enters each layer.

``instrument`` replaces, for the life of one benchmark process, the
module attributes through which ``newton_solve`` and ``run_study`` reach
each layer of hhonl with wrappers that open a span and record counts.
Nothing is added to the library: the wrappers look the names up at
install time, and a layer whose names are gone is reported as missing,
never as zero.  Spans are kept in memory and written out at the end; a
layer's self time is its spans' durations minus the child spans they
contain.  Span times are CPU seconds of the benchmark process
(``time.process_time``), like the end-to-end times of ``run.py``.
"""

from __future__ import annotations

import functools
import statistics
import time

# Per-layer metrics: name -> (unit, layer, how the value is read).  "self"
# sums the layer's self time, "bootstrap" the Poisson bootstrap span less
# the operator build inside it; any other key names a count.
METRICS = {
    "mesh.build_s": ("s", "mesh", "self"),
    "mesh.builds": ("count", "mesh", "mesh.builds"),
    "hho.operators_s": ("s", "hho.operators", "self"),
    "hho.classes": ("count", "hho.operators", "hho.classes"),
    "quadrature.cell_rules": ("count", "quadrature", "quadrature.cell_rules"),
    "solver.assemble_s": ("s", "solver.assemble", "self"),
    "solver.assemble_calls": ("count", "solver.assemble", "solver.assemble_calls"),
    "solver.condense_s": ("s", "solver.condense", "self"),
    "solver.factor_s": ("s", "solver.factor", "self"),
    "solver.factor_calls": ("count", "solver.factor", "solver.factor_calls"),
    "solver.factor_fill": ("count", "solver.factor", "solver.factor_fill"),
    "solver.face_dofs": ("count", "solver.factor", "solver.face_dofs"),
    "solver.face_nnz": ("count", "solver.factor", "solver.face_nnz"),
    "solver.backsolve_s": ("s", "solver.backsolve", "self"),
    "solver.bootstrap_s": ("s", "solver.bootstrap", "bootstrap"),
    "solver.newton_iters": ("count", "solver.newton", "solver.newton_iters"),
    "solver.newton_self_s": ("s", "solver.newton", "self"),
    "hho.norm_s": ("s", "hho.norm", "self"),
    "harness.error_s": ("s", "harness.error", "self"),
}

TIMED = ("self", "bootstrap")

# Spans of this layer are the tracer's own work (reading a factor's fill);
# they count towards no layer.
OWN = "trace"


class Tracer:
    """Spans and counts of one process, grouped by repetition ``unit``."""

    def __init__(self):
        self.enabled = False
        self.unit = None
        self.spans = []  # [layer, parent index, unit, start, end, counts]
        self.missing = {}  # layer -> why it cannot be measured
        self._open = []

    def current_layer(self):
        return self.spans[self._open[-1]][0] if self._open else None

    def begin(self, layer):
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, parent, self.unit, time.process_time(), None, {}])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][4] = time.process_time()

    def add(self, name, n=1):
        """Add ``n`` to count ``name`` on the innermost open span."""
        if self._open:
            counts = self.spans[self._open[-1]][5]
            counts[name] = counts.get(name, 0) + int(n)

    def span(self, layer):
        return _Span(self, layer)

    # -- reading the spans ----------------------------------------------------

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, _, _, start, end, _ in self.spans]
        for layer, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def _bootstrap_times(self):
        """Bootstrap spans less the operator build and tracer work inside them."""
        out = {i: s[4] - s[3] for i, s in enumerate(self.spans) if s[0] == "solver.bootstrap"}
        for layer, parent, _, start, end, _ in self.spans:
            if layer not in ("hho.operators", OWN):
                continue
            p = parent
            while p >= 0:
                if p in out:
                    out[p] -= end - start
                p = self.spans[p][1]
        return out

    def layer_values(self, units):
        """Per-layer metric values, each the median over repetition units.

        A layer is read from ``units`` (the traced rounds); a layer never
        entered there, such as the mesh build of a workload that builds its
        mesh during set-up, is read from the set-up units instead.  Returns
        ``(values, missing)`` with ``missing`` mapping a metric to its reason.
        """
        selfs = self.self_times()
        boot = self._bootstrap_times()
        per_unit = {}  # unit -> {"layers": set, "self": {layer: s}, "boot": s, "counts": {}}
        for i, (layer, _, unit, _, _, counts) in enumerate(self.spans):
            acc = per_unit.setdefault(unit, {"layers": set(), "self": {}, "boot": 0.0,
                                             "counts": {}})
            acc["layers"].add(layer)
            acc["self"][layer] = acc["self"].get(layer, 0.0) + selfs[i]
            acc["boot"] += boot.get(i, 0.0)
            for name, n in counts.items():
                acc["counts"][name] = acc["counts"].get(name, 0) + n
        rounds = [per_unit[u] for u in units if u in per_unit]
        setups = [acc for u, acc in per_unit.items()
                  if isinstance(u, str) and u.startswith("setup")]
        values, missing = {}, {}
        for name, (_, layer, how) in METRICS.items():
            if layer in self.missing:
                missing[name] = self.missing[layer]
                continue
            chosen = ([acc for acc in rounds if _seen(acc, layer, how)]
                      or [acc for acc in setups if _seen(acc, layer, how)])
            if not chosen:
                missing[name] = (f"layer {layer} was not entered" if how in TIMED
                                 else f"count {how} was not recorded")
                continue
            if how == "self":
                values[name] = statistics.median(acc["self"][layer] for acc in chosen)
            elif how == "bootstrap":
                values[name] = statistics.median(acc["boot"] for acc in chosen)
            else:
                values[name] = statistics.median_low(acc["counts"][how] for acc in chosen)
        return values, missing

    def dump(self):
        """Spans as JSON-ready dicts, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return [{"id": i, "layer": layer, "parent": parent, "unit": unit,
                 "start": start - t0, "end": end - t0, "counts": counts}
                for i, (layer, parent, unit, start, end, counts) in enumerate(self.spans)]


def _seen(acc, layer, how):
    """Whether a unit entered ``layer`` (time metrics) or recorded count ``how``."""
    if how in TIMED:
        return layer in acc["layers"]
    return how in acc["counts"]


class _Span:
    __slots__ = ("tracer", "layer")

    def __init__(self, tracer, layer):
        self.tracer, self.layer = tracer, layer

    def __enter__(self):
        self.tracer.begin(self.layer)

    def __exit__(self, *exc):
        self.tracer.end()
        return False


class _TracedFactor:
    """A sparse LU factor whose triangular solves are timed as back-solve."""

    def __init__(self, lu, tracer):
        self._lu, self._tracer = lu, tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.backsolve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def instrument(tracer):
    """Wrap the entry points of every layer; returns a function that undoes it."""
    from hhonl import basis, harness, hho, solver

    patches = []
    found = {}  # layer -> whether any of its entry points exists

    def patch(owner, name, layer, make):
        orig = vars(owner).get(name)
        found[layer] = found.get(layer, False) or orig is not None
        if orig is not None:
            setattr(owner, name, functools.wraps(orig)(make(orig)))
            patches.append((owner, name, orig))

    def spanned(layer, after=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return orig(*args, **kwargs)
                with tracer.span(layer):
                    out = orig(*args, **kwargs)
                    if after is not None:
                        out = after(out)
                    return out
            return wrapper
        return make

    def mesh_build(orig):
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            outer = tracer.current_layer() != "mesh"
            with tracer.span("mesh"):
                if outer:
                    tracer.add("mesh.builds")
                return orig(*args, **kwargs)
        return wrapper

    # build_mesh reaches the generators and the reader through these names too.
    for name in ("build_mesh", "generate_cartesian", "generate_triangular", "read_mesh"):
        patch(harness, name, "mesh", mesh_build)

    def after_newton(out):
        tracer.add("solver.newton_iters", out[1].iterations)
        return out

    for owner in (solver, harness):
        patch(owner, "newton_solve", "solver.newton", spanned("solver.newton", after_newton))
    patch(harness, "run_study", "harness.study", spanned("harness.study"))
    patch(harness, "gradient_error", "harness.error", spanned("harness.error"))
    patch(solver, "solve_linear_hho", "solver.bootstrap", spanned("solver.bootstrap"))

    def after_assemble(out):
        tracer.add("solver.assemble_calls")
        return out

    patch(solver, "_assemble", "solver.assemble", spanned("solver.assemble", after_assemble))

    def build_classes(orig):
        def wrapper(space):
            if not tracer.enabled or getattr(space, "_classes", None) is not None:
                return orig(space)
            with tracer.span("hho.operators"):
                orig(space)
                classes = getattr(space, "_classes", None)
                if classes is not None:
                    tracer.add("hho.classes", len(classes))
        return wrapper

    patch(hho.HHOSpace, "_ensure_classes", "hho.operators", build_classes)
    patch(hho.HHOSpace, "gradient_norm", "hho.norm", spanned("hho.norm"))

    def count_rule(orig):
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.add("quadrature.cell_rules")
            return orig(*args, **kwargs)
        return wrapper

    for owner in (hho, basis):
        patch(owner, "cell_quadrature", "quadrature", count_rule)

    def after_condense(out):
        S, g, recover = out

        def timed_recover(uf):
            with tracer.span("solver.backsolve"):
                return recover(uf)
        return S, g, timed_recover

    patch(solver, "static_condense", "solver.condense", spanned("solver.condense", after_condense))

    def factor(orig):
        def wrapper(A, *args, **kwargs):
            if not tracer.enabled:
                return orig(A, *args, **kwargs)
            with tracer.span("solver.factor"):
                lu = orig(A, *args, **kwargs)
            tracer.add("solver.factor_calls")
            tracer.add("solver.face_dofs", A.shape[0])
            tracer.add("solver.face_nnz", A.nnz)
            with tracer.span(OWN):
                tracer.add("solver.factor_fill", lu.L.nnz + lu.U.nnz)
            return _TracedFactor(lu, tracer)
        return wrapper

    patch(solver, "splu", "solver.factor", factor)

    for layer, exists in found.items():
        if not exists:
            tracer.missing[layer] = f"no entry point of layer {layer} found in hhonl"

    def restore():
        for owner, name, orig in reversed(patches):
            setattr(owner, name, orig)
    return restore
