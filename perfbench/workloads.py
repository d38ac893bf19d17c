"""The three workloads of the solve benchmark.

A workload builds its inputs in ``setup`` (timed as set-up), prepares the
reference data of its output checks in ``prepare`` (untimed), runs one
round of timed program calls in ``run`` and checks a round's outputs in
``check``.  Every round attempts the same ``attempts`` solves.  ``run``
returns the round's CPU and wall seconds with its outputs.  The
program calls go through module attributes (``harness.build_mesh``,
``solver.newton_solve``, ...) looked up at call time, so the wrappers of
a traced run see them.
"""

from __future__ import annotations

import time

import checks
from hhonl import harness, solver


class Stopwatch:
    """CPU seconds of this process and wall seconds since it was made."""

    def __init__(self):
        self.cpu, self.wall = time.process_time(), time.perf_counter()

    def read(self):
        return time.process_time() - self.cpu, time.perf_counter() - self.wall


class SingleSolve:
    """One ``newton_solve`` of the mean-curvature problem, then ``gradient_error``."""

    attempts = 1

    def __init__(self, family, level, k):
        self.family, self.level, self.k = family, level, k

    def describe(self):
        return f"newton_solve on {self.family} level {self.level}, k={self.k}"

    def setup(self):
        return harness.build_mesh(self.family, self.level)

    def prepare(self, mesh):
        return checks.projection_floors(mesh, self.k)

    def run(self, mesh):
        """Returns ((cpu_s, wall_s), outputs); outputs is (report, error) or the exception."""
        problem = solver.mean_curvature_problem()
        watch = Stopwatch()
        try:
            u, report = solver.newton_solve(problem, mesh, self.k)
            error = harness.gradient_error(u, problem.exact_gradient)
        except Exception as exc:  # a failed solve is counted, not fatal
            return watch.read(), exc
        return watch.read(), (report, error)

    def check(self, floors, outputs):
        """Returns (failed solves, why they failed, check failures of the others)."""
        if isinstance(outputs, Exception):
            return 1, [f"solve failed: {type(outputs).__name__}: {outputs}"], []
        report, error = outputs
        label = f"{self.family} level {self.level} k={self.k}"
        found = [checks.report_failure(label, report),
                 checks.bound_failure(label, error, floors)]
        return 0, [], [f for f in found if f]


class Ladder:
    """The convergence experiment: ``run_study`` on three families, k = 0..3."""

    STUDIES = (("cartesian", (4, 8, 16, 32)),
               ("triangular", (4, 8, 16, 32)),
               ("hexagonal-files", (1, 2, 3)))
    DEGREES = (0, 1, 2, 3)
    attempts = sum(len(levels) for _, levels in STUDIES) * len(DEGREES)

    def describe(self):
        return "run_study on " + ", ".join(
            f"{family} {list(levels)}" for family, levels in self.STUDIES) + ", k=0..3"

    def setup(self):
        return None

    def prepare(self, _):
        """(h, floors) per (family, k, level), from meshes built outside the timing."""
        ref = {}
        for family, levels in self.STUDIES:
            for level in levels:
                mesh = harness.build_mesh(family, level)
                h = checks.mesh_h(family, level, mesh)
                for k in self.DEGREES:
                    ref[family, k, level] = h, checks.projection_floors(mesh, k)
        return ref

    def run(self, _):
        configs = [harness.StudyConfig(family, list(levels), list(self.DEGREES))
                   for family, levels in self.STUDIES]
        watch = Stopwatch()
        try:
            results = [harness.run_study(config) for config in configs]
        except Exception as exc:  # run_study itself failed: every solve is lost
            return watch.read(), exc
        return watch.read(), results

    def check(self, ref, outputs):
        if isinstance(outputs, Exception):
            return (self.attempts,
                    [f"run_study failed: {type(outputs).__name__}: {outputs}"], [])
        failed, why, found = 0, [], []
        for (family, levels), result in zip(self.STUDIES, outputs):
            # A failed level ends its column: it and the levels after it count as failed.
            why += [f"{family} k={failure.k} level {failure.level}: {failure.message}"
                    for failure in result.failures]
            by_k = {}
            for rec in result.records:
                by_k.setdefault(rec.k, []).append(rec)
            for k in self.DEGREES:
                column = by_k.get(k, [])
                failed += len(levels) - len(column)
                points = []
                for level, rec in zip(levels, column):
                    h, floors = ref[family, k, level]
                    label = f"{family} k={k} level {level}"
                    if rec.family != family or abs(rec.h - h) > 1e-12 * h:
                        found.append(f"{label}: record for {rec.family} at h {rec.h:.6g}, "
                                     f"expected h {h:.6g}")
                        continue
                    found.append(checks.bound_failure(label, rec.error, floors))
                    points.append((h, rec.error))
                if len(points) == len(levels):
                    found.append(checks.rate_failure(f"{family} k={k}", k,
                                                     points[-2], points[-1]))
        return failed, why, [f for f in found if f]


WORKLOADS = {
    "cartesian-k3": SingleSolve("cartesian", 96, 3),
    "kershaw-k1": SingleSolve("kershaw-files", 4, 1),
    "ladder": Ladder(),
}
