"""Convergence-study orchestration: errors, rates, CSV tables, plot data."""

from __future__ import annotations

import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hho import MAX_DEGREE, _apply, _is_whole
from .mesh import (generate_cartesian, generate_hexagonal, generate_kershaw,
                   generate_triangular, mesh_size, read_mesh)
from .solver import get_problem, newton_solve

__all__ = [
    "StudyConfigError",
    "InvalidSequenceError",
    "DegenerateExactSolutionError",
    "FAMILIES",
    "StudyConfig",
    "ConvergenceRecord",
    "StudyFailure",
    "StudyResult",
    "build_mesh",
    "report_h",
    "gradient_error",
    "convergence_rate",
    "run_study",
    "write_csv",
    "read_csv",
    "write_plot_data",
    "format_table",
]

FAMILIES = ("cartesian", "triangular", "hexagonal-files", "kershaw-files")
# The generator of each polygonal family and its argument at levels 1 to 4.
_POLYGONAL_LEVELS = {"hexagonal-files": (generate_hexagonal, (8, 16, 32, 64)),
                     "kershaw-files": (generate_kershaw, (12, 24, 48, 96))}


class StudyConfigError(ValueError):
    """A study configuration violates its invariants."""


class InvalidSequenceError(ValueError):
    """Mesh sizes are not strictly decreasing, so rates are undefined."""


class DegenerateExactSolutionError(ValueError):
    """The exact gradient vanishes; a relative error cannot be formed."""


def _level(family, level):
    """One study level of ``family``: an int, or a mesh-file path where one is allowed.

    The hexagonal and Kershaw families also take a path (str or path-like);
    anything else but a whole number of at least 1 raises
    :class:`StudyConfigError`.
    """
    if family in _POLYGONAL_LEVELS and isinstance(level, (str, os.PathLike)):
        return level
    if _is_whole(level):
        if level < 1:
            raise StudyConfigError(f"{family} levels must be at least 1, not {level!r}")
        return int(level)
    allowed = " or mesh-file paths" if family in _POLYGONAL_LEVELS else ""
    raise StudyConfigError(f"{family} levels must be whole numbers{allowed}, not {level!r}")


@dataclass
class StudyConfig:
    """One convergence study: a family, refinement levels, and degrees.

    ``levels`` holds cell counts per side for the Cartesian and triangular
    families, and levels 1 to 4 or mesh-file paths for the hexagonal and
    Kershaw families.  At least two levels are required so rates can be
    formed.
    """

    family: str
    levels: list
    degrees: list
    problem: str = "mean-curvature"
    tol: float = 1e-8
    out_dir: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StudyConfigError(
                f"unknown family {self.family!r}; choose from {FAMILIES}")
        for name in ("levels", "degrees"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise StudyConfigError(f"{name} must be a list, not {getattr(self, name)!r}")
        if len(self.levels) < 2:
            raise StudyConfigError("a study needs at least 2 refinement levels")
        self.levels = [_level(self.family, level) for level in self.levels]
        if not all(map(_is_whole, self.degrees)):
            raise StudyConfigError(f"degrees must be integers, not {self.degrees!r}")
        self.degrees = [int(k) for k in self.degrees]
        for k in self.degrees:
            if not 0 <= k <= MAX_DEGREE:
                raise StudyConfigError(f"degree k={k} outside the supported range 0..{MAX_DEGREE}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real) \
                or not self.tol > 0:
            raise StudyConfigError(f"tol must be a positive number, not {self.tol!r}")


@dataclass
class ConvergenceRecord:
    """One (family, k, level) result row."""

    family: str
    k: int
    h: float
    error: float
    rate: float = None
    newton_iters: int = 0


@dataclass
class StudyFailure:
    """Diagnostic for a level whose solve failed; its column is truncated."""

    family: str
    k: int
    level: object
    message: str


@dataclass
class StudyResult:
    records: list
    failures: list = field(default_factory=list)
    csv_path: Path = None
    plot_paths: list = field(default_factory=list)
    script_path: Path = None
    elapsed: float = 0.0


def build_mesh(family, level):
    """Mesh for one study level.

    Every whole-number level is generated: ``n`` cells per side for the
    Cartesian and triangular families, levels 1 to 4 for the hexagonal and
    Kershaw ones.  Those two also take a mesh-file path.
    """
    if family not in FAMILIES:
        raise StudyConfigError(f"unknown family {family!r}")
    level = _level(family, level)
    if not isinstance(level, int):
        return read_mesh(level)
    if family == "cartesian":
        return generate_cartesian(level)
    if family == "triangular":
        return generate_triangular(level)
    generate, sizes = _POLYGONAL_LEVELS[family]
    if not 1 <= level <= len(sizes):
        raise StudyConfigError(
            f"{family} has {len(sizes)} shipped levels, requested {level}")
    return generate(sizes[level - 1])


def report_h(family, level, mesh):
    """The h convention reported per family: 1/n on Cartesian grids, else max h_T."""
    if family == "cartesian":
        return 1.0 / int(level)
    return mesh_size(mesh)


def gradient_error(u_h, exact_gradient):
    """Relative gradient error |grad u - G_h u_h| / |grad u| in broken L^2.

    Per chunk, both gradients are (2, m, nq) component planes, whatever the
    memory order of ``exact_gradient``'s (n, 2) output, and each squared
    norm is one product of the planes against the weighted planes.
    """
    space = u_h.space
    coeffs = space.reconstruct_gradient_global(u_h)
    num = 0.0
    den = 0.0
    for ids, pts, weights, phi in space._chunk_rules():
        # G_h u_h as (2, m, nq) planes, x then y, one product each: on a gathered chunk,
        # matrix-vector products, whose rounding the recorded errors were computed with.
        diff = np.stack([_apply(phi, c) for c in coeffs[ids].transpose(1, 0, 2)])
        exact = np.asarray(exact_gradient(pts), dtype=float).reshape(-1, 2)
        exact = np.ascontiguousarray(np.moveaxis(exact, 0, -1)).reshape(diff.shape)
        diff -= exact  # G_h u_h, now less the exact gradient, in place
        num += float(np.vdot(diff, diff * weights))
        den += float(np.vdot(exact, exact * weights))
    if den <= 0.0:
        raise DegenerateExactSolutionError("exact gradient has zero norm")
    return float(np.sqrt(num / den))


def convergence_rate(records):
    """Fill empirical rates log(e_l/e_{l-1}) / log(h_l/h_{l-1}) into a record column."""
    if len(records) < 2:
        raise InvalidSequenceError("need at least 2 records to compute rates")
    out = [records[0]]
    for prev, cur in zip(records, records[1:]):
        if cur.h >= prev.h:
            raise InvalidSequenceError(
                f"mesh sizes must decrease strictly, got {prev.h:g} then {cur.h:g}")
        rate = float(np.log(cur.error / prev.error) / np.log(cur.h / prev.h))
        out.append(ConvergenceRecord(cur.family, cur.k, cur.h, cur.error, rate,
                                     cur.newton_iters))
    return out


def run_study(config):
    """Run every (degree, level) solve of a study and collect error/rate records.

    A failing level aborts its degree column with a recorded diagnostic;
    the other columns still run.  Output files are written when
    ``config.out_dir`` is set.
    """
    start = time.perf_counter()
    problem = get_problem(config.problem)
    if problem.exact_gradient is None:
        raise StudyConfigError(
            f"problem {config.problem!r} has no exact gradient; cannot study errors")
    # Each level's mesh is built once and shared by every degree column.  A
    # failed build ends the list: every column fails there with its message.
    meshes = []
    for level in config.levels:
        try:
            meshes.append(build_mesh(config.family, level))
        except Exception as exc:
            meshes.append(exc)
            break
    records = []
    failures = []
    for k in config.degrees:
        column = []
        for level, mesh in zip(config.levels, meshes):
            if isinstance(mesh, Exception):
                failures.append(StudyFailure(config.family, k, level, str(mesh)))
                break
            try:
                u, report = newton_solve(problem, mesh, k, tol=config.tol)
                err = gradient_error(u, problem.exact_gradient)
                column.append(ConvergenceRecord(
                    config.family, k, report_h(config.family, level, mesh),
                    err, None, report.iterations))
            except Exception as exc:
                failures.append(StudyFailure(config.family, k, level, str(exc)))
                break
        if len(column) >= 2:
            column = convergence_rate(column)
        records.extend(column)
    result = StudyResult(records=records, failures=failures,
                         elapsed=time.perf_counter() - start)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.csv_path = out / "study.csv"
        write_csv(records, result.csv_path)
        result.plot_paths, result.script_path = write_plot_data(records, out)
    return result


_CSV_HEADER = "family,k,h,error,rate,newton_iters"


def write_csv(records, path):
    """Emit records as CSV with fixed %.4e float formatting (deterministic bytes)."""
    lines = [_CSV_HEADER]
    for r in records:
        rate = "" if r.rate is None else f"{r.rate:.4e}"
        lines.append(f"{r.family},{r.k},{r.h:.4e},{r.error:.4e},{rate},{r.newton_iters}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)


def read_csv(path):
    """Parse a CSV written by :func:`write_csv` back into records."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise StudyConfigError(f"{path}: not a study CSV (missing header)")
    records = []
    for line in lines[1:]:
        family, k, h, error, rate, iters = line.split(",")
        records.append(ConvergenceRecord(
            family, int(k), float(h), float(error),
            None if rate == "" else float(rate), int(iters)))
    return records


def write_plot_data(records, out_dir):
    """Per-(family, k) log-log data files plus a gnuplot script."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = {}
    for r in records:
        columns.setdefault((r.family, r.k), []).append(r)
    paths = []
    plot_clauses = []
    for (family, k), col in sorted(columns.items()):
        path = out / f"{family}_k{k}.dat"
        lines = ["# h  relative_gradient_error"]
        lines += [f"{r.h:.4e} {r.error:.4e}" for r in col]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
        plot_clauses.append(
            f'"{path.name}" using 1:2 with linespoints title "{family} k={k}"')
    script = out / "convergence.gp"
    script.write_text(
        "set logscale xy\n"
        'set xlabel "h"\n'
        'set ylabel "relative gradient error"\n'
        "set key bottom right\n"
        "plot " + ", \\\n     ".join(plot_clauses) + "\n",
        encoding="utf-8")
    return paths, script


def format_table(records):
    """Aligned text table of a record list."""
    lines = [f"{'family':<16} {'k':>2} {'h':>12} {'error':>12} {'rate':>7} {'iters':>5}"]
    for r in records:
        rate = "  --- " if r.rate is None else f"{r.rate:6.3f}"
        lines.append(f"{r.family:<16} {r.k:>2} {r.h:>12.4e} {r.error:>12.4e} "
                     f"{rate:>7} {r.newton_iters:>5}")
    return "\n".join(lines)
