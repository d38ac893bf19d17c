"""Command-line entry points: solve, study, mesh-info."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .hho import MAX_DEGREE
from .mesh import MeshError, mesh_regularity, mesh_size, quasi_uniformity, read_mesh
from .solver import SolverError, get_problem, newton_solve, problem_names


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _level_list(text):
    levels = []
    for tok in text.split(","):
        if not tok:
            continue
        try:
            levels.append(int(tok))
        except ValueError:
            levels.append(tok)
    return levels


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hhonl",
        description="Hybrid high-order solver for nonlinear elliptic problems "
                    "on polytopal meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem on one mesh")
    solve.add_argument("--problem", default="mean-curvature",
                       help=f"registered problem name (one of: {', '.join(problem_names())})")
    solve.add_argument("--k", type=int, default=1, choices=range(MAX_DEGREE + 1),
                       help=f"polynomial degree (0..{MAX_DEGREE})")
    solve.add_argument("--tol", type=float, default=1e-8,
                       help="relative Newton increment tolerance")
    group = solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--mesh", help="mesh file (native JSON or FVCA typ2)")
    group.add_argument("--family", choices=harness.FAMILIES,
                       help="generated mesh family; combine with --level")
    solve.add_argument("--level", type=int,
                       help="cells per side (cartesian, triangular) or level 1..4 "
                            "(hexagonal-files, kershaw-files); required with --family")
    solve.set_defaults(func=cmd_solve)

    study = sub.add_parser("study", help="run a convergence study")
    study.add_argument("--config", help="JSON file with StudyConfig fields")
    study.add_argument("--family", choices=harness.FAMILIES)
    study.add_argument("--k", type=_int_list, help=f"degrees in 0..{MAX_DEGREE}, e.g. 1,2,3")
    study.add_argument("--levels", type=_level_list,
                       help="refinement levels: integers or mesh-file paths")
    study.add_argument("--problem", default="mean-curvature")
    study.add_argument("--tol", type=float, default=1e-8)
    study.add_argument("--out", help="directory for CSV and plot data")
    study.set_defaults(func=cmd_study)

    info = sub.add_parser("mesh-info", help="print mesh statistics")
    info.add_argument("path", help="mesh file (native JSON or FVCA typ2)")
    info.add_argument("--format", choices=("native-json", "fvca-typ2"),
                      help="override format inference from the suffix")
    info.set_defaults(func=cmd_mesh_info)
    return parser


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_mesh(args):
    if args.mesh is not None:
        path = Path(args.mesh)
        if not path.exists():
            _usage_error(f"mesh file not found: {path}")
        return read_mesh(path)
    if args.level is None:
        _usage_error(f"--family {args.family} needs --level")
    try:
        return harness.build_mesh(args.family, args.level)
    except harness.StudyConfigError as exc:
        _usage_error(str(exc))


def cmd_solve(args):
    mesh = _load_mesh(args)
    problem = get_problem(args.problem)
    u, report = newton_solve(problem, mesh, args.k, tol=args.tol)
    print(f"problem: {problem.name}")
    print(f"mesh: {mesh.num_cells} cells, {mesh.num_faces} faces, h = {mesh_size(mesh):.4e}")
    print(f"degree: k = {args.k}, unknowns: {u.space.num_dofs}")
    print(f"newton: converged in {report.iterations} iterations")
    for i, inc in enumerate(report.increments, start=1):
        print(f"  iter {i}: relative increment {inc:.3e}")
    print("face solves (bootstrap first; a chord step reuses the previous step's Jacobian):")
    for i, solve in enumerate(report.linear_solves):
        chord = " (chord step)" if i in report.chord_steps else ""
        print(f"  solve {i}{chord}: {solve.factor} factor, {solve.steps} Krylov steps, "
              f"tolerance {solve.rtol:.1e}, "
              f"relative residual {solve.residual:.1e} (face system {solve.rows} rows, "
              f"{solve.nnz} nonzeros; factor fill {solve.fill})")
    if problem.exact_gradient is not None:
        err = harness.gradient_error(u, problem.exact_gradient)
        print(f"relative gradient error: {err:.4e}")
    return 0


def _read_config(path):
    if not path.exists():
        _usage_error(f"config file not found: {path}")
    try:
        fields = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        _usage_error(f"config {path}: invalid JSON: {exc}")
    if not isinstance(fields, dict):
        _usage_error(f"config {path} must be a JSON object, not {type(fields).__name__}")
    known = dataclasses.fields(harness.StudyConfig)
    unknown = sorted(set(fields) - {f.name for f in known})
    if unknown:
        _usage_error(f"config {path}: unknown field {', '.join(unknown)}")
    missing = [f.name for f in known if f.default is dataclasses.MISSING and f.name not in fields]
    if missing:
        _usage_error(f"config {path}: missing field {', '.join(missing)}")
    try:
        return harness.StudyConfig(**fields)
    except harness.StudyConfigError as exc:
        _usage_error(f"config {path}: {exc}")


def cmd_study(args):
    if args.config:
        config = _read_config(Path(args.config))
    else:
        missing = [name for name, value in
                   (("--family", args.family), ("--k", args.k), ("--levels", args.levels))
                   if value is None]
        if missing:
            _usage_error(f"study needs {', '.join(missing)} (or --config)")
        try:
            config = harness.StudyConfig(family=args.family, levels=args.levels,
                                         degrees=args.k, problem=args.problem,
                                         tol=args.tol, out_dir=args.out)
        except harness.StudyConfigError as exc:
            _usage_error(str(exc))
    result = harness.run_study(config)
    print(harness.format_table(result.records))
    for failure in result.failures:
        print(f"failed: {failure.family} k={failure.k} level={failure.level}: "
              f"{failure.message}", file=sys.stderr)
    if result.csv_path is not None:
        print(f"wrote {result.csv_path}")
        print(f"wrote {result.script_path}")
    return 1 if result.failures else 0


def cmd_mesh_info(args):
    path = Path(args.path)
    if not path.exists():
        _usage_error(f"mesh file not found: {path}")
    mesh = read_mesh(path, format=args.format)
    print(f"file: {path}")
    print(f"vertices: {mesh.num_vertices}")
    print(f"cells: {mesh.num_cells}")
    print(f"faces: {mesh.num_faces} ({len(mesh.interior_faces)} interior, "
          f"{len(mesh.boundary_faces)} boundary)")
    print(f"mesh size h: {mesh_size(mesh):.6e}")
    print(f"quasi-uniformity h_max/h_min: {quasi_uniformity(mesh):.4f}")
    print(f"regularity min sqrt(h_F/h_T): {mesh_regularity(mesh):.4f}")
    print(f"total area: {mesh.cell_areas.sum():.12f}")
    print(f"orientation repairs: {mesh.orientation_repairs}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MeshError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
