"""Command-line interface: argument handling, outputs, exit codes."""

import json
import re

import pytest

from hhonl import harness
from hhonl.cli import build_parser, main
from hhonl.hho import HHOSpace
from hhonl.mesh import generate_cartesian, write_mesh


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_solve_requires_a_mesh_source():
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == 2


@pytest.mark.parametrize("family", ["cartesian", "kershaw-files"])
def test_solve_on_a_family_needs_a_level(capsys, family):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--family", family])
    assert info.value.code == 2
    assert capsys.readouterr().err == f"error: --family {family} needs --level\n"


@pytest.mark.parametrize("argv, message", [
    (["--family", "cartesian", "--level", "2", "--k", "9"],
     "error: argument --k: invalid choice: 9"),
    (["--family", "kershaw-files", "--level", "9"],
     "error: kershaw-files has 4 shipped levels, requested 9"),
    (["--family", "cartesian", "--level", "0"],
     "error: cartesian levels must be at least 1, not 0"),
])
def test_solve_arguments_out_of_range_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(["solve", *argv])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_solve_on_a_generated_mesh(capsys):
    code = main(["solve", "--family", "cartesian", "--level", "4", "--k", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "problem: mean-curvature" in out
    assert "mesh: 16 cells" in out
    assert "newton: converged in" in out
    assert "relative gradient error:" in out
    # One line per face solve: the bootstrap, then each Newton step.
    iterations = int(re.search(r"converged in (\d+) iterations", out)[1])
    solves = re.findall(r"solve (\d+)( \(chord step\))?: (fresh float32|held float32|float64) "
                        r"factor, (\d+) Krylov steps, tolerance (\S+), relative residual (\S+)",
                        out)
    assert [int(s[0]) for s in solves] == list(range(iterations + 1))
    assert solves[0][2] == "fresh float32"
    assert all(float(s[5]) <= max(float(s[4]), 1e-12) for s in solves)
    # The step after one whose increment is at most 1e-4 is a chord step.
    increments = [float(x) for x in re.findall(r"iter \d+: relative increment (\S+)", out)]
    residuals = [float(x) for x in re.findall(r"iter \d+: .* condensed residual (\S+)", out)]
    assert len(residuals) == len(increments) == iterations
    chord = [bool(s[1]) for s in solves[1:]]
    assert chord == [i > 0 and not chord[i - 1] and increments[i - 1] <= 1e-4
                     for i in range(iterations)]
    assert any(chord)
    # 24 interior faces of two dofs each, and the fill of each solve's factor.
    sizes = re.findall(r"relative residual \S+ \(face system (\d+) rows, (\d+) nonzeros; "
                       r"factor fill (\d+)\)", out)
    assert len(sizes) == len(solves)
    assert all(rows == "48" and int(nnz) > 0 and int(fill) >= int(nnz) for rows, nnz, fill in sizes)


def test_solve_reports_the_classes_and_the_stacks_it_stores(capsys):
    # The 16 cells of cartesian 4 fall into 4 classes by the faces they own.
    assert main(["solve", "--family", "cartesian", "--level", "4", "--k", "1"]) == 0
    space = HHOSpace(generate_cartesian(4), 1)
    space._ensure_classes()
    stored = sum(g.stack_bytes() for g in space._groups)
    assert stored > 0
    assert (f"operators: 4 congruence classes, {stored / 1e6:.2f} MB stored\n"
            in capsys.readouterr().out)


def test_solve_missing_mesh_file(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--mesh", "/no/such/mesh.json"])
    assert info.value.code == 2
    assert "not found" in capsys.readouterr().err


def test_solve_unknown_problem_returns_1(capsys):
    code = main(["solve", "--family", "cartesian", "--level", "2",
                 "--problem", "nope"])
    assert code == 1
    assert "error: unknown problem" in capsys.readouterr().err


def test_mesh_info_reports_statistics(tmp_path, capsys):
    path = tmp_path / "grid.json"
    write_mesh(generate_cartesian(3), path)
    code = main(["mesh-info", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "vertices: 16" in out
    assert "cells: 9" in out
    assert "total area: 1.000000000000" in out
    assert "orientation repairs: 0" in out


def test_mesh_info_reports_the_face_order(tmp_path, capsys):
    path = tmp_path / "kershaw.json"
    write_mesh(harness.build_mesh("kershaw-files", 1), path)
    assert main(["mesh-info", str(path)]) == 0
    assert "face order: cell tree depth 8, top separator 12 faces" in capsys.readouterr().out


def test_mesh_info_counts_the_cells_of_each_face_count(tmp_path, capsys):
    path = tmp_path / "hexagonal.json"
    write_mesh(harness.build_mesh("hexagonal-files", 1), path)
    assert main(["mesh-info", str(path)]) == 0
    assert "cells by face count: 4: 8, 5: 15, 6: 45" in capsys.readouterr().out


def test_mesh_info_missing_file(capsys):
    with pytest.raises(SystemExit) as info:
        main(["mesh-info", "/no/such/file.typ2"])
    assert info.value.code == 2
    assert "not found" in capsys.readouterr().err


def test_mesh_info_format_mismatch_returns_1(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text("not a mesh", encoding="utf-8")
    code = main(["mesh-info", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_study_without_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["study"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    for flag in ("--family", "--k", "--levels"):
        assert flag in err


def test_study_writes_outputs(tmp_path, capsys):
    code = main(["study", "--family", "cartesian", "--k", "1",
                 "--levels", "2,4", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "family" in out.splitlines()[0]
    assert (tmp_path / "study.csv").exists()
    assert (tmp_path / "convergence.gp").exists()
    assert "wrote" in out


def test_study_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"family": "cartesian", "levels": [2, 4],
                               "degrees": [0]}), encoding="utf-8")
    code = main(["study", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "cartesian" in out
    with pytest.raises(SystemExit) as info:
        main(["study", "--config", str(tmp_path / "absent.json")])
    assert info.value.code == 2


@pytest.mark.parametrize("fields, problem", [
    ({"family": "cartesian", "levels": [2, 4], "degrees": [0], "bogus": 1},
     "unknown field bogus"),
    ({"family": "cartesian", "levels": [2, 4]}, "missing field degrees"),
    ([1, 2], "must be a JSON object, not list"),
    ({"family": "cartesian", "levels": 5, "degrees": [0]}, "levels must be a list"),
    ({"family": "cartesian", "levels": [2, 4], "degrees": [0], "tol": "x"},
     "tol must be a positive number"),
    ('{"family": "cartesian",', "invalid JSON"),
    ({"family": "cartesian", "levels": [2, 4], "degrees": [1.7]},
     "degrees must be integers"),
    ({"family": "cartesian", "levels": [2, 4], "degrees": [True]},
     "degrees must be integers"),
    ({"family": "cartesian", "levels": [4, 8.5], "degrees": [1]},
     "cartesian levels must be whole numbers, not 8.5"),
    ({"family": "cartesian", "levels": [True, 4], "degrees": [1]},
     "cartesian levels must be whole numbers, not True"),
    ({"family": "cartesian", "levels": [2, "foo.json"], "degrees": [1]},
     "cartesian levels must be whole numbers, not 'foo.json'"),
    ({"family": "cartesian", "levels": [0, 4], "degrees": [1]},
     "cartesian levels must be at least 1, not 0"),
], ids=["unknown-field", "missing-field", "not-an-object", "levels-not-a-list",
        "tol-not-a-number", "invalid-json", "fractional-degree", "boolean-degree",
        "fractional-level", "boolean-level", "path-level-of-a-generated-family",
        "level-below-1"])
def test_study_rejects_a_malformed_config(tmp_path, capsys, fields, problem):
    cfg = tmp_path / "study.json"
    text = fields if isinstance(fields, str) else json.dumps(fields)
    cfg.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["study", "--config", str(cfg)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


def test_study_flags_that_break_the_config_are_a_usage_error(capsys):
    # The same checks as a --config file, with the same exit code.
    with pytest.raises(SystemExit) as info:
        main(["study", "--family", "cartesian", "--k", "9", "--levels", "2,4"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outside the supported range 0..8" in err


def test_study_accepts_the_degrees_the_space_does(capsys):
    assert main(["study", "--family", "cartesian", "--k", "5", "--levels", "2,4"]) == 0
    assert "cartesian" in capsys.readouterr().out


def test_study_failures_exit_nonzero(capsys):
    code = main(["study", "--family", "hexagonal-files", "--k", "0",
                 "--levels", "1,2,9"])
    captured = capsys.readouterr()
    assert code == 1
    assert "failed:" in captured.err
    assert "hexagonal-files" in captured.out


def test_level_list_accepts_paths_and_integers():
    parser = build_parser()
    args = parser.parse_args(["study", "--family", "kershaw-files",
                              "--k", "1,2", "--levels", "kershaw_1.json,2"])
    assert args.levels == ["kershaw_1.json", 2]
    assert args.k == [1, 2]


def test_degree_list_rejects_garbage():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["study", "--family", "cartesian",
                                   "--k", "1,x", "--levels", "2,4"])
    assert info.value.code == 2
