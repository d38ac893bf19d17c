"""Study configuration, mesh levels, error metric, rate table, and file outputs."""

import hashlib

import numpy as np
import pytest

import hhonl.harness as harness_mod
import hhonl.solver as solver_mod
from hhonl.harness import (
    FAMILIES,
    ConvergenceRecord,
    DegenerateExactSolutionError,
    InvalidSequenceError,
    StudyConfig,
    StudyConfigError,
    build_mesh,
    convergence_rate,
    format_table,
    gradient_error,
    read_csv,
    report_h,
    run_study,
    write_csv,
    write_plot_data,
)
from hhonl.hho import HHOSpace
from hhonl.mesh import mesh_size, write_mesh
from hhonl.solver import NonlinearProblem, register_problem


def test_family_list_and_config_validation():
    assert FAMILIES == ("cartesian", "triangular", "hexagonal-files", "kershaw-files")
    cfg = StudyConfig("cartesian", [2, 4], [0, 1.0])
    assert cfg.degrees == [0, 1]
    with pytest.raises(StudyConfigError, match="unknown family"):
        StudyConfig("voronoi", [2, 4], [1])
    with pytest.raises(StudyConfigError, match="at least 2"):
        StudyConfig("cartesian", [8], [1])
    assert StudyConfig("cartesian", [2, 4], [8]).degrees == [8]
    with pytest.raises(StudyConfigError, match=r"0\.\.8"):
        StudyConfig("cartesian", [2, 4], [9])
    # A whole float is kept as an int, as for degrees; paths only where files are read.
    assert StudyConfig("cartesian", [4, 8.0], [1]).levels == [4, 8]
    assert StudyConfig("kershaw-files", [1, "k.json"], [1]).levels == [1, "k.json"]
    for bad in (8.5, True, "foo.json"):
        with pytest.raises(StudyConfigError, match="cartesian levels must be whole numbers"):
            StudyConfig("cartesian", [4, bad], [1])
        with pytest.raises(StudyConfigError, match="cartesian levels must be whole numbers"):
            build_mesh("cartesian", bad)
    # Levels below 1 are rejected for every family, files or generated.
    for family in FAMILIES:
        for bad in (0, -2, 0.0):
            with pytest.raises(StudyConfigError, match=f"{family} levels must be at least 1"):
                StudyConfig(family, [bad, 4], [1])


def test_rate_formula_on_exact_quadruple():
    rows = [ConvergenceRecord("cartesian", 1, 0.1, 1e-2),
            ConvergenceRecord("cartesian", 1, 0.025, 6.25e-4)]
    out = convergence_rate(rows)
    assert out[0].rate is None
    assert out[1].rate == pytest.approx(2.0, abs=1e-12)


def test_rate_formula_spot_values():
    # Hand-checked triples: rate = log(e1/e0) / log(h1/h0).
    rows = [ConvergenceRecord("x", 1, 0.0156, 0.3795e-2),
            ConvergenceRecord("x", 1, 0.0078, 0.9442e-3)]
    assert convergence_rate(rows)[1].rate == pytest.approx(2.007, abs=5e-4)
    rows = [ConvergenceRecord("x", 3, 0.0156, 0.2857e-6),
            ConvergenceRecord("x", 3, 0.0078, 0.1669e-7)]
    assert convergence_rate(rows)[1].rate == pytest.approx(4.098, abs=1e-3)


def test_rate_requires_strictly_decreasing_h():
    rows = [ConvergenceRecord("x", 1, 0.1, 1.0)]
    with pytest.raises(InvalidSequenceError):
        convergence_rate(rows)
    rows = [ConvergenceRecord("x", 1, 0.1, 1.0),
            ConvergenceRecord("x", 1, 0.1, 0.5)]
    with pytest.raises(InvalidSequenceError, match="strictly"):
        convergence_rate(rows)


def test_gradient_error_vanishes_on_reconstructed_polynomials():
    # G I p equals grad p for p of degree k+1, so the metric hits zero.
    mesh = build_mesh("cartesian", 3)
    space = HHOSpace(mesh, 1)
    v = space.interpolate(lambda p: p[:, 0] ** 2 - 0.5 * p[:, 1] ** 2 + p[:, 0])

    def grad(p):
        return np.column_stack((2.0 * p[:, 0] + 1.0, -p[:, 1]))

    assert gradient_error(v, grad) <= 1e-12


def test_gradient_error_rejects_zero_exact_gradient():
    mesh = build_mesh("cartesian", 2)
    space = HHOSpace(mesh, 1)
    v = space.interpolate(lambda p: p[:, 0])
    with pytest.raises(DegenerateExactSolutionError):
        gradient_error(v, lambda p: np.zeros((len(p), 2)))


def test_build_mesh_generated_families():
    assert build_mesh("cartesian", 4).num_cells == 16
    assert build_mesh("triangular", 4).num_cells == 32
    with pytest.raises(StudyConfigError, match="unknown family"):
        build_mesh("random", 4)


# SHA-256 of the native JSON (write_mesh) of every hexagonal and Kershaw
# level: it pins every vertex and cell loop bit for bit.
POLYGONAL_LEVEL_SHA256 = {
    ("hexagonal-files", 1): "83f954fdac8382137d8a2c88fdbe3f549436e707688df123e9284d7c6fb1a419",
    ("hexagonal-files", 2): "167b95c7df9fba4c1a5b1fffdce36df190def40faaaa6b760115fb03920c9bd8",
    ("hexagonal-files", 3): "41bbd813c35b804a74365e3dee690b87464045543b9af24ab31c37f9bcf1b228",
    ("hexagonal-files", 4): "c70a6a0722e4f0826f33c1c339fcfc8a8f07091a6c7e4c7375da152e5f1c8505",
    ("kershaw-files", 1): "2c930980e324bea93d1194578288b9421fceaa3244882bdbd6923f053ff32f02",
    ("kershaw-files", 2): "284fcb7e143b92108855ec17342c6372ecfb9f2d7c2c789958c763cc8c643489",
    ("kershaw-files", 3): "7c3b503d9e79e8e368f58381fd47e9be8d516872fe655b9166b4fd5bb3971a0c",
    ("kershaw-files", 4): "5a298e8fde00ed1251a82bfa4c856151a22b8585d73af45ebc0a66686d717c32",
}


@pytest.mark.parametrize("family, level", sorted(POLYGONAL_LEVEL_SHA256))
def test_polygonal_levels_are_generated_bit_for_bit(family, level, tmp_path):
    path = tmp_path / "mesh.json"
    write_mesh(build_mesh(family, level), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        POLYGONAL_LEVEL_SHA256[family, level]


def test_polygonal_levels():
    for family, cells_level1 in (("hexagonal-files", 68), ("kershaw-files", 144)):
        mesh = build_mesh(family, 1)
        assert mesh.num_cells == cells_level1
        assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-12)
        for level in (5, 9):
            with pytest.raises(StudyConfigError,
                               match=f"{family} has 4 shipped levels, requested {level}"):
                build_mesh(family, level)
        # No family has a level below 1, so that is a configuration error.
        with pytest.raises(StudyConfigError, match=f"{family} levels must be at least 1, not 0"):
            build_mesh(family, 0)


def test_build_mesh_reads_a_path_level(monkeypatch, tmp_path):
    write_mesh(build_mesh("kershaw-files", 2), tmp_path / "kershaw.json")
    assert build_mesh("kershaw-files", tmp_path / "kershaw.json").num_cells == 576
    # A relative path is read from the current directory.
    write_mesh(build_mesh("hexagonal-files", 1), tmp_path / "hexagonal.json")
    monkeypatch.chdir(tmp_path)
    assert build_mesh("hexagonal-files", "hexagonal.json").num_cells == 68


def test_report_h_convention():
    mesh = build_mesh("cartesian", 8)
    assert report_h("cartesian", 8, mesh) == pytest.approx(0.125)
    tri = build_mesh("triangular", 8)
    assert report_h("triangular", 8, tri) == pytest.approx(mesh_size(tri))


def test_run_study_collects_records_and_rates():
    cfg = StudyConfig("cartesian", [2, 4, 8], [1])
    result = run_study(cfg)
    assert not result.failures
    assert len(result.records) == 3
    hs = [r.h for r in result.records]
    assert hs == [0.5, 0.25, 0.125]
    errs = [r.error for r in result.records]
    assert errs[0] > errs[1] > errs[2]
    assert result.records[0].rate is None
    for r in result.records[1:]:
        assert 1.5 <= r.rate <= 2.6
    for r in result.records:
        assert 1 <= r.newton_iters <= 4
    assert result.elapsed > 0.0


def test_run_study_writes_csv_and_plot_files(tmp_path):
    cfg = StudyConfig("cartesian", [2, 4], [0, 1], out_dir=tmp_path)
    result = run_study(cfg)
    assert result.csv_path == tmp_path / "study.csv"
    text = result.csv_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "family,k,h,error,rate,newton_iters"
    parsed = read_csv(result.csv_path)
    assert len(parsed) == len(result.records)
    # Write -> read -> write is byte stable.
    again = tmp_path / "again.csv"
    write_csv(parsed, again)
    assert again.read_text(encoding="utf-8") == text
    names = {p.name for p in result.plot_paths}
    assert names == {"cartesian_k0.dat", "cartesian_k1.dat"}
    for p in result.plot_paths:
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# h  relative_gradient_error"
        assert len(lines) == 3
    script = result.script_path.read_text(encoding="utf-8")
    assert "set logscale xy" in script
    for name in names:
        assert name in script


def test_run_study_isolates_column_failures():
    # Level 9 does not exist, so each degree column truncates there but
    # still reports the completed levels with rates.
    cfg = StudyConfig("hexagonal-files", [1, 2, 9], [0, 1])
    result = run_study(cfg)
    assert len(result.failures) == 2
    for failure in result.failures:
        assert failure.level == 9
        assert "shipped levels" in failure.message
    by_k = {}
    for r in result.records:
        by_k.setdefault(r.k, []).append(r)
    for k, column in by_k.items():
        assert len(column) == 2
        assert column[1].rate is not None


def test_run_study_builds_each_mesh_once(monkeypatch):
    built = []

    def counting_build_mesh(family, level):
        built.append(level)
        return build_mesh(family, level)

    monkeypatch.setattr(harness_mod, "build_mesh", counting_build_mesh)
    result = run_study(StudyConfig("cartesian", [2, 4], [0, 1]))
    assert built == [2, 4]
    assert not result.failures
    assert len(result.records) == 4
    # A level whose build fails fails every degree column with the same
    # message, and ends each column there.
    built.clear()
    result = run_study(StudyConfig("hexagonal-files", [1, 9, 2], [0, 1]))
    assert built == [1, 9]
    assert [(f.k, f.level) for f in result.failures] == [(0, 9), (1, 9)]
    assert result.failures[0].message == result.failures[1].message
    assert "shipped levels" in result.failures[0].message
    assert [(r.k, r.rate) for r in result.records] == [(0, None), (1, None)]


def test_run_study_requires_an_exact_gradient():
    register_problem("no-exact-test", lambda: NonlinearProblem(
        a=lambda x, y, z: z,
        a_z=lambda x, y, z: np.broadcast_to(np.eye(2), (len(x), 2, 2)),
        source=lambda x: np.zeros(len(x))))
    try:
        cfg = StudyConfig("cartesian", [2, 4], [1], problem="no-exact-test")
        with pytest.raises(StudyConfigError, match="exact gradient"):
            run_study(cfg)
    finally:
        solver_mod._REGISTRY.pop("no-exact-test", None)


def test_read_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(StudyConfigError, match="missing header"):
        read_csv(path)


def test_format_table_layout():
    records = [ConvergenceRecord("cartesian", 1, 0.5, 1.5e-2, None, 3),
               ConvergenceRecord("cartesian", 1, 0.25, 3.9e-3, 1.94, 3)]
    table = format_table(records)
    lines = table.splitlines()
    assert lines[0].split() == ["family", "k", "h", "error", "rate", "iters"]
    assert "---" in lines[1]
    assert "1.940" in lines[2]


def test_write_plot_data_groups_by_family_and_degree(tmp_path):
    records = [ConvergenceRecord("cartesian", 1, 0.5, 1e-2),
               ConvergenceRecord("cartesian", 1, 0.25, 2.5e-3, 2.0),
               ConvergenceRecord("triangular", 2, 0.5, 1e-3),
               ConvergenceRecord("triangular", 2, 0.25, 1.2e-4, 3.0)]
    paths, script = write_plot_data(records, tmp_path)
    assert [p.name for p in paths] == ["cartesian_k1.dat", "triangular_k2.dat"]
    assert script.name == "convergence.gp"
