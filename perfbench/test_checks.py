"""Tests of the benchmark's own checks and tracing: a wrong result must fail.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hhonl import harness, hho, solver  # noqa: E402
from hhonl.harness import ConvergenceRecord, StudyFailure, StudyResult  # noqa: E402


def _solve(family, level, k, **kwargs):
    mesh = harness.build_mesh(family, level)
    problem = solver.mean_curvature_problem()
    u, report = solver.newton_solve(problem, mesh, k, **kwargs)
    return mesh, u, report, harness.gradient_error(u, problem.exact_gradient)


def test_floors_vanish_when_the_field_is_in_the_space():
    # grad u is cubic, so its cellwise P_3 projection is exact.
    floor_grad, floor_flux = checks.projection_floors(harness.build_mesh("hexagonal-files", 1), 3)
    assert floor_grad < 1e-12 < floor_flux


def test_correct_solve_passes_and_perturbed_face_blocks_fail():
    mesh, u, report, error = _solve("cartesian", 8, 1)
    floors = checks.projection_floors(mesh, 1)
    assert checks.report_failure("ok", report) is None
    assert checks.bound_failure("ok", error, floors) is None
    wrong = u.copy()
    wrong.face_blocks[mesh.interior_faces, 0] += 1e-2
    bad = harness.gradient_error(wrong, checks.exact_gradient)
    assert "above the a priori bound" in checks.bound_failure("perturbed", bad, floors)


def test_error_scaled_by_1_5_fails_the_upper_bound():
    # The entry closest to the bound: hexagonal level 1, k=3 (error/bound 0.87).
    mesh, _, _, error = _solve("hexagonal-files", 1, 3)
    floors = checks.projection_floors(mesh, 3)
    assert checks.bound_failure("ok", error, floors) is None
    assert "above" in checks.bound_failure("x1.5", 1.5 * error, floors)


def test_error_scaled_by_0_9_fails_the_lower_bound():
    # error/floor is 1.05 on cartesian n=32, k=1: no solution gets 10% closer.
    mesh, _, _, error = _solve("cartesian", 32, 1)
    floors = checks.projection_floors(mesh, 1)
    assert checks.bound_failure("ok", error, floors) is None
    assert "below" in checks.bound_failure("x0.9", 0.9 * error, floors)


def test_rate_check_fails_when_the_finest_error_grows():
    points = []
    for n in (8, 16):
        _, _, _, error = _solve("cartesian", n, 1)
        points.append((1.0 / n, error))
    assert checks.rate_failure("ok", 1, *points) is None
    (h, e) = points[-1]
    assert "rate" in checks.rate_failure("x1.5", 1, points[0], (h, 1.5 * e))


def test_unconverged_newton_fails():
    with pytest.raises(solver.NewtonDivergedError) as info:
        _solve("cartesian", 4, 1, max_iter=1)
    assert "did not report convergence" in checks.report_failure("1 step", info.value.report)


def test_failed_solve_is_counted_not_checked():
    lost, why, found = workloads.SingleSolve("cartesian", 4, 1).check(
        (0.1, 0.1), solver.SolverError("singular"))
    assert (lost, found) == (1, []) and "singular" in why[0]


def _fake_ladder(ref, scale=0.8):
    """Study results whose errors sit at ``scale`` of each a priori bound."""
    results = []
    for family, levels in workloads.Ladder.STUDIES:
        records = []
        for k in workloads.Ladder.DEGREES:
            for level in levels:
                h, (floor_grad, floor_flux) = ref[family, k, level]
                records.append(ConvergenceRecord(family, k, h,
                                                 scale * (floor_grad + floor_flux)))
        results.append(StudyResult(records=records))
    return results


@pytest.fixture(scope="module")
def ladder_ref():
    return workloads.Ladder().prepare(None)


def test_ladder_check_passes_results_at_the_bound_rates(ladder_ref):
    assert workloads.Ladder().check(ladder_ref, _fake_ladder(ladder_ref)) == (0, [], [])


def test_ladder_counts_a_truncated_column_as_failed(ladder_ref):
    results = _fake_ladder(ladder_ref)
    cartesian = results[0]
    cartesian.records = [r for r in cartesian.records if not (r.k == 2 and r.h < 0.1)]
    cartesian.failures = [StudyFailure("cartesian", 2, 16, "not star-shaped")]
    lost, why, found = workloads.Ladder().check(ladder_ref, results)
    assert lost == 2 and "not star-shaped" in why[0] and found == []


def test_ladder_flags_a_finest_error_off_by_1_5(ladder_ref):
    results = _fake_ladder(ladder_ref)
    finest = [r for r in results[1].records if r.k == 1][-1]
    finest.error *= 1.5
    _, _, found = workloads.Ladder().check(ladder_ref, results)
    assert len(found) == 1 and "triangular k=1: finest-pair rate" in found[0]


def test_traced_solve_counts_layers_and_keeps_the_result():
    _, _, plain_report, plain_error = _solve("cartesian", 4, 1)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        tracer.unit, tracer.enabled = "round-0", True
        _, _, report, error = _solve("cartesian", 4, 1)
    finally:
        tracer.enabled = False
        restore()
    assert (error, report.increments) == (plain_error, plain_report.increments)
    values, missing = tracer.layer_values(["round-0"])
    assert missing == {}
    assert values["mesh.builds"] == 1
    assert values["solver.newton_iters"] == report.iterations == 3
    assert values["solver.assemble_calls"] == values["solver.factor_calls"] == 4
    assert values["quadrature.cell_rules"] == 2 * values["hho.classes"]
    newton = [s for s in tracer.spans if s[0] == "solver.newton"][0]
    inside = sum(t for t, s in zip(tracer.self_times(), tracer.spans)
                 if s[0] not in ("mesh", "harness.error"))
    assert inside == pytest.approx(newton[4] - newton[3], rel=1e-9)


def test_a_removed_entry_point_is_missing_not_zero(monkeypatch):
    monkeypatch.delattr(hho.HHOSpace, "_ensure_classes")
    tracer = spans.Tracer()
    spans.instrument(tracer)()
    _, missing = tracer.layer_values([])
    assert "no entry point" in missing["hho.operators_s"]
    assert "no entry point" in missing["hho.classes"]
