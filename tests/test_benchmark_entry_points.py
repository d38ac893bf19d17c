"""The library names through which the solve benchmark times each layer.

``perfbench/spans.py`` wraps module attributes of hhonl at run time and
reports a layer whose names are gone as missing.  This test fails
instead, so a refactor that renames one of them is caught here.
"""

import importlib.util
from pathlib import Path

import pytest

from hhonl import harness, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    if not SPANS.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_entry_point_exists_and_is_entered(spans):
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        assert tracer.missing == {}
        tracer.unit, tracer.enabled = "round-0", True
        mesh = harness.build_mesh("cartesian", 4)
        problem = solver.mean_curvature_problem()
        u, report = solver.newton_solve(problem, mesh, 1)
        harness.gradient_error(u, problem.exact_gradient)
    finally:
        tracer.enabled = False
        restore()
    values, missing = tracer.layer_values(["round-0"])
    assert missing == {}
    assert set(values) == set(spans.METRICS)
    assert values["hho.classes"] == 4
    assert values["solver.newton_iters"] == report.iterations
    # Assembly runs once per chunk of cells in each of the three Newton
    # steps; the bootstrap, the first of the four linear solves, no longer
    # assembles at quadrature points, since its cell matrices are the class
    # stiffnesses.  A factor is made only where a solve did not keep the
    # held one.
    solves = report.linear_solves
    assert len(solves) == 4
    assert values["solver.assemble_calls"] == (len(solves) - 1) * len(list(u.space._chunks()))
    assert values["solver.factor_calls"] == sum(s.factor != "held float32" for s in solves) < 4
