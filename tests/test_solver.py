"""Nonlinear problem definitions, assembly, condensation, and Newton."""

import dataclasses
import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

import hhonl.mesh as mesh_mod
import hhonl.solver as solver_mod
from hhonl import harness
from hhonl.hho import MAX_DEGREE, HHOSpace, HybridVector
from hhonl.mesh import PolytopalMesh, generate_cartesian, generate_triangular
from hhonl.solver import (
    CondensationError,
    EvaluationError,
    NewtonDivergedError,
    NonlinearProblem,
    ProblemDefinitionError,
    get_problem,
    jacobian,
    mean_curvature_problem,
    newton_solve,
    problem_names,
    register_problem,
    residual,
    solve_linear_hho,
    static_condense,
)
from test_acceptance import _direct_newton, _randomized_smooth_problem


def _no_source(x):
    return np.zeros(len(x))


def _identity(x, y, z):
    return np.broadcast_to(np.eye(2), (len(x), 2, 2))


def _no_reaction(x, y, z):
    return np.zeros(len(x))


def linear_diffusion_problem():
    """a(z) = z with zero source; passes check and is exactly linear."""
    return NonlinearProblem(a=lambda x, y, z: z, a_z=_identity, source=_no_source)


def steep_mean_curvature_problem(s):
    """Mean curvature with exact solution u = s x(1-x) y(1-y): Newton slows as s grows."""
    base = mean_curvature_problem()

    def source(x):
        X, Y = x[:, 0], x[:, 1]
        ux, uy = s * (1 - 2 * X) * Y * (1 - Y), s * X * (1 - X) * (1 - 2 * Y)
        uxx, uyy = -2 * s * Y * (1 - Y), -2 * s * X * (1 - X)
        uxy = s * (1 - 2 * X) * (1 - 2 * Y)
        Q = 1 + ux**2 + uy**2
        return -((uxx + uyy) * Q - (ux**2 * uxx + 2 * ux * uy * uxy + uy**2 * uyy)) * Q**-1.5

    return NonlinearProblem(a=base.a, a_z=base.a_z, source=source)


def test_mean_curvature_problem_passes_check():
    problem = mean_curvature_problem()
    assert problem.check() is problem
    assert problem.name == "mean-curvature"
    assert problem.exact_solution is not None


def test_check_rejects_asymmetric_flux_derivative():
    def bad_az(x, y, z):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 1] = 1.0
        return out

    problem = NonlinearProblem(a=lambda x, y, z: z, a_z=bad_az, source=_no_source)
    with pytest.raises(ProblemDefinitionError, match="symmetric"):
        problem.check()


def test_check_rejects_wrong_derivative():
    # a_z claims the identity but a is 2 * z.
    problem = NonlinearProblem(a=lambda x, y, z: 2.0 * z, a_z=_identity, source=_no_source)
    with pytest.raises(ProblemDefinitionError, match="finite differences"):
        problem.check()


@pytest.mark.parametrize("fields, message", [
    ({"a_z": lambda x, y, z: np.eye(2)},
     r"^a_z must return shape \(16, 2, 2\) at 16 points, got \(2, 2\)$"),
    ({"a": lambda x, y, z: z[:, 0]}, r"^a must return shape \(16, 2\) at 16 points, got \(16,\)$"),
    ({"a_y": lambda x, y, z: np.zeros(len(x))}, r"^a_y must return shape \(16, 2\)"),
    ({"f": lambda x, y, z: np.zeros((len(x), 1))},
     r"^f must return shape \(16,\) at 16 points, got \(16, 1\)$"),
    ({"f": _no_reaction, "f_z": lambda x, y, z: np.zeros(len(x))},
     r"^f_z must return shape \(16, 2\)"),
    ({"f": _no_reaction, "f_y": lambda x, y, z: np.zeros((len(x), 2))},
     r"^f_y must return shape \(16,\)"),
    ({"source": lambda x: np.zeros((len(x), 2))}, r"^source must return shape \(16,\)"),
], ids=["a_z", "a", "a_y", "f", "f_z", "f_y", "source"])
def test_check_rejects_wrong_shapes(fields, message):
    problem = dataclasses.replace(linear_diffusion_problem(), **fields)
    with pytest.raises(ProblemDefinitionError, match=message):
        problem.check()


@pytest.mark.parametrize("fields, omitted, given", [
    ({"a": lambda x, y, z: (1 + y**2)[:, None] * z,
      "a_z": lambda x, y, z: (1 + y**2)[:, None, None] * np.eye(2)},
     "a_y", {"a_y": lambda x, y, z: (2 * y)[:, None] * z}),
    ({"f": lambda x, y, z: y**2}, "f_y", {"f_y": lambda x, y, z: 2 * y}),
    ({"f": lambda x, y, z: z[:, 0]}, "f_z",
     {"f_z": lambda x, y, z: np.tile([1.0, 0.0], (len(x), 1))}),
    ({"f_z": lambda x, y, z: np.zeros((len(x), 2))}, "f_z", {"f": _no_reaction}),
], ids=["a_y", "f_y", "f_z", "f_z-without-f"])
def test_check_rejects_a_wrongly_omitted_derivative(fields, omitted, given):
    # An omitted derivative is taken as zero and checked like a given one;
    # the same problem with the missing callback given passes.
    problem = dataclasses.replace(linear_diffusion_problem(), **fields)
    with pytest.raises(ProblemDefinitionError, match=rf"^{omitted} "):
        problem.check()
    assert dataclasses.replace(problem, **given).check()


def test_problem_registry():
    assert "mean-curvature" in problem_names()
    assert get_problem("mean-curvature").name == "mean-curvature"
    with pytest.raises(ValueError, match="unknown problem"):
        get_problem("no-such-problem")
    register_problem("linear-diffusion-test", linear_diffusion_problem)
    try:
        assert "linear-diffusion-test" in problem_names()
        assert get_problem("linear-diffusion-test") is not None
    finally:
        solver_mod._REGISTRY.pop("linear-diffusion-test", None)


def test_jacobian_matches_residual_differences():
    # || (r(w + t d) - r(w)) / t - J d || must shrink linearly in t.
    problem = mean_curvature_problem()
    mesh = generate_cartesian(3)
    space = HHOSpace(mesh, 1)
    rng = np.random.default_rng(21)
    w = space.vector_from_flat(0.1 * rng.standard_normal(space.num_dofs))
    d = space.vector_from_flat(rng.standard_normal(space.num_dofs))
    r0 = residual(problem, w)
    Jd = jacobian(problem, w) @ d.to_flat()
    ts = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    errs = []
    for t in ts:
        rt = residual(problem, w + t * d)
        errs.append(np.linalg.norm((rt - r0) / t - Jd))
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert abs(slope - 1.0) < 0.2, (slope, errs)


def test_jacobian_is_symmetric_for_gradient_flux():
    # a depends on z alone with symmetric a_z, and f has no derivatives,
    # so the discrete Jacobian is symmetric.
    problem = mean_curvature_problem()
    mesh = generate_cartesian(2)
    space = HHOSpace(mesh, 1)
    rng = np.random.default_rng(5)
    w = space.vector_from_flat(0.2 * rng.standard_normal(space.num_dofs))
    J = jacobian(problem, w)
    asym = abs(J - J.T).max()
    assert asym <= 1e-12 * abs(J).max()


def test_semi_discrete_linearization_fields():
    mesh = generate_cartesian(2)
    space = HHOSpace(mesh, 1)
    rng = np.random.default_rng(8)
    w = space.vector_from_flat(0.3 * rng.standard_normal(space.num_dofs))
    # For a linear flux the coefficients are constant, so evaluating them
    # at arbitrary fields changes nothing.
    lin = linear_diffusion_problem()
    fields = (lambda x: np.sin(x[:, 0]), lambda x: np.cos(x))
    J_default = jacobian(lin, w)
    J_fields = jacobian(lin, w, fields=fields)
    assert abs(J_default - J_fields).max() <= 1e-13 * abs(J_default).max()
    # For the curvature flux the frozen coefficients differ from the
    # discrete-iterate ones, but symmetry survives.
    problem = mean_curvature_problem()
    J_frozen = jacobian(problem, w, fields=fields)
    assert abs(J_frozen - jacobian(problem, w)).max() > 0.0
    assert abs(J_frozen - J_frozen.T).max() <= 1e-12 * abs(J_frozen).max()


def test_newton_solves_the_discrete_equations():
    problem = mean_curvature_problem()
    mesh = generate_cartesian(8)
    u, report = newton_solve(problem, mesh, 1)
    assert report.converged
    assert report.iterations <= 4
    assert report.increments[-1] <= 1e-8
    # Every later increment shrinks by a wide margin (Newton contraction).
    for a, b in zip(report.increments, report.increments[1:]):
        assert b < 0.1 * a
    space = u.space
    free = space.free_dofs()
    r_at_u = residual(problem, u)[free]
    r_at_0 = residual(problem, HybridVector(space))[free]
    assert np.linalg.norm(r_at_u) <= 1e-8 * np.linalg.norm(r_at_0)
    # Solution is close to the interpolated exact field in the energy norm.
    v = space.interpolate(problem.exact_solution)
    rel = space.gradient_norm(u - v) / space.gradient_norm(v)
    assert rel < 0.05


@pytest.mark.parametrize("family, level", [("cartesian", 4), ("triangular", 8),
                                           ("hexagonal-files", 1), ("kershaw-files", 1)])
def test_every_degree_converges_and_the_gradient_error_falls(family, level):
    # The orthonormal class bases keep the local systems conditioned up to
    # k = MAX_DEGREE, even on the distorted Kershaw cells: every solve takes
    # 3 Newton steps and the gradient error falls strictly with k until it
    # is below 1e-10.
    problem = mean_curvature_problem()
    mesh = harness.build_mesh(family, level)
    errors = []
    for k in range(MAX_DEGREE + 1):
        u, report = newton_solve(problem, mesh, k)
        assert report.converged and report.iterations == 3, (k, report)
        errors.append(harness.gradient_error(u, problem.exact_gradient))
    for k in range(1, MAX_DEGREE + 1):
        assert errors[k - 1] < 1e-10 or errors[k] < errors[k - 1], (k, errors)


def test_newton_accepts_a_warm_start():
    problem = mean_curvature_problem()
    mesh = generate_cartesian(4)
    space = HHOSpace(mesh, 1)
    guess = space.interpolate(problem.exact_solution)
    u, report = newton_solve(problem, mesh, 1, initial_guess=guess)
    assert report.converged
    assert report.iterations <= 3
    other_space = HHOSpace(generate_cartesian(4), 1)
    with pytest.raises(ValueError, match="same mesh"):
        newton_solve(problem, mesh, 1,
                     initial_guess=HybridVector(other_space))


def test_newton_divergence_carries_report():
    problem = mean_curvature_problem()
    with pytest.raises(NewtonDivergedError) as info:
        newton_solve(problem, generate_cartesian(4), 1, max_iter=1)
    report = info.value.report
    assert not report.converged
    assert report.iterations == 1
    assert len(report.increments) == 1
    # No step at all has no increment to report.
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        newton_solve(problem, generate_cartesian(4), 1, max_iter=0)


def test_line_search_reaches_the_same_solution():
    problem = mean_curvature_problem()
    mesh = generate_cartesian(4)
    u_plain, _ = newton_solve(problem, mesh, 1)
    u_ls, report = newton_solve(problem, mesh, 1, line_search=True)
    assert report.converged
    scale = np.abs(u_plain.to_flat()).max()
    assert np.abs(u_ls.to_flat() - u_plain.to_flat()).max() <= 1e-7 * scale


@pytest.mark.parametrize("steepness, line_search", [(1, False), (64, False), (64, True)])
def test_newton_solve_calls_the_source_in_one_pass_over_the_chunks(steepness, line_search):
    # The source's cell load is integrated once and serves the bootstrap and
    # every residual, however many Newton steps and line-search trials run.
    base = steep_mean_curvature_problem(steepness)
    points = []

    def counting_source(x):
        points.append(len(x))
        return base.source(x)

    problem = dataclasses.replace(base, source=counting_source)
    mesh = harness.build_mesh("hexagonal-files", 1)  # three face-count groups
    u, report = newton_solve(problem, mesh, 2, line_search=line_search)
    assert report.iterations == {1: 3, 64: 10}[steepness]
    # The check samples the source at its 16 points first.
    assert points == [16] + [g.weights[g.op[sl]].size for g, sl in u.space._chunks()]


def test_linear_solve_reproduces_manufactured_poisson():
    def exact(x):
        return x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1])

    def source(x):
        return 2.0 * (x[:, 1] * (1 - x[:, 1]) + x[:, 0] * (1 - x[:, 0]))

    space = HHOSpace(generate_cartesian(8), 2)
    u = solve_linear_hho(space, source)
    v = space.interpolate(exact)
    rel = space.gradient_norm(u - v) / space.gradient_norm(v)
    assert rel < 1e-3


def _smooth_source(x):
    return np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) + 1


@pytest.mark.parametrize("family, n, k", [
    *[(f, n, k) for f, n in (("cartesian", 6), ("triangular", 4), ("hexagonal-files", 1))
      for k in range(4)],
    *[("kershaw-files", 1, k) for k in range(3)],
])
def test_poisson_bootstrap_equals_the_linear_problem_assembled_at_quadrature_points(
        family, n, k, monkeypatch, caplog):
    # The oracle is the linear problem a(z) = z with zero source and the
    # reaction f = -source, taken through a Newton step's assembly, which
    # integrates f at every quadrature point; the bootstrap builds each
    # class's stiffness once and takes the source's cell load as it is.
    space = HHOSpace(harness.build_mesh(family, n), k)
    linear = dataclasses.replace(linear_diffusion_problem(), f=lambda x, y, z: -_smooth_source(x))
    no_load = solver_mod._cell_load(space, linear.source)
    reference = solver_mod._increment(space, linear, HybridVector(space), no_load).to_flat()
    calls = []
    assemble = solver_mod._assemble

    def counting_assemble(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_assemble", counting_assemble)
    caplog.set_level(logging.DEBUG, logger="hhonl")
    u = solve_linear_hho(space, _smooth_source).to_flat()
    assert calls == []
    assert np.abs(u - reference).max() <= 1e-10 * np.abs(reference).max()
    built = [rec.getMessage() for rec in caplog.records
             if rec.getMessage().startswith("Poisson stiffness")]
    assert len(built) == 1
    assert re.fullmatch(rf"Poisson stiffness of {len(space._classes)} classes built in "
                        r"\d+\.\d{3} s", built[0]), built[0]


def test_non_finite_poisson_source_names_its_cells():
    def quadrant_nan_source(x):
        out = np.ones(len(x))
        out[(x[:, 0] > 0.5) & (x[:, 1] > 0.5)] = np.nan
        return out

    mesh = generate_cartesian(4)
    quadrant = np.flatnonzero((mesh.cell_centroids > 0.5).all(axis=1))
    with pytest.raises(EvaluationError,
                       match=rf"returned non-finite values on {len(quadrant)} cells: ") as info:
        solve_linear_hho(HHOSpace(mesh, 1), quadrant_nan_source)
    named = [int(c) for c in str(info.value).split(":")[-1].split(",")]
    assert sorted(named) == list(quadrant)


def _newton_stacks(space, problem, w, need_jacobian=True):
    """The local stacks of a Newton step at ``w``, assembled chunk by chunk as drawn."""
    load = solver_mod._cell_load(space, problem.source)
    return (solver_mod._assemble(space, problem, w, chunk, load, need_jacobian)
            for chunk in space._chunks())


def test_condensed_and_direct_solves_agree():
    problem = mean_curvature_problem()
    mesh = generate_cartesian(4)
    space = HHOSpace(mesh, 1)
    rng = np.random.default_rng(31)
    w = space.vector_from_flat(0.1 * rng.standard_normal(space.num_dofs))
    free = space.free_dofs()
    J = jacobian(problem, w)[np.ix_(free, free)].tocsr()
    r = residual(problem, w)[free]
    S, g, recover = static_condense(space, _newton_stacks(space, problem, w))
    x_schur = recover(spsolve(S, g))[free]
    x_direct = spsolve(J.tocsc(), r)
    scale = np.abs(x_direct).max()
    assert np.abs(x_schur - x_direct).max() <= 1e-10 * scale


def test_a_residual_only_pass_condenses_with_the_kept_jacobian():
    # J(w) d = r(v) through the blocks kept at w, on a nonsymmetric
    # Jacobian (a_y, f_y): J_FT J_TT^-1 r_T is not X_F^T r_T there.
    problem = _randomized_smooth_problem(np.random.default_rng(4242))
    space = HHOSpace(generate_cartesian(8), 2)
    rng = np.random.default_rng(32)
    w, v = (space.vector_from_flat(0.1 * rng.standard_normal(space.num_dofs)) for _ in range(2))
    kept = solver_mod._Kept()
    S, _, _ = static_condense(space, _newton_stacks(space, problem, w), kept)
    assert kept.S is S and len(kept.blocks) == len(list(space._chunks()))
    chord_S, g, recover = static_condense(
        space, _newton_stacks(space, problem, v, need_jacobian=False), kept)
    assert chord_S is S and kept.blocks == []
    free = space.free_dofs()
    J = jacobian(problem, w)[np.ix_(free, free)].tocsc()
    assert abs(J - J.T).max() > 1e-6 * abs(J).max()
    x_direct = spsolve(J, residual(problem, v)[free])
    x_chord = recover(spsolve(S, g))[free]
    assert np.abs(x_chord - x_direct).max() <= 1e-10 * np.abs(x_direct).max()


def test_static_condense_rejects_singular_cell_block(monkeypatch):
    problem = mean_curvature_problem()
    space = HHOSpace(generate_cartesian(4), 1)
    w = space.interpolate(problem.exact_solution).with_zero_boundary()
    cell = 9
    assemble = solver_mod._assemble

    def singular_block(*args, **kwargs):
        local = assemble(*args, **kwargs)
        local.J[local.ids == cell, :space.Nk, :space.Nk] = 0.0
        return local

    monkeypatch.setattr(solver_mod, "_assemble", singular_block)
    with pytest.raises(CondensationError, match=rf"^cell {cell}: singular cell block$"):
        static_condense(space, _newton_stacks(space, problem, w))


def test_a_singular_class_block_in_the_bootstrap_names_a_cell_of_its_class(monkeypatch):
    # Chunks of three cells, so that the class whose block is singular
    # first appears in a later chunk than the one that eliminates the stack.
    space = HHOSpace(generate_cartesian(4), 1)
    space._ensure_classes()
    (group,) = space._groups
    group.step = 3
    bad = group.op[-1]
    assert bad not in group.op[:3]
    poisson = solver_mod._poisson_local

    def singular_class(space, load):
        for c in poisson(space, load):
            c.J[bad, :space.Nk, :space.Nk] = 0.0
            yield c

    monkeypatch.setattr(solver_mod, "_poisson_local", singular_class)
    with pytest.raises(CondensationError, match=r"^cell (\d+): singular cell block$") as info:
        solve_linear_hho(space, _smooth_source)
    cell = int(re.match(r"cell (\d+)", str(info.value))[1])
    assert group.op[np.searchsorted(group.cells, cell)] == bad


def test_callback_failures_carry_cell_context():
    def fragile_a(x, y, z):
        if len(x) > 64:
            raise RuntimeError("boom")
        return z

    problem = NonlinearProblem(a=fragile_a, a_z=_identity, source=_no_source)
    space = HHOSpace(generate_cartesian(4), 1)
    with pytest.raises(EvaluationError, match="'a'.*boom"):
        residual(problem, HybridVector(space))


def _quadrant_nan_flux(x, y, z):
    out = np.array(z, dtype=float)
    out[(x[:, 0] > 0.5) & (x[:, 1] > 0.5)] = np.nan
    return out


def test_non_finite_callback_values_name_the_callback_and_cells():
    problem = NonlinearProblem(a=_quadrant_nan_flux, a_z=_identity, source=_no_source)
    mesh = generate_cartesian(4)
    space = HHOSpace(mesh, 1)
    with pytest.raises(EvaluationError, match="'a' returned non-finite") as info:
        residual(problem, HybridVector(space))
    named = [int(c) for c in str(info.value).split(":")[-1].split(",")]
    quadrant = np.flatnonzero((mesh.cell_centroids > 0.5).all(axis=1))
    assert sorted(named) == list(quadrant)


def test_check_rejects_non_finite_flux_derivative():
    def nan_az(x, y, z):
        out = np.array(np.broadcast_to(np.eye(2), (len(x), 2, 2)))
        out[0] = np.nan
        return out

    problem = NonlinearProblem(a=lambda x, y, z: z, a_z=nan_az, source=_no_source)
    with pytest.raises(ProblemDefinitionError):
        problem.check()


def test_face_rows_put_each_interior_face_in_one_block():
    mesh = generate_cartesian(12)
    for k in range(4):
        space = HHOSpace(mesh, k)
        rows = space.face_pattern().rows
        assert space.face_pattern().rows is rows
        assert np.all(rows[:space.num_cell_dofs] == -1)
        per_face = rows[space.num_cell_dofs:].reshape(mesh.num_faces, space.nF)
        assert np.all(per_face[mesh.boundary_faces] == -1)
        # The face at position j of the nested-dissection order owns rows
        # j (k+1) ... j (k+1) + k.
        ordered = per_face[mesh.interior_faces[mesh.interior_face_order]]
        assert np.array_equal(ordered, np.arange(ordered.size).reshape(-1, space.nF))


def test_face_order_is_built_once_per_newton_solve(monkeypatch):
    builds, factors = [], []
    build, factor = mesh_mod._cell_tree_order, solver_mod.splu

    def counting_build(*args):
        builds.append(1)
        return build(*args)

    def counting_factor(*args, **kwargs):
        factors.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(mesh_mod, "_cell_tree_order", counting_build)
    monkeypatch.setattr(solver_mod, "splu", counting_factor)
    mesh = generate_cartesian(12)  # 264 interior faces
    _, report = newton_solve(mean_curvature_problem(), mesh, 1)
    solves = report.linear_solves
    assert len(solves) == report.iterations + 1 >= 3  # bootstrap plus each step
    assert len(factors) == sum(s.factor != "held float32" for s in solves) >= 1
    assert len(builds) == 1


@pytest.mark.parametrize("mesh", [
    generate_cartesian(4),  # 24 interior faces
    PolytopalMesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[0, 1, 2, 3]]),
], ids=["one-block", "one-cell"])
def test_meshes_with_one_face_block_solve(mesh):
    order = mesh.interior_face_order
    assert np.array_equal(np.sort(order), np.arange(len(mesh.interior_faces)))
    u, report = newton_solve(mean_curvature_problem(), mesh, 2)
    assert report.converged
    assert np.all(np.isfinite(u.to_flat()))


def _capture_solve(monkeypatch):
    """Record the face systems, their right-hand sides and recoveries, and every factor."""
    seen = {"systems": [], "factors": []}
    condense, factor = solver_mod.static_condense, solver_mod.splu

    def capture_condense(*args):
        out = condense(*args)
        seen["systems"].append(out)
        return out

    def capture_factor(*args, **kwargs):
        seen["factors"].append(factor(*args, **kwargs))
        return seen["factors"][-1]

    monkeypatch.setattr(solver_mod, "static_condense", capture_condense)
    monkeypatch.setattr(solver_mod, "splu", capture_factor)
    return seen


def _cartesian_32_k3_factor(monkeypatch):
    """The face system of one Newton step on ``cartesian`` 32, k=3, its factor and increment."""
    problem = mean_curvature_problem()
    space = HHOSpace(generate_cartesian(32), 3)
    w = space.interpolate(problem.exact_solution).with_zero_boundary()
    seen = _capture_solve(monkeypatch)
    d = solver_mod._increment(space, problem, w, solver_mod._cell_load(space, problem.source))
    (S, g, recover), = seen["systems"]
    lu, = seen["factors"]
    return S, lu, (g, recover, d)


def test_nested_dissection_factor_fill_is_under_half_of_colamd(monkeypatch):
    # Guards the ordering against a silent fill regression: on this system
    # the factor holds 0.90 M entries against 3.07 M with COLAMD.
    S, lu, _ = _cartesian_32_k3_factor(monkeypatch)
    colamd = splu(S)
    assert lu.L.nnz + lu.U.nnz < 0.5 * (colamd.L.nnz + colamd.U.nnz)


def test_cell_tree_factor_of_cartesian_32_k3_holds_under_a_million_entries(monkeypatch):
    # 0.90 M entries; an order that stops at 64-face leaves gives 1.28 M.
    _, lu, _ = _cartesian_32_k3_factor(monkeypatch)
    assert lu.L.nnz + lu.U.nnz < 1_000_000
    assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))  # no row swapped


def test_single_precision_factor_refines_to_the_double_precision_solve(monkeypatch):
    S, lu, (g, recover, d) = _cartesian_32_k3_factor(monkeypatch)
    assert S.dtype == np.float64
    assert lu.L.dtype == lu.U.dtype == np.float32
    assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))  # no row swapped
    reference = -recover(spsolve(S, g))
    assert np.abs(d.to_flat() - reference).max() <= 1e-12 * np.abs(reference).max()


def test_face_system_beyond_single_precision_falls_back_to_a_double_factor(monkeypatch):
    # Entries of about 1e39 overflow float32 (max 3.4e38), so the float32
    # factor fails and the same loop factors the system in float64.
    seen = _capture_solve(monkeypatch)
    solve_linear_hho(HHOSpace(generate_cartesian(8), 0), lambda x: np.ones(len(x)))
    (S, g, _), = seen["systems"]
    S, g = 1e39 * S, 1e39 * g
    assert abs(S).max() > np.finfo(np.float32).max
    seen["factors"].clear()
    faces = solver_mod._FaceFactor()
    x = faces.solve(S, g)
    lu, = seen["factors"]  # the float32 attempt raised before returning a factor
    assert lu.L.dtype == np.float64
    (record,) = faces.solves
    assert record.factor == "float64" and record.residual <= 1e-12
    assert faces.lu is None  # only a float32 factor is held
    reference = spsolve(S, g)
    assert np.abs(x - reference).max() <= 1e-10 * np.abs(reference).max()


def test_stalled_single_precision_solve_falls_back_to_a_double_factor(monkeypatch, caplog):
    # Condition number 1e9: float32 round-off times that is far above 1, so
    # flexible GMRES with the float32 factor converges too slowly to pay
    # and a float64 factor takes over from its iterate.
    rng = np.random.default_rng(3)
    n = 60
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (U * np.logspace(0, -9, n)) @ U.T
    S = sparse.csc_matrix(A)
    g = rng.standard_normal(n)
    seen = _capture_solve(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="hhonl")
    faces = solver_mod._FaceFactor()
    x = faces.solve(S, g)
    assert [lu.L.dtype for lu in seen["factors"]] == [np.float32, np.float64]
    assert any(rec.getMessage().startswith("fresh float32 factor gave up after")
               for rec in caplog.records)
    (record,) = faces.solves
    assert record.factor == "float64" and record.steps >= 1
    # Backward stable, and as close to SuperLU's direct solve as the
    # conditioning allows (1e9 times double round-off, about 2e-7).
    assert np.linalg.norm(g - A @ x) <= 1e-15 * np.linalg.norm(A, 2) * np.linalg.norm(x)
    reference = spsolve(S, g)
    assert np.abs(x - reference).max() <= 1e-6 * np.abs(reference).max()


@pytest.mark.parametrize("held, used", [("unrelated", "fresh float32"),
                                        ("nearby", "held float32")], ids=["unrelated", "nearby"])
def test_a_held_factor_is_kept_only_while_it_pays(monkeypatch, held, used):
    # A held factor of an unrelated matrix cannot precondition S and is
    # replaced by a fresh factor; one of a nearby matrix is kept.
    rng = np.random.default_rng(4)
    B = rng.standard_normal((40, 40))
    S = sparse.csc_matrix(B @ B.T + 40 * np.eye(40))
    g = rng.standard_normal(40)
    near = S + sparse.diags(1e-3 * rng.standard_normal(40) * S.diagonal())
    other = {"unrelated": sparse.csc_matrix(B + 40 * np.eye(40)), "nearby": near}[held]
    faces = solver_mod._FaceFactor()
    faces.lu = bad = solver_mod._factor(sparse.csc_matrix(other), np.float32)
    seen = _capture_solve(monkeypatch)
    x = faces.solve(S, g)
    (record,) = faces.solves
    assert record.factor == used and record.residual <= 1e-12
    assert len(seen["factors"]) == (used != "held float32")
    assert (faces.lu is bad) == (used == "held float32")
    reference = spsolve(S, g)
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def _record_face_solves(monkeypatch):
    """Every face system, its right-hand side, tolerance and solution, and every factor."""
    seen = _capture_solve(monkeypatch)
    seen["solutions"] = []
    solve = solver_mod._FaceFactor.solve

    def capture_solve(self, S, g, rtol=solver_mod._RTOL):
        x = solve(self, S, g, rtol)
        seen["solutions"].append((S, g, rtol, x))
        return x

    monkeypatch.setattr(solver_mod._FaceFactor, "solve", capture_solve)
    return seen


def test_each_linear_solve_makes_at_most_one_factor(monkeypatch):
    seen = _record_face_solves(monkeypatch)
    space = HHOSpace(generate_triangular(6), 2)
    solve_linear_hho(space, lambda x: np.ones(len(x)))  # makes and drops its own factor
    _, report = newton_solve(mean_curvature_problem(), space.mesh, 2)
    solves = report.linear_solves
    assert len(solves) == report.iterations + 1 == len(seen["systems"]) - 1
    assert solves[0].factor == "fresh float32"
    made = sum(s.factor != "held float32" for s in solves)
    assert made < len(solves)  # the Newton steps reuse a factor
    assert len(seen["factors"]) == 1 + made
    assert all(lu.L.dtype == np.float32 for lu in seen["factors"])
    # Each solve reports its system's size and the fill of the factor that
    # finished it: its own fresh one, or the one it held.
    fresh = iter(seen["factors"][1:])
    for solve, (S, _, _) in zip(solves, seen["systems"][1:]):
        if solve.factor != "held float32":
            lu = next(fresh)
        assert (solve.rows, solve.nnz, solve.fill) == (S.shape[0], S.nnz, lu.nnz)
    # Every face solve reaches its tolerance, whichever factor it used:
    # the Poisson solve on its own goes to double precision, and the
    # solves of a Newton solve to their forcing terms.
    rtols = [rtol for _, _, rtol, _ in seen["solutions"]]
    assert rtols == [solver_mod._RTOL] + [s.rtol for s in solves]
    assert rtols[1] == rtols[2] == solver_mod._FORCING_CAP  # the bootstrap and first step
    for S, g, rtol, x in seen["solutions"]:
        assert np.linalg.norm(g - S @ x) <= max(rtol, 1e-12) * np.linalg.norm(g)
        if rtol == solver_mod._RTOL:
            reference = spsolve(S, g)
            assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def test_steep_problem_replaces_a_held_factor_and_keeps_the_solution(monkeypatch):
    # u = 64 x(1-x) y(1-y): the Jacobian moves far between Newton steps, so
    # some held factors stop paying and are replaced.
    problem, mesh = steep_mean_curvature_problem(64), generate_cartesian(16)
    u, report = newton_solve(problem, mesh, 1)
    assert report.iterations == 10
    kinds = [s.factor for s in report.linear_solves]
    assert "fresh float32" in kinds[1:]  # a factor was held from the bootstrap on
    assert "held float32" in kinds
    assert all(s.residual <= max(s.rtol, 1e-12) for s in report.linear_solves)
    monkeypatch.setattr(solver_mod._FaceFactor, "solve", lambda self, S, g, rtol: spsolve(S, g))
    reference, direct = newton_solve(problem, mesh, 1)
    assert direct.iterations == 10
    scale = np.abs(reference.to_flat()).max()
    assert np.abs(u.to_flat() - reference.to_flat()).max() <= 1e-12 * scale


def test_solve_logs_face_system_and_ordering_at_debug(caplog):
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("hhonl").handlers)
    caplog.set_level(logging.DEBUG, logger="hhonl")
    mesh = generate_cartesian(12)
    u, report = newton_solve(mean_curvature_problem(), mesh, 1)
    messages = [rec.getMessage() for rec in caplog.records]
    # The bootstrap eliminates one block per class, a Newton step one per
    # cell, a chord step none.
    condensed = [m for m in messages if m.startswith("condensed ")]
    blocks = [len(u.space._classes)] + [0 if it in report.chord_steps else 144
                                        for it in range(1, report.iterations + 1)]
    assert condensed == [f"condensed 144 cells, {b} distinct cell blocks eliminated"
                         for b in blocks]
    systems = [m for m in messages if m.startswith("face system:")]
    assert len(systems) == report.iterations + 1
    # Two dofs per face, coupled to every face of the cells around it.
    interior = set(mesh.interior_faces.tolist())
    coupled = set()
    for faces in mesh.cell_faces:
        inner = [f for f in faces.tolist() if f in interior]
        coupled.update((a, b) for a in inner for b in inner)
    nnz = len(coupled) * 4
    # The bootstrap factors its system in float32 and reaches double
    # precision in a few flexible GMRES steps; each Newton step keeps that
    # factor and needs more steps, far fewer than a factor costs.
    for solve, message in zip(report.linear_solves, systems):
        match = re.fullmatch(rf"face system: {264 * 2} rows, {nnz} nonzeros, "
                             r"(fresh|held) float32 factor, (\d+) Krylov steps, "
                             r"tolerance (\S+), relative residual (\S+)", message)
        assert match, message
        assert (f"{match[1]} float32", int(match[2])) == (solve.factor, solve.steps)
        assert (solve.rows, solve.nnz) == (264 * 2, nnz)
        assert float(match[3]) == float(f"{solve.rtol:.1e}")
        assert float(match[4]) <= max(float(match[3]), 1e-12)
    kinds = [s.factor for s in report.linear_solves]
    assert kinds == ["fresh float32"] + ["held float32"] * report.iterations
    assert 2 <= report.linear_solves[0].steps <= 4
    assert all(2 <= s.steps <= 10 for s in report.linear_solves[1:])
    orders = [m for m in messages if m.startswith("nested-dissection order")]
    assert len(orders) == 1
    # 144 cells take 8 levels of halving; the top split is the middle grid line.
    assert orders[0].startswith("nested-dissection order of 264 interior faces: "
                                "cell tree depth 8, top separator 12 faces, built in ")


@pytest.mark.parametrize("k", [1, 2])
def test_chord_step_of_a_nonsymmetric_jacobian_matches_direct_newton(k):
    # a_y and f_y do not vanish, so the kept J_FT is not J_TF^T: a chord
    # step that condensed with X_F^T instead would leave the direct solve.
    problem = _randomized_smooth_problem(np.random.default_rng(4242))
    mesh = generate_cartesian(8)
    u, report = newton_solve(problem, mesh, k)
    direct, iterations = _direct_newton(problem, mesh, k)
    assert report.chord_steps == [report.iterations] == [iterations]
    rel = np.abs(u.to_flat() - direct.to_flat()).max() / np.abs(direct.to_flat()).max()
    assert rel <= 1e-10


def test_a_chord_step_assembles_no_jacobian_and_makes_no_factor(monkeypatch):
    calls, kept = [], []
    assemble, condense = solver_mod._assemble, solver_mod.static_condense

    def recording_assemble(*args, need_jacobian, **kwargs):
        calls.append(need_jacobian)
        return assemble(*args, need_jacobian=need_jacobian, **kwargs)

    def recording_condense(space, local, *rest):
        kept.append(rest[0] if rest else None)
        return condense(space, local, *rest)

    monkeypatch.setattr(solver_mod, "_assemble", recording_assemble)
    monkeypatch.setattr(solver_mod, "static_condense", recording_condense)
    seen = _capture_solve(monkeypatch)
    mesh = harness.build_mesh("hexagonal-files", 1)  # three face-count groups
    u, report = newton_solve(mean_curvature_problem(), mesh, 2)
    chunks = len(list(u.space._chunks()))
    assert chunks > 1
    assert report.chord_steps == [report.iterations] == [3]
    assert calls.count(True) == (report.iterations - len(report.chord_steps)) * chunks
    assert calls.count(False) == len(report.chord_steps) * chunks
    # The bootstrap keeps no cell blocks; each Jacobian step keeps its own,
    # and the chord step condenses with those of the step before it.
    assert kept[0] is None
    assert kept[1] is not kept[2] is kept[3]
    assert kept[2].S is kept[3].S and kept[3].blocks == []  # used up by the chord step
    solves = report.linear_solves
    assert all(solves[i].factor == "held float32" for i in report.chord_steps)
    assert len(seen["factors"]) == sum(s.factor != "held float32" for s in solves)


def test_each_distinct_cell_block_is_eliminated_once(monkeypatch):
    # The bootstrap inverts one block per congruence class, each Newton
    # step one per cell, and a chord step none: it reuses its step's.
    eliminated = []
    eliminate, condense = solver_mod._eliminate, solver_mod.static_condense

    def counting_eliminate(J, *args):
        eliminated[-1] += len(J)
        return eliminate(J, *args)

    def marking_condense(*args):
        eliminated.append(0)
        return condense(*args)

    monkeypatch.setattr(solver_mod, "_eliminate", counting_eliminate)
    monkeypatch.setattr(solver_mod, "static_condense", marking_condense)
    monkeypatch.setattr("hhonl.hho._CHUNK_BYTES", 1 << 14)  # one or two cells per chunk
    mesh = harness.build_mesh("hexagonal-files", 1)  # three face-count groups
    u, report = newton_solve(mean_curvature_problem(), mesh, 2)
    assert report.chord_steps == [report.iterations] == [3]
    classes = len(u.space._classes)
    assert classes < len(list(u.space._chunks())) < mesh.num_cells
    assert eliminated == [classes] + [mesh.num_cells] * 2 + [0]


def test_a_chord_step_is_solved_to_the_forcing_cap():
    _, report = newton_solve(mean_curvature_problem(), generate_cartesian(8), 2)
    assert report.chord_steps == [report.iterations]
    solves = report.linear_solves
    assert [solves[i].rtol for i in report.chord_steps] == [solver_mod._FORCING_CAP]
    assert all(s.residual <= solver_mod._FORCING_CAP for s in solves)


def test_a_damped_step_is_not_followed_by_a_chord_step(monkeypatch):
    # With every increment small enough, each full step is followed by a
    # chord step; a step the line search shortened is not.  u = 256
    # x(1-x)y(1-y) on cartesian 8 makes the line search halve some steps.
    monkeypatch.setattr(solver_mod, "_CHORD_INCREMENT", np.inf)
    log = []
    evaluate, solve = solver_mod._residual, solver_mod._FaceFactor.solve

    def counting_residual(*args):
        log[-1] += 1
        return evaluate(*args)

    def marking_solve(self, *args):
        log.append(0)
        return solve(self, *args)

    monkeypatch.setattr(solver_mod, "_residual", counting_residual)
    monkeypatch.setattr(solver_mod._FaceFactor, "solve", marking_solve)
    _, report = newton_solve(steep_mean_curvature_problem(256), generate_cartesian(8), 1,
                             line_search=True)
    # Each step evaluates the residual at the iterate and at each trial.
    damped = [n > 2 for n in log[1:]]
    assert len(damped) == report.iterations
    chord = [it in report.chord_steps for it in range(1, report.iterations + 1)]
    full = [not c and not d for c, d in zip(chord, damped)]
    assert chord == [False] + full[:-1]
    assert any(d and not c for c, d in zip(chord[:-1], damped[:-1]))  # a damped full step


def test_a_full_step_that_converges_evaluates_no_residual_in_the_line_search(monkeypatch):
    # At round-off no trial decreases the residual enough, so a search
    # would evaluate all 8 trials and shrink the converging step to 1/256.
    log = []
    evaluate, solve = solver_mod._residual, solver_mod._FaceFactor.solve

    def counting_residual(*args):
        log[-1] += 1
        return evaluate(*args)

    def marking_solve(self, *args):
        log.append(0)
        return solve(self, *args)

    monkeypatch.setattr(solver_mod, "_residual", counting_residual)
    monkeypatch.setattr(solver_mod._FaceFactor, "solve", marking_solve)
    _, report = newton_solve(steep_mean_curvature_problem(256), generate_cartesian(8), 1,
                             line_search=True)
    assert report.converged and report.iterations == 14
    assert len(log) == report.iterations + 1  # the bootstrap's solve, then each step's
    assert log[-1] == 0 and report.increments[-1] <= 1e-8
    assert max(log[1:-1]) > 2  # earlier steps searched


def test_solve_builds_no_sparse_matrix_but_the_face_system(monkeypatch):
    # The cell unknowns are eliminated from each cell's own block, so the
    # only sparse matrices of a solve are the condensed face systems, built
    # straight in compressed columns, and the copy of each that a factor
    # takes in its own precision, sharing the system's index arrays.
    built = {"coo": [], "csr": [], "csc": []}
    for kind in built:
        make = getattr(solver_mod.sparse, f"{kind}_matrix")

        def recording(*args, _make=make, _seen=built[kind], **kwargs):
            A = _make(*args, **kwargs)
            _seen.append(A)
            return A

        monkeypatch.setattr(solver_mod.sparse, f"{kind}_matrix", recording)
    seen = _capture_solve(monkeypatch)
    mesh = generate_cartesian(8)
    u, report = newton_solve(mean_curvature_problem(), mesh, 2)
    face_dofs = len(mesh.interior_faces) * 3
    assert built["coo"] == built["csr"] == []
    systems = [S for S, _, _ in seen["systems"]]
    assert len(systems) == report.iterations + 1  # bootstrap plus each step
    # A chord step builds no system: it solves the one its Jacobian step built.
    assert report.chord_steps == [report.iterations]
    assert [systems[i] is systems[i - 1] for i in range(1, len(systems))] == [
        i in report.chord_steps for i in range(1, len(systems))]
    copies = [A for A in built["csc"] if not any(A is S for S in systems)]
    assert len(built["csc"]) == len(systems) - len(report.chord_steps) + len(copies)
    assert {A.shape for A in built["csc"]} == {(face_dofs, face_dofs)}
    assert all(S.dtype == np.float64 for S in systems)
    assert len(copies) == len(seen["factors"]) >= 1
    pattern = u.space.face_pattern()
    for A in copies:
        assert A.dtype == np.float32
        assert _same_buffer(A.indices, pattern.indices) and _same_buffer(A.indptr, pattern.indptr)


def _same_buffer(a, b):
    """Whether two arrays are views of one buffer with one shape: no copy was made."""
    return a.shape == b.shape and a.ctypes.data == b.ctypes.data


def _condensed_by_coo(space, problem, w):
    """The face system of :func:`static_condense`, its triplets summed by ``tocsc``."""
    Nk, rows = space.Nk, space.face_pattern().rows
    n = len(space.mesh.interior_faces) * space.nF
    load = solver_mod._cell_load(space, problem.source)
    parts = []
    for chunk in space._chunks():
        c = solver_mod._assemble(space, problem, w, chunk, load, need_jacobian=True)
        X_F = np.linalg.inv(c.J[:, :Nk, :Nk]) @ c.J[:, :Nk, Nk:]
        schur = c.J[:, Nk:, Nk:] - c.J[:, Nk:, :Nk] @ X_F
        f = rows[c.gidx[:, Nk:]]
        b = f.shape[1]
        r, col = np.repeat(f, b, axis=1).ravel(), np.tile(f, (1, b)).ravel()
        keep = (r >= 0) & (col >= 0)
        parts.append((r[keep], col[keep], schur.ravel()[keep]))
    r, col, data = (np.concatenate(part) for part in zip(*parts))
    return sparse.coo_matrix((data, (r, col)), shape=(n, n)).tocsc()


# Two unit squares whose common side has a vertex in the middle: both cells
# hold both halves, so every entry of the face system gets two contributions.
_TWO_SHARED_FACES = PolytopalMesh([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1], [1, 0.5]],
                                  [[0, 1, 6, 4, 5], [1, 2, 3, 4, 6]])
_ONE_CELL = PolytopalMesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[0, 1, 2, 3]])


@pytest.mark.parametrize("make_mesh, k", [
    *[(lambda f=f, n=n: harness.build_mesh(f, n), k)
      for f, n in (("cartesian", 6), ("triangular", 3), ("hexagonal-files", 1),
                   ("kershaw-files", 1))
      for k in (0, 3)],
    (lambda: generate_cartesian(4), 2),
    (lambda: _ONE_CELL, 2),
    (lambda: _TWO_SHARED_FACES, 1),
], ids=[f"{f}-k{k}" for f in ("cartesian", "triangular", "hexagonal-files", "kershaw-files")
        for k in (0, 3)] + ["one-block", "one-cell", "two-shared-faces"])
def test_face_system_equals_the_coo_sum_of_the_local_schur_complements(make_mesh, k):
    space = HHOSpace(make_mesh(), k)
    rng = np.random.default_rng(17)
    w = space.vector_from_flat(0.1 * rng.standard_normal(space.num_dofs)).with_zero_boundary()
    problem = mean_curvature_problem()
    # The first call builds the pattern, the second reuses it.
    systems = [static_condense(space, _newton_stacks(space, problem, w))[0] for _ in range(2)]
    reference = _condensed_by_coo(space, problem, w)
    for S in systems:
        assert S.format == "csc" and S.shape == reference.shape
        assert S.indices.dtype == S.indptr.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(S, name), getattr(reference, name)), name


def test_one_newton_solve_builds_the_face_pattern_once(monkeypatch):
    builds = []
    build = HHOSpace._build_face_pattern

    def counting_build(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(HHOSpace, "_build_face_pattern", counting_build)
    seen = _capture_solve(monkeypatch)
    u, report = newton_solve(mean_curvature_problem(), generate_triangular(6), 2)
    assert builds == [u.space]
    pattern = u.space.face_pattern()
    assert len(seen["systems"]) == report.iterations + 1  # the bootstrap and every step
    for S, _, _ in seen["systems"]:
        assert _same_buffer(S.indices, pattern.indices) and _same_buffer(S.indptr, pattern.indptr)


def test_second_condensation_holds_little_beyond_its_result():
    # The face system is summed in place into the data of the cached
    # pattern.  Summing COO triplets held them, their concatenated copy and
    # the sort of tocsc at once: a peak of 3.1 times the system and the
    # kept cell blocks, against 1.5 times here.
    space = HHOSpace(generate_cartesian(64), 3)
    problem = mean_curvature_problem()
    w = space.interpolate(problem.exact_solution).with_zero_boundary()
    static_condense(space, _newton_stacks(space, problem, w))
    tracemalloc.start()
    try:
        S, _, _ = static_condense(space, _newton_stacks(space, problem, w))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    Nk = space.Nk
    kept = sum(8 * len(g.cells[sl]) * Nk * (g.gidx.shape[1] - Nk + 1) for g, sl in space._chunks())
    assert peak < 2 * (S.data.nbytes + S.indices.nbytes + S.indptr.nbytes + kept)


def test_mean_curvature_flux_matches_its_summed_formula_bitwise():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((10_000, 2)) * np.logspace(-3, 3, 10_000)[:, None]
    x, y = rng.random((len(z), 2)), rng.standard_normal(len(z))
    expected = z / np.sqrt(1.0 + (z**2).sum(axis=1))[:, None]
    assert np.array_equal(mean_curvature_problem().a(x, y, z), expected)
