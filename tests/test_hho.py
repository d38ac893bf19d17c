"""Local reconstructions, stabilization, interpolation, and discrete norms.

The gradient and potential reconstructions are checked against their
defining variational equations with quadrature assembled from scratch,
independent of the cached operator matrices.
"""

import logging

import numpy as np
import pytest

from hhonl import hho
from hhonl.basis import CellBasis, cell_mass_matrix, graded_lex_exponents, l2_project_cell
from hhonl.harness import build_mesh
from hhonl.hho import (
    HHOSpace,
    HybridVector,
    OperatorBuildError,
)
from hhonl.mesh import PolytopalMesh, generate_cartesian, generate_triangular
from hhonl.quadrature import QuadratureError, cell_quadrature, face_quadrature
from hhonl.solver import mean_curvature_problem, newton_solve


def pentagon_mesh():
    """Unit square split into a pentagon and a pentagon by a zigzag cut."""
    verts = [[0.0, 0.0], [0.6, 0.0], [1.0, 0.0], [1.0, 1.0],
             [0.4, 1.0], [0.0, 1.0], [0.7, 0.5]]
    cells = [[0, 1, 6, 4, 5], [1, 2, 3, 4, 6]]
    return PolytopalMesh(verts, cells)


def operator_meshes():
    """Meshes for the defining-equation checks: two pentagons, one Kershaw level
    with a class per distorted cell, and hexagonal level 1 with 4-, 5- and
    6-gons in one space."""
    return (pentagon_mesh(), build_mesh("kershaw-files", 1),
            build_mesh("hexagonal-files", 1))


def local_block(space, ci, v):
    """Local dof block (v_T, v_F1, ...) of a hybrid vector on one cell."""
    parts = [v.cell_blocks[ci]]
    for fi in space.mesh.cell_faces[ci]:
        parts.append(v.face_blocks[fi])
    return np.concatenate(parts)


def random_polynomial(rng, degree):
    exps = graded_lex_exponents(degree)
    coeffs = rng.standard_normal(len(exps))

    def value(p):
        return sum(c * p[:, 0] ** a * p[:, 1] ** b
                   for c, (a, b) in zip(coeffs, exps))

    def grad(p):
        gx = sum(c * a * p[:, 0] ** max(a - 1, 0) * p[:, 1] ** b
                 for c, (a, b) in zip(coeffs, exps) if a > 0)
        gy = sum(c * b * p[:, 0] ** a * p[:, 1] ** max(b - 1, 0)
                 for c, (a, b) in zip(coeffs, exps) if b > 0)
        n = len(p)
        return np.column_stack((np.broadcast_to(gx, n), np.broadcast_to(gy, n)))

    return value, grad


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_gradient_reconstruction_defining_equation(k):
    # (G v, tau)_T = (grad v_T, tau)_T + sum_F (v_F - v_T, tau . n_TF)_F
    # for every tau in P_k(T)^2, checked with freshly built quadrature.
    rng = np.random.default_rng(100 + k)
    for mesh in operator_meshes():
        space = HHOSpace(mesh, k)
        for ci in range(mesh.num_cells):
            G = space.build_gradient_reconstruction(ci)
            vloc = rng.standard_normal(G.shape[1])
            q = G @ vloc
            cb = space.cell_basis(ci)
            rule = cell_quadrature(mesh.cell_vertices(ci), 2 * (k + 1))
            phi = cb.evaluate(rule.points)[:, :space.Nk]
            gphi = cb.gradient(rule.points)[:, :space.Nk, :]
            vT = vloc[:space.Nk]
            lhs_x = phi.T @ (rule.weights * (phi @ q[:space.Nk]))
            lhs_y = phi.T @ (rule.weights * (phi @ q[space.Nk:]))
            grad_vT = np.einsum("i,qid->qd", vT, gphi)
            rhs_x = phi.T @ (rule.weights * grad_vT[:, 0])
            rhs_y = phi.T @ (rule.weights * grad_vT[:, 1])
            for slot, fi in enumerate(mesh.cell_faces[ci]):
                fb = space.face_basis(fi)
                frule = face_quadrature((fb.start, fb.end), 2 * (k + 1))
                nvec = mesh.outward_normal(ci, fi)
                vF = vloc[space.Nk + slot * space.nF:space.Nk + (slot + 1) * space.nF]
                jump = fb.evaluate(frule.points) @ vF \
                    - cb.evaluate(frule.points)[:, :space.Nk] @ vT
                trace = cb.evaluate(frule.points)[:, :space.Nk]
                rhs_x += nvec[0] * trace.T @ (frule.weights * jump)
                rhs_y += nvec[1] * trace.T @ (frule.weights * jump)
            scale = np.abs(vloc).max()
            np.testing.assert_allclose(lhs_x, rhs_x, atol=1e-12 * scale)
            np.testing.assert_allclose(lhs_y, rhs_y, atol=1e-12 * scale)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_potential_reconstruction_defining_equation(k):
    # (grad R v, grad q)_T = (grad v_T, grad q)_T + sum_F (v_F - v_T, grad q . n)_F
    # for every q in P_{k+1}(T), plus the mean constraint (R v, 1) = (v_T, 1).
    rng = np.random.default_rng(200 + k)
    for mesh in operator_meshes():
        space = HHOSpace(mesh, k)
        for ci in range(mesh.num_cells):
            R = space.build_potential_reconstruction(ci)
            vloc = rng.standard_normal(R.shape[1])
            r = R @ vloc
            cb = space.cell_basis(ci)
            rule = cell_quadrature(mesh.cell_vertices(ci), 2 * (k + 1))
            gphi = cb.gradient(rule.points)
            vT = vloc[:space.Nk]
            grad_r = np.einsum("i,qid->qd", r, gphi)
            grad_vT = np.einsum("i,qid->qd", vT, gphi[:, :space.Nk, :])
            lhs = np.einsum("qid,q,qd->i", gphi, rule.weights, grad_r)
            rhs = np.einsum("qid,q,qd->i", gphi, rule.weights, grad_vT)
            for slot, fi in enumerate(mesh.cell_faces[ci]):
                fb = space.face_basis(fi)
                frule = face_quadrature((fb.start, fb.end), 2 * (k + 1))
                nvec = mesh.outward_normal(ci, fi)
                vF = vloc[space.Nk + slot * space.nF:space.Nk + (slot + 1) * space.nF]
                jump = fb.evaluate(frule.points) @ vF \
                    - cb.evaluate(frule.points)[:, :space.Nk] @ vT
                gn = cb.gradient(frule.points) @ nvec
                rhs += gn.T @ (frule.weights * jump)
            scale = max(np.abs(vloc).max(), 1.0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-11 * scale)
            mean_r = rule.weights @ (cb.evaluate(rule.points) @ r)
            mean_v = rule.weights @ (cb.evaluate(rule.points)[:, :space.Nk] @ vT)
            assert mean_r == pytest.approx(mean_v, abs=1e-13 * scale)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_reconstructions_are_exact_on_interpolated_polynomials(k):
    rng = np.random.default_rng(300 + k)
    probe = rng.uniform(0.1, 0.9, (40, 2))
    for mesh in (generate_cartesian(3), generate_triangular(2), pentagon_mesh()):
        space = HHOSpace(mesh, k)
        value, grad = random_polynomial(rng, k + 1)
        v = space.interpolate(value)
        pot = space.reconstruct_potential_global(v)
        gx = space.reconstruct_gradient_global(v)
        scale = np.abs(value(probe)).max()
        for ci in range(mesh.num_cells):
            inside = probe[np.array([_point_in(mesh, ci, p) for p in probe])]
            if not len(inside):
                continue
            np.testing.assert_allclose(space.cell_basis(ci).evaluate(inside) @ pot[ci],
                                       value(inside), atol=1e-11 * scale)
            np.testing.assert_allclose(space.cell_basis(ci, k).evaluate(inside) @ gx[ci].T,
                                       grad(inside), atol=1e-10 * scale)


def _point_in(mesh, ci, p):
    cell = mesh.cells[ci]
    v = mesh.vertices[cell]
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) < 0:
            return False
    return True


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stabilization_is_spsd_and_kills_interpolants(k):
    rng = np.random.default_rng(400 + k)
    for mesh in operator_meshes():
        space = HHOSpace(mesh, k)
        value, _ = random_polynomial(rng, k + 1)
        v = space.interpolate(value)
        for ci in range(mesh.num_cells):
            S = space.build_stabilization(ci)
            np.testing.assert_allclose(S, S.T, atol=1e-13 * np.abs(S).max())
            eigs = np.linalg.eigvalsh(S)
            assert eigs.min() >= -1e-11 * max(eigs.max(), 1.0)
            vloc = local_block(space, ci, v)
            energy = vloc @ S @ vloc
            scale = max(vloc @ vloc, 1.0)
            assert abs(energy) <= 1e-11 * scale, (ci, energy)


def test_congruent_cells_share_operator_matrices():
    # Cells 5 and 10 of the 4x4 grid are translates with the same face
    # ownership pattern, so they must share one class and one row of the
    # cached operator stacks.
    space = HHOSpace(generate_cartesian(4), 1)
    G5, G10 = space.build_gradient_reconstruction(5), space.build_gradient_reconstruction(10)
    S5, S10 = space.build_stabilization(5), space.build_stabilization(10)
    (g5, i5), (g10, i10) = space._locate(5), space._locate(10)
    assert g5 is g10 and g5.op[i5] == g10.op[i10]
    assert np.shares_memory(G5, G10) and G5.shape == G10.shape
    assert np.shares_memory(S5, S10) and S5.shape == S10.shape
    np.testing.assert_array_equal(G5, G10)
    np.testing.assert_array_equal(S5, S10)
    # Cell 0 owns all its faces, so it has a class and a stack row of its own.
    assert not np.shares_memory(space.build_gradient_reconstruction(0), G5)


@pytest.mark.parametrize("generate, n", [(generate_cartesian, 96),
                                         (generate_triangular, 100)])
def test_congruence_key_absorbs_round_off(generate, n):
    # A grid spacing that is not a power of two leaves round-off in the
    # centroid-relative corners; the cells still fall into the four classes
    # of their face-ownership patterns.
    space = HHOSpace(generate(n), 0)
    space._ensure_classes()
    assert len(space._classes) == 4


def test_a_perturbed_cell_gets_a_class_of_its_own():
    # Moving the grid vertex (4, 4) of the 8x8 grid by 1e-6 h changes the
    # four interior cells around it: each gets a class of its own.  A
    # round-off-sized move changes no class.
    ref = generate_cartesian(8)
    around = [3 * 8 + 3, 3 * 8 + 4, 4 * 8 + 3, 4 * 8 + 4]

    def classes_after(shift):
        verts = ref.vertices.copy()
        verts[4 * 9 + 4] += shift * ref.cell_diameters[0] * np.array([0.6, 0.8])
        space = HHOSpace(PolytopalMesh(verts, ref.cells), 1)
        space._ensure_classes()
        return space, [_class_size(space, ci) for ci in around]

    space, sizes = classes_after(1e-6)
    assert len(space._classes) == 4 + 4
    assert sizes == [1, 1, 1, 1]
    space, sizes = classes_after(1e-12)
    assert len(space._classes) == 4
    assert sizes == [7 * 7] * 4


def _class_size(space, ci):
    """Number of cells sharing cell ``ci``'s congruence class."""
    g, i = space._locate(ci)
    return int(np.count_nonzero(g.op == g.op[i]))


def test_operator_build_logs_groups_and_classes_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="hhonl")
    space = HHOSpace(build_mesh("hexagonal-files", 1), 1)
    space._ensure_classes()
    space._ensure_classes()
    built = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("operators of")]
    assert len(built) == 1
    assert built[0].startswith(
        f"operators of 68 cells in 3 face-count groups, {len(space._classes)} "
        "distinct classes, built in ")


def test_one_cell_rule_per_face_count_group_serves_operators_and_assembly(monkeypatch):
    degrees = []

    def counted(verts, degree):
        degrees.append(degree)
        return cell_quadrature(verts, degree)

    monkeypatch.setattr(hho, "cell_quadrature", counted)
    space = HHOSpace(build_mesh("hexagonal-files", 1), 1)
    space._ensure_classes()
    # 4-, 5- and 6-gons: three groups, each with one rule of degree 2k+4.
    assert degrees == [space.quad_degree] * 3
    for g in space._groups:
        phi = g.phi[..., :space.Nk]
        mass = np.swapaxes(phi * g.weights[..., None], 1, 2) @ phi
        np.testing.assert_allclose(g.Mk, mass, rtol=0, atol=1e-13 * np.abs(mass).max())


def u_shaped_mesh():
    """Unit square split into a U-shaped cell and the square notch it holds."""
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2 / 3, 1.0], [2 / 3, 0.5],
             [1 / 3, 0.5], [1 / 3, 1.0], [0.0, 1.0]]
    return PolytopalMesh(verts, [[0, 1, 2, 3, 4, 5, 6, 7], [5, 4, 3, 6]])


def test_non_star_shaped_cell_fails_by_name():
    # The mesh accepts the U; the centroid-fan quadrature cannot, and the
    # operator build says which cell it is.
    mesh = u_shaped_mesh()
    with pytest.raises(OperatorBuildError, match="cell 0: cell is not star-shaped") as info:
        newton_solve(mean_curvature_problem(), mesh, 1)
    assert isinstance(info.value.__cause__, QuadratureError)


def test_interpolation_matches_blockwise_projection():
    rng = np.random.default_rng(55)
    mesh = pentagon_mesh()
    k = 2
    space = HHOSpace(mesh, k)
    value, _ = random_polynomial(rng, k)
    v = space.interpolate(value)
    for ci in range(mesh.num_cells):
        basis = CellBasis(mesh.cell_vertices(ci), k,
                          center=mesh.cell_centroids[ci],
                          diameter=mesh.cell_diameters[ci])
        proj = l2_project_cell(value, basis, degree=space.quad_degree)
        np.testing.assert_allclose(v.cell_blocks[ci], proj, atol=1e-12)
    for fi in range(mesh.num_faces):
        fb = space.face_basis(fi)
        rule = face_quadrature((fb.start, fb.end), space.quad_degree)
        psi = fb.evaluate(rule.points)
        from hhonl.basis import face_mass_matrix
        coeffs = np.linalg.solve(face_mass_matrix(fb),
                                 psi.T @ (rule.weights * value(rule.points)))
        np.testing.assert_allclose(v.face_blocks[fi], coeffs, atol=1e-12)


def test_interpolate_zero_boundary():
    mesh = generate_cartesian(3)
    space = HHOSpace(mesh, 1)
    v = space.interpolate(lambda p: 1.0 + p[:, 0]).with_zero_boundary()
    np.testing.assert_array_equal(v.face_blocks[mesh.boundary_faces], 0.0)
    assert np.abs(v.face_blocks[mesh.interior_faces]).max() > 0.1


def test_hybrid_vector_algebra_and_layout():
    mesh = generate_cartesian(2)
    space = HHOSpace(mesh, 1)
    rng = np.random.default_rng(3)
    a = space.vector_from_flat(rng.standard_normal(space.num_dofs))
    b = space.vector_from_flat(rng.standard_normal(space.num_dofs))
    np.testing.assert_allclose((a + b).to_flat(), a.to_flat() + b.to_flat())
    np.testing.assert_allclose((a - b).to_flat(), a.to_flat() - b.to_flat())
    np.testing.assert_allclose((2.5 * a).to_flat(), 2.5 * a.to_flat())
    back = space.vector_from_flat(a.to_flat())
    np.testing.assert_array_equal(back.cell_blocks, a.cell_blocks)
    np.testing.assert_array_equal(back.face_blocks, a.face_blocks)
    z = a.with_zero_boundary()
    np.testing.assert_array_equal(z.face_blocks[mesh.boundary_faces], 0.0)
    np.testing.assert_array_equal(z.cell_blocks, a.cell_blocks)


def test_hybrid_vector_shape_and_space_guards():
    mesh = generate_cartesian(2)
    space = HHOSpace(mesh, 1)
    with pytest.raises(ValueError):
        HybridVector(space, cell_blocks=np.zeros((1, space.Nk)))
    other = HHOSpace(generate_cartesian(2), 1)
    with pytest.raises(ValueError):
        HybridVector(space) + HybridVector(other)


def test_space_rejects_degrees_the_quadrature_cannot_serve():
    mesh = generate_cartesian(2)
    assert HHOSpace(mesh, 2.0).k == 2
    # k = 9 would need a cell rule of degree 22; the rules stop at 20.
    for k in (1.5, 9, -1, True):
        with pytest.raises(ValueError, match=r"integer in 0\.\.8"):
            HHOSpace(mesh, k)
    with pytest.raises(ValueError, match=r"integer in 0\.\.8"):
        newton_solve(mean_curvature_problem(), mesh, 9)
    _, report = newton_solve(mean_curvature_problem(), mesh, 8)
    assert report.converged and report.iterations == 3


def test_local_dof_indices_match_flat_layout():
    mesh = pentagon_mesh()
    space = HHOSpace(mesh, 1)
    rng = np.random.default_rng(12)
    v = space.vector_from_flat(rng.standard_normal(space.num_dofs))
    flat = v.to_flat()
    for ci in range(mesh.num_cells):
        np.testing.assert_array_equal(flat[space.local_dof_indices(ci)],
                                      local_block(space, ci, v))


@pytest.mark.parametrize("accessor", ["build_gradient_reconstruction",
                                      "build_potential_reconstruction", "build_stabilization",
                                      "local_dof_indices", "cell_basis"])
@pytest.mark.parametrize("ci", [-1, 9])
def test_cell_accessors_reject_ids_outside_the_mesh(accessor, ci):
    # Cartesian 3 has cells 0..8: -1 must not wrap around to the last
    # cell, nor 9 run past it.
    space = HHOSpace(generate_cartesian(3), 1)
    with pytest.raises(IndexError, match=f"cell {ci} is not in 0..8"):
        getattr(space, accessor)(ci)


def test_free_dofs_exclude_boundary_faces():
    mesh = generate_cartesian(3)
    space = HHOSpace(mesh, 2)
    free = space.free_dofs()
    expected = space.num_cell_dofs + space.nF * len(mesh.interior_faces)
    assert len(free) == expected
    boundary_dofs = set()
    for fi in mesh.boundary_faces:
        start = space.num_cell_dofs + fi * space.nF
        boundary_dofs.update(range(start, start + space.nF))
    assert not boundary_dofs.intersection(free.tolist())


def test_quadrature_batches_cover_the_domain():
    mesh = generate_triangular(3)
    space = HHOSpace(mesh, 1)
    seen = []
    area = 0.0
    for ids, pts, weights, phi in space.quadrature_batches():
        seen.extend(ids.tolist())
        area += weights.sum()
        assert weights.shape[0] == len(ids)
        assert pts.shape == weights.shape + (2,)
        assert phi.shape == weights.shape + (space.Nk1,)
    assert sorted(seen) == list(range(mesh.num_cells))
    assert area == pytest.approx(1.0, abs=1e-13)


def test_discrete_norms():
    rng = np.random.default_rng(77)
    mesh = generate_triangular(3)
    space = HHOSpace(mesh, 1)
    v = space.vector_from_flat(rng.standard_normal(space.num_dofs))
    n1 = space.discrete_norm_1h(v)
    assert n1 > 0.0
    # Absolute homogeneity.
    assert space.discrete_norm_1h(-3.0 * v) == pytest.approx(3.0 * n1, rel=1e-12)
    # The jump terms make the norm dominate the gradient seminorm.
    assert n1 >= space.gradient_norm(v) - 1e-12
    # Interpolated constants have zero energy.
    const = space.interpolate(lambda p: np.full(len(p), 4.2))
    assert space.discrete_norm_1h(const) <= 1e-11


def test_trace_constant_is_scale_invariant():
    # For v in P_k(T), ||v||_F <= C h_T^(-1/2) ||v||_T; the best constant
    # is scale invariant, so it must not drift under refinement.
    for gen in (generate_cartesian, generate_triangular):
        consts = []
        for n in (2, 4, 8, 16):
            mesh = gen(n)
            space = HHOSpace(mesh, 2)
            worst = 0.0
            for ci in {0, mesh.num_cells - 1}:
                cb = space.cell_basis(ci, space.k)
                Minv = np.linalg.inv(cell_mass_matrix(cb))
                for fi in mesh.cell_faces[ci]:
                    fb = space.face_basis(fi)
                    rule = face_quadrature((fb.start, fb.end), 2 * space.k)
                    trace = cb.evaluate(rule.points)
                    TF = trace.T @ (rule.weights[:, None] * trace)
                    lam = np.linalg.eigvalsh(Minv @ TF).max()
                    worst = max(worst, np.sqrt(lam * mesh.cell_diameters[ci]))
            consts.append(worst)
        consts = np.asarray(consts)
        assert consts.max() < 100.0
        assert consts.max() / consts.min() < 1.0 + 1e-9, consts
