"""End-to-end acceptance checks for the nonlinear HHO solver library.

Each test covers one contract item: reproduction of the published-style
convergence ladders on the four mesh families, the Newton iteration
budget, polynomial exactness and approximation orders of the local
reconstructions, Jacobian/residual consistency, static-condensation
equivalence, and an exact-arithmetic quadrature oracle.  Every test
prints a single PASS/FAIL line followed by the measured evidence, so the
captured output reads as a checklist.  The convergence studies are
shared through module-scoped fixtures; this file is the slow part of the
suite, about 45 s of its minute on a 2-vCPU host.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

import hhonl.solver as solver_mod
from hhonl.basis import graded_lex_exponents
from hhonl.harness import StudyConfig, build_mesh, run_study
from hhonl.hho import HHOSpace, HybridVector
from hhonl.mesh import generate_cartesian, generate_triangular
from hhonl.quadrature import cell_quadrature
from hhonl.solver import (
    NonlinearProblem,
    jacobian,
    mean_curvature_problem,
    newton_solve,
    residual,
)

from exact_integrals import polygon_monomial_integral


def _verdict(name, clauses, note=None, evidence=()):
    """Print one PASS/FAIL line plus evidence, then assert all clauses.

    ``evidence`` lines are measurements printed for the reader that carry
    no pass/fail judgement of their own.
    """
    bad = [text for ok, text in clauses if not ok]
    print(f"[{'PASS' if not bad else 'FAIL'}] {name}")
    for ok, text in clauses:
        print(f"    {'ok  ' if ok else 'FAIL'} {text}")
    for text in evidence:
        print(f"    info {text}")
    if note:
        print(f"    note: {note}")
    message = f"{name}: {len(bad)} failing check(s)\n" + "\n".join(bad)
    if note:
        message += f"\nnote: {note}"
    assert not bad, message


# -- shared convergence studies (the expensive part) --------------------------


@pytest.fixture(scope="module")
def cartesian_study():
    return run_study(StudyConfig("cartesian", [16, 32, 64, 128], [1, 2, 3]))


@pytest.fixture(scope="module")
def triangular_studies():
    first = run_study(StudyConfig("triangular", [16, 32, 64, 128], [1]))
    second = run_study(StudyConfig("triangular", [8, 16, 32], [3]))
    return first, second


@pytest.fixture(scope="module")
def hexagonal_study():
    return run_study(StudyConfig("hexagonal-files", [1, 2, 3, 4], [1, 2, 3]))


@pytest.fixture(scope="module")
def kershaw_study():
    return run_study(StudyConfig("kershaw-files", [1, 2, 3, 4], [1, 2, 3]))


def _projection_floor(space, *fields):
    """Relative L2 distances from vector fields to cellwise P_k vector polynomials.

    Each field maps points of shape (N, 2) to values of shape (N, 2).  All
    distances are relative to the L2 norm of the first field.  The
    reconstructed gradient lives in that space, so when the first field is
    the exact gradient no choice of discrete solution can produce a smaller
    relative gradient error than the first distance.
    """
    num = np.zeros(len(fields))
    den = 0.0
    nk = space.Nk
    for ids, pts, w, phi in space.quadrature_batches():
        pk = phi[..., :nk]
        wpk = np.swapaxes(pk * w[..., None], 1, 2)
        mass = wpk @ pk
        for i, field in enumerate(fields):
            g = field(pts.reshape(-1, 2)).reshape(w.shape + (2,))
            coef = np.linalg.solve(mass, wpk @ g)
            resid = g - pk @ coef
            num[i] += float(np.einsum("mq,mqc,mqc->", w, resid, resid))
            if i == 0:
                den += float(np.einsum("mq,mqc,mqc->", w, g, g))
    return tuple(np.sqrt(num / den))


# Reference ladder for the Cartesian family: relative gradient errors at
# h = 1/16 ... 1/128 and the incremental rates, per degree; k=1 rates must
# lie within 0.15 of the listed values, k=2 and k=3 rates within 0.25 of
# the asymptotic orders 3 and 4.  The source of the error magnitudes is not
# in the repository (PAPER.md holds only the abstract), and they cannot be
# the errors of a quasi-optimal method at the h they are tagged with: they
# sit 15.5-15.8x (k=1) and 64.6-68.1x (k=2) above the cellwise
# best-approximation floor, a 4^(k+1) pattern that points to a factor-4
# mismatch in h or in the solution's scale, and 7.8-111x above the a priori
# bound checked below.  They fall within 1.5x of this solver's errors on
# n = 4, 8, 16, 32 (reference/computed 0.75-0.92, 0.76-0.94, 0.64-0.83 for
# k = 1, 2, 3), but the reference k=1 rates (2.008, 2.011, 2.007) differ
# from the rates on those meshes (2.128, 2.118, 2.067), so that is not
# their source either.  The magnitudes are therefore printed as evidence
# and not asserted; the rates are asserted.
CARTESIAN_REFERENCE = {
    1: ((6.150e-2, 1.529e-2, 3.795e-3, 9.442e-4), (2.008, 2.011, 2.007), 0.15),
    2: ((6.791e-3, 8.262e-4, 1.015e-4, 1.258e-5), (3.0, 3.0, 3.0), 0.25),
    3: ((5.741e-5, 4.518e-6, 2.857e-7, 1.669e-8), (4.0, 4.0, 4.0), 0.25),
}


def test_cartesian_error_table_reproduction(cartesian_study):
    """Check every Cartesian entry against the HHO a priori error estimate.

    For Leray-Lions fluxes the HHO gradient error is bounded by the best
    approximation of grad u plus that of the flux a(x, u, grad u) (Di
    Pietro & Droniou, Math. Comp. 2017).  Each entry must lie between the
    first of these cellwise P_k projection distances, below which no
    discrete solution can go, and their sum, the estimate with constant 1.
    """
    problem = mean_curvature_problem()

    def exact_flux(x):
        return problem.a(x, problem.exact_solution(x), problem.exact_gradient(x))

    clauses = [
        (not cartesian_study.failures, "study completed without failures"),
        (cartesian_study.elapsed < 300.0,
         f"runtime {cartesian_study.elapsed:.1f}s under 300s"),
    ]
    evidence = []
    for k, (ref_errors, ref_rates, band) in CARTESIAN_REFERENCE.items():
        column = [r for r in cartesian_study.records if r.k == k]
        for rec, target in zip(column, ref_errors):
            n = round(1.0 / rec.h)
            floor, flux_floor = _projection_floor(
                HHOSpace(generate_cartesian(n), k), problem.exact_gradient,
                exact_flux)
            bound = floor + flux_floor
            ok = floor * (1.0 - 1e-10) <= rec.error <= bound
            if floor > 1e-12:
                lower = (f"floor(grad u) {floor:.3e} <= error {rec.error:.4e} "
                         f"(error/floor {rec.error / floor:.3f})")
            else:
                lower = (f"error {rec.error:.4e} (no lower bound: grad u lies "
                         f"in P_{k}, floor {floor:.1e})")
            clauses.append(
                (ok, f"k={k} h=1/{n}: {lower} <= floor(grad u) + "
                     f"floor(a(x, u, grad u)) {bound:.3e} "
                     f"(error/bound {rec.error / bound:.3f})"))
            evidence.append(
                f"k={k} h=1/{n}: reference {target:.4e} = "
                f"{target / rec.error:.1f}x computed, {target / bound:.1f}x "
                "the a priori bound")
        for rec, target in zip(column[1:], ref_rates):
            clauses.append(
                (abs(rec.rate - target) <= band,
                 f"k={k}: rate {rec.rate:.3f} within {band} of {target}"))
    _verdict(
        "cartesian family meets the a priori error bound at the reference "
        "rates", clauses, evidence=evidence,
        note="reference magnitudes are not asserted: their source is not in "
             "the repository and they lie 7.8-111x above the a priori bound "
             "at their tagged h; they match this solver within 1.5x on 4x "
             "coarser meshes (n = 4..32), but with different k=1 rates, so "
             "where they come from is not established.")


def test_triangular_error_table_reproduction(triangular_studies):
    first, second = triangular_studies
    clauses = [
        (not first.failures and not second.failures,
         "studies completed without failures"),
        (first.elapsed + second.elapsed < 300.0,
         f"runtime {first.elapsed + second.elapsed:.1f}s under 300s"),
    ]
    rates = [r.rate for r in first.records if r.rate is not None]
    for got, target in zip(rates, (2.039, 2.009, 2.002)):
        clauses.append((abs(got - target) <= 0.15,
                        f"k=1: rate {got:.3f} within 0.15 of {target}"))
    final = [r for r in second.records if r.k == 3][-1]
    clauses.append((final.error <= 5e-8,
                    f"k=3 finest level: error {final.error:.3e} <= 5e-8"))
    _verdict("triangular family reproduces the reference rates", clauses)


def test_polygonal_file_mesh_rate_bands(hexagonal_study, kershaw_study):
    clauses = []
    for result, family in ((hexagonal_study, "hexagonal"),
                           (kershaw_study, "kershaw")):
        clauses.append((not result.failures, f"{family}: no study failures"))
        for k in (1, 2, 3):
            rates = [r.rate for r in result.records
                     if r.k == k and r.rate is not None]
            clauses.append((len(rates) >= 3,
                            f"{family} k={k}: {len(rates)} rates measured"))
            lo, hi = k + 0.6, k + 1.5
            for rate in rates:
                clauses.append((lo <= rate <= hi,
                                f"{family} k={k}: rate {rate:.3f} in "
                                f"[{lo:.1f}, {hi:.1f}]"))
    _verdict("hexagonal/Kershaw meshes converge in the expected "
             "rate bands", clauses)


def test_newton_iteration_budget(cartesian_study, triangular_studies,
                                 hexagonal_study, kershaw_study):
    results = [cartesian_study, *triangular_studies, hexagonal_study,
               kershaw_study]
    records = [r for res in results for r in res.records]
    worst = max(r.newton_iters for r in records)
    clauses = [
        (len(records) == 43, f"{len(records)} solves collected across the "
                             "four families"),
        (worst <= 4, f"max Newton iterations {worst} <= 4 (tolerance 1e-8, "
                     "Poisson bootstrap)"),
    ]
    _verdict("Newton converges within 4 iterations on every mesh and degree",
             clauses)


# -- operator property suites -------------------------------------------------


def _random_polynomial(rng, degree):
    """A random polynomial of the given total degree and its gradient."""
    exps = graded_lex_exponents(degree)
    coef = rng.uniform(-1.0, 1.0, len(exps))

    def value(x):
        out = np.zeros(len(x))
        for c, (a, b) in zip(coef, exps):
            out += c * x[:, 0] ** a * x[:, 1] ** b
        return out

    def grad(x):
        out = np.zeros((len(x), 2))
        for c, (a, b) in zip(coef, exps):
            if a:
                out[:, 0] += c * a * x[:, 0] ** (a - 1) * x[:, 1] ** b
            if b:
                out[:, 1] += c * b * x[:, 0] ** a * x[:, 1] ** (b - 1)
        return out

    return value, grad


def _family_sample_meshes():
    return [
        ("cartesian", generate_cartesian(3)),
        ("triangular", generate_triangular(3)),
        ("hexagonal", build_mesh("hexagonal-files", 1)),
        ("kershaw", build_mesh("kershaw-files", 1)),
    ]


def test_operator_polynomial_exactness():
    rng = np.random.default_rng(1804)
    clauses = []
    for label, mesh in _family_sample_meshes():
        worst = {"potential": 0.0, "gradient": 0.0, "stabilization": 0.0}
        for k in range(4):
            space = HHOSpace(mesh, k)
            value, grad = _random_polynomial(rng, k + 1)
            v = space.interpolate(value)
            pot = space.reconstruct_potential_global(v)
            grd = space.reconstruct_gradient_global(v)
            for ids, pts, w, phi in space.quadrature_batches():
                flat_pts = pts.reshape(-1, 2)
                pv = value(flat_pts).reshape(w.shape)
                pg = grad(flat_pts).reshape(w.shape + (2,))
                rv = np.einsum("mqn,mn->mq", phi, pot[ids])
                gv = np.einsum("mqn,mcn->mqc", phi[..., :space.Nk], grd[ids])
                worst["potential"] = max(
                    worst["potential"],
                    float(np.abs(rv - pv).max()) / max(1.0, np.abs(pv).max()))
                worst["gradient"] = max(
                    worst["gradient"],
                    float(np.abs(gv - pg).max()) / max(1.0, np.abs(pg).max()))
            flat = v.to_flat()
            energy = 0.0
            for ci in range(mesh.num_cells):
                block = flat[space.local_dof_indices(ci)]
                energy += float(block @ space.build_stabilization(ci) @ block)
            worst["stabilization"] = max(
                worst["stabilization"],
                energy / max(1.0, space.gradient_norm(v) ** 2))
        for op in ("potential", "gradient", "stabilization"):
            clauses.append((worst[op] <= 1e-11,
                            f"{label}: {op} deviation {worst[op]:.2e} <= 1e-11 "
                            "on interpolated degree-(k+1) polynomials, k=0..3"))
    _verdict("reconstructions are exact and stabilization vanishes on "
             "polynomial interpolants", clauses)


def test_reconstruction_approximation_orders():
    def value(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def grad(x):
        return np.pi * np.stack(
            (np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
             np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])), axis=1)

    sizes = (4, 8, 16, 32)
    clauses = []
    for k in range(4):
        errors = np.empty((len(sizes), 3))
        for i, n in enumerate(sizes):
            space = HHOSpace(generate_cartesian(n), k)
            v = space.interpolate(value)
            pot = space.reconstruct_potential_global(v)
            grd = space.reconstruct_gradient_global(v)
            acc = np.zeros(3)
            for ids, pts, w, phi in space.quadrature_batches():
                flat_pts = pts.reshape(-1, 2)
                vv = value(flat_pts).reshape(w.shape)
                gv = grad(flat_pts).reshape(w.shape + (2,))
                rc = pot[ids]
                rv = np.einsum("mqn,mn->mq", phi, rc)
                # basis derivatives of each cell at its own points
                gphi = np.stack([space.cell_basis(int(ci), k + 1).gradient(p)
                                 for ci, p in zip(ids, pts)])
                rg = np.einsum("mn,mqnc->mqc", rc, gphi)
                gg = np.einsum("mqn,mcn->mqc", phi[..., :space.Nk], grd[ids])
                acc[0] += float(np.einsum("mq,mq->", w, (vv - rv) ** 2))
                acc[1] += float(np.einsum("mq,mqc->", w, (gv - rg) ** 2))
                acc[2] += float(np.einsum("mq,mqc->", w, (gv - gg) ** 2))
            errors[i] = np.sqrt(acc)
        hs = 1.0 / np.asarray(sizes, dtype=float)
        labels = ("|v - R I v|", "|grad(v - R I v)|", "|grad v - G I v|")
        targets = (k + 2, k + 1, k + 1)
        for j, (label, target) in enumerate(zip(labels, targets)):
            slope = np.polyfit(np.log(hs), np.log(errors[:, j]), 1)[0]
            clauses.append((abs(slope - target) <= 0.2,
                            f"k={k} {label}: slope {slope:.3f} within 0.2 "
                            f"of {target}"))
    _verdict("reconstruction errors decay at the expected orders on smooth "
             "data", clauses)


def _randomized_smooth_problem(rng):
    """A smooth nonlinear problem with randomized coefficients.

    The flux (1 + c1 u^2) grad(u) + c2 |grad(u)|^2 grad(u) depends on both
    the value and the gradient, and its z-derivative is symmetric.
    """
    c1, c2, c3 = rng.uniform(0.1, 0.6, size=3)

    def a(x, y, z):
        return ((1.0 + c1 * y * y)[:, None] * z
                + c2 * (z * z).sum(axis=1, keepdims=True) * z)

    def a_z(x, y, z):
        eye = np.eye(2)[None]
        zz = np.einsum("ni,nj->nij", z, z)
        return ((1.0 + c1 * y * y + c2 * (z * z).sum(axis=1))[:, None, None]
                * eye + 2.0 * c2 * zz)

    def a_y(x, y, z):
        return (2.0 * c1 * y)[:, None] * z

    def f(x, y, z):
        return c3 * y ** 3

    def f_y(x, y, z):
        return 3.0 * c3 * y * y

    def source(x):
        return np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])

    return NonlinearProblem(a=a, a_z=a_z, source=source, a_y=a_y, f=f, f_y=f_y,
                            name="randomized-smooth")


def test_jacobian_directional_derivative_consistency():
    mesh = generate_cartesian(4)
    rng = np.random.default_rng(977)
    ts = np.logspace(-3.0, -6.0, 7)
    clauses = []
    for problem in (mean_curvature_problem(), _randomized_smooth_problem(rng)):
        problem.check()
        space = HHOSpace(mesh, 1)
        if problem.exact_solution is not None:
            state = space.interpolate(problem.exact_solution)
        else:
            state = space.vector_from_flat(
                0.3 * rng.standard_normal(space.num_dofs))
        r0 = residual(problem, state)
        jac = jacobian(problem, state)
        for direction in range(10):
            d = rng.standard_normal(space.num_dofs)
            d /= np.linalg.norm(d)
            delta = space.vector_from_flat(d)
            jd = jac @ d
            gaps = [np.linalg.norm(
                        (residual(problem, state + delta * t) - r0) / t - jd)
                    for t in ts]
            slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
            clauses.append((abs(slope - 1.0) <= 0.2,
                            f"{problem.name} direction {direction}: remainder "
                            f"slope {slope:.3f} within 0.2 of 1.0"))
    _verdict("assembled Jacobian matches finite-difference directional "
             "derivatives", clauses)


def _direct_newton(problem, mesh, k, tol=1e-8):
    """Newton iteration with plain sparse solves, no static condensation.

    Mirrors the library solver step for step: the same Poisson bootstrap,
    the same restricted linear systems, the same stopping rule; only the
    linear algebra path differs.
    """
    space = HHOSpace(mesh, k)
    problem.check()
    free = space.free_dofs()

    lin = NonlinearProblem(
        a=lambda x, y, z: z,
        a_z=lambda x, y, z: np.broadcast_to(np.eye(2), (len(x), 2, 2)),
        source=problem.source)

    u = HybridVector(space)
    iterations = 0
    for prob in (lin,) + (problem,) * 24:
        r = residual(prob, u)
        jac = jacobian(prob, u).tocsr()
        step = np.zeros(space.num_dofs)
        step[free] = spsolve(jac[free][:, free].tocsc(), -r[free])
        delta = space.vector_from_flat(step)
        u = u + delta
        if prob is problem:
            iterations += 1
            if space.gradient_norm(delta) <= tol * space.gradient_norm(u):
                return u, iterations
    raise AssertionError("direct Newton did not converge")


def test_static_condensation_equivalence():
    mesh = generate_cartesian(8)
    clauses = []
    for k in (1, 2):
        problem = mean_curvature_problem()
        condensed, report = newton_solve(problem, mesh, k)
        direct, iterations = _direct_newton(problem, mesh, k)
        ref = np.linalg.norm(direct.to_flat())
        rel = np.linalg.norm(condensed.to_flat() - direct.to_flat()) / ref
        clauses.append((rel <= 1e-10,
                        f"k={k}: relative solution difference {rel:.2e} <= "
                        f"1e-10 (condensed {report.iterations} vs direct "
                        f"{iterations} iterations)"))
    _verdict("condensed and uncondensed solves agree", clauses)


def test_condensed_solve_of_a_nonsymmetric_jacobian():
    # a_y and f_y do not vanish, so the Jacobian is nonsymmetric: the
    # symmetric-mode factor of the face system must not rely on symmetric
    # values, only on its symmetric pattern and threshold pivoting.
    rng = np.random.default_rng(4242)
    problem = _randomized_smooth_problem(rng)
    space = HHOSpace(generate_cartesian(8), 2)
    state = space.vector_from_flat(0.1 * rng.standard_normal(space.num_dofs))
    free = space.free_dofs()
    jac = jacobian(problem, state)[np.ix_(free, free)].tocsr()
    rhs = residual(problem, state)[free]
    asym = abs(jac - jac.T).max() / abs(jac).max()
    load = solver_mod._cell_load(space, problem.source)
    condensed = solver_mod._increment(space, problem, state, load).to_flat()[free]
    direct = spsolve(jac.tocsc(), -rhs)
    rel = np.abs(condensed - direct).max() / np.abs(direct).max()
    _verdict("condensed and direct solves agree on a nonsymmetric Jacobian",
             [(asym > 1e-6, f"relative asymmetry {asym:.2e} > 1e-6"),
              (rel <= 1e-10, f"relative solution difference {rel:.2e} <= 1e-10")])


# -- quadrature oracle --------------------------------------------------------


def test_quadrature_divergence_oracle():
    rng = np.random.default_rng(404)
    meshes = [generate_cartesian(5), generate_triangular(4),
              build_mesh("hexagonal-files", 2),
              build_mesh("kershaw-files", 2)]
    pool = [(mi, ci) for mi, mesh in enumerate(meshes)
            for ci in range(mesh.num_cells)]
    picks = rng.choice(len(pool), size=100, replace=False)
    worst = 0.0
    checked = 0
    for flat_index in picks:
        mi, ci = pool[int(flat_index)]
        mesh = meshes[mi]
        verts = mesh.vertices[mesh.cells[ci]]
        degree = int(rng.integers(0, 21))
        rule = cell_quadrature(verts, degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = polygon_monomial_integral(verts, a, b)
                got = float(np.sum(rule.weights
                                   * rule.points[:, 0] ** a
                                   * rule.points[:, 1] ** b))
                worst = max(worst, abs(got - exact) / abs(exact))
                checked += 1
    clauses = [(worst <= 1e-12,
                f"worst relative deviation {worst:.2e} <= 1e-12 over "
                f"{checked} monomial integrals on 100 sampled cells")]
    _verdict("cell quadrature matches exact divergence-theorem integrals",
             clauses)
