"""Orthonormal bases: ordering, Gram matrices, and the cell L2 projector."""

import numpy as np
import pytest

from hhonl.basis import (
    BasisDegenerateError,
    CellBasis,
    FaceBasis,
    graded_lex_exponents,
    l2_project_cell,
    space_dimension,
)
from hhonl.quadrature import cell_quadrature, face_quadrature

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array([[0.1, 0.0], [1.1, 0.2], [1.3, 1.0], [0.5, 1.4], [-0.1, 0.8]])


def test_exponent_order_and_dimensions():
    np.testing.assert_array_equal(
        graded_lex_exponents(2),
        [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]])
    for l in range(6):
        assert space_dimension(l) == (l + 1) * (l + 2) // 2
        assert len(graded_lex_exponents(l)) == space_dimension(l)


def test_lower_degree_basis_is_a_prefix():
    for l in range(4):
        lo = graded_lex_exponents(l)
        hi = graded_lex_exponents(l + 1)
        np.testing.assert_array_equal(hi[: len(lo)], lo)


def test_unit_square_mass_and_stiffness():
    # The degree-1 basis on the unit square is 1, sqrt(12) (x - 1/2) and
    # sqrt(12) (y - 1/2): the mass matrix is the identity and the
    # stiffness matrix diag(0, 12, 12).
    basis = CellBasis(UNIT_SQUARE, 1)
    rule = cell_quadrature(UNIT_SQUARE, 2)
    phi = basis.evaluate(rule.points)
    np.testing.assert_allclose(phi.T @ (rule.weights[:, None] * phi), np.eye(3), atol=1e-15)
    grad = basis.gradient(rule.points)
    np.testing.assert_allclose(np.einsum("qid,q,qjd->ij", grad, rule.weights, grad),
                               np.diag([0.0, 12.0, 12.0]), atol=1e-14)


@pytest.mark.parametrize("degree", range(10))
def test_cell_basis_is_orthonormal_and_hierarchical(degree):
    basis = CellBasis(PENTAGON, degree)
    rule = cell_quadrature(PENTAGON, 2 * degree + 2)
    phi = basis.evaluate(rule.points)
    np.testing.assert_allclose(phi.T @ (rule.weights[:, None] * phi), np.eye(basis.dimension),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(phi[:, 0], rule.weights.sum() ** -0.5, rtol=1e-14)
    # The first dim P_l functions span P_l: x^l is reproduced by them alone.
    lower = phi[:, :space_dimension(degree)]
    target = rule.points[:, 0] ** degree
    fit = np.linalg.lstsq(lower, target, rcond=None)[0]
    np.testing.assert_allclose(lower @ fit, target, atol=1e-10 * np.abs(target).max())


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(417)
    basis = CellBasis(PENTAGON, 4)
    pts = rng.uniform(0.2, 0.8, (12, 2))
    grad = basis.gradient(pts)
    eps = 1e-6
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        fd = (basis.evaluate(pts + shift) - basis.evaluate(pts - shift)) / (2 * eps)
        np.testing.assert_allclose(grad[:, :, d], fd, atol=5e-9)


def test_cell_projection_reproduces_polynomials():
    rng = np.random.default_rng(88)
    probe = rng.uniform(0.2, 1.0, (30, 2))
    for l in range(4):
        exps = graded_lex_exponents(l)
        coeffs = rng.standard_normal(len(exps))

        def f(p):
            return sum(c * p[:, 0] ** a * p[:, 1] ** b
                       for c, (a, b) in zip(coeffs, exps))

        basis = CellBasis(PENTAGON, l)
        proj = l2_project_cell(f, basis)
        np.testing.assert_allclose(basis.evaluate(probe) @ proj, f(probe), atol=1e-12)


def test_degree_zero_projection_is_the_mean():
    basis = CellBasis(UNIT_SQUARE, 0)
    proj = l2_project_cell(
        lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        basis, degree=14)
    assert proj[0] == pytest.approx((2.0 / np.pi) ** 2, rel=1e-9)


def test_cell_projection_error_decays_at_degree_plus_one():
    # Root-mean-square projection error on a shrinking square scales like
    # h^(l+1) for a smooth field.
    def f(p):
        return np.sin(p[:, 0] + 2.0 * p[:, 1]) * np.exp(p[:, 0])

    hs = np.array([0.125, 0.0625, 0.03125, 0.015625])
    for l in range(3):
        errs = []
        for h in hs:
            cell = np.array([[0.3, 0.4], [0.3 + h, 0.4],
                             [0.3 + h, 0.4 + h], [0.3, 0.4 + h]])
            basis = CellBasis(cell, l)
            proj = l2_project_cell(f, basis, degree=12)
            rule = cell_quadrature(cell, 12)
            diff = f(rule.points) - basis.evaluate(rule.points) @ proj
            errs.append(np.sqrt(rule.weights @ diff**2 / rule.weights.sum()))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - (l + 1)) < 0.15, (l, slope, errs)


def test_projection_with_singular_mass_raises():
    # A one-point rule cannot resolve six basis functions, so the Gram
    # matrix is rank one and the solve must fail loudly.
    basis = CellBasis(UNIT_SQUARE, 2, cell_index=7)
    with pytest.raises(BasisDegenerateError, match="cell 7"):
        l2_project_cell(lambda p: p[:, 0], basis, degree=0)


def test_face_parameter_spans_centered_interval():
    fb = FaceBasis(np.array([[0.0, 0.0], [3.0, 4.0]]), 2)
    assert fb.length == pytest.approx(5.0)
    ends = fb.parameter(np.array([[0.0, 0.0], [1.5, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(ends, [-0.5, 0.0, 0.5], atol=1e-15)
    # sqrt(2j+1) P_j(2s) at the end s = 1/2.
    vals = fb.evaluate(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(vals, [[1.0, np.sqrt(3.0), np.sqrt(5.0)]], rtol=1e-15)


def test_face_basis_is_orthonormal_by_quadrature():
    fb = FaceBasis(np.array([[0.2, -0.1], [1.0, 0.5]]), 8)
    rule = face_quadrature((fb.start, fb.end), 2 * fb.degree)
    psi = fb.evaluate(rule.points)
    np.testing.assert_allclose(psi.T @ (rule.weights[:, None] * psi) / fb.length,
                               np.eye(fb.dimension), rtol=0, atol=1e-13)

