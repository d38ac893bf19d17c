"""Exactness and failure-mode tests for cell and face quadrature.

Reference values come from two independent sources: the factorial formula
for monomial integrals over the reference triangle, and a divergence
theorem line-integral oracle evaluated in exact rational arithmetic
(binomial expansion over fractions, no quadrature and no roundoff).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hhonl.quadrature import (
    MAX_FACE_DEGREE,
    MAX_TRIANGLE_DEGREE,
    QuadratureError,
    UnsupportedDegreeError,
    _gauss_jacobi_1_0,
    cell_quadrature,
    face_quadrature,
)


def _edge_monomial_integral(p, q, a, b):
    """Exact int_0^1 x(t)^a y(t)^b dt on the affine edge p -> q, as a Fraction.

    Floats convert to fractions without loss, so the binomial expansion
    below has no roundoff; high-degree monomials would lose several digits
    in ordinary floating point.
    """
    px, py = Fraction(float(p[0])), Fraction(float(p[1]))
    dx = Fraction(float(q[0])) - px
    dy = Fraction(float(q[1])) - py
    total = Fraction(0)
    for i in range(a + 1):
        ci = math.comb(a, i) * px ** (a - i) * dx**i
        for j in range(b + 1):
            cj = math.comb(b, j) * py ** (b - j) * dy**j
            total += ci * cj / (i + j + 1)
    return total


def polygon_monomial_integral(vertices, a, b):
    """Exact integral of x^a y^b over a polygon.

    Divergence theorem: int_P x^a y^b dA = 1/(a+1) * sum over edges of
    (y1 - y0) * int_0^1 x(t)^(a+1) y(t)^b dt.
    """
    v = np.asarray(vertices, dtype=float)
    total = Fraction(0)
    for i in range(len(v)):
        p, q = v[i], v[(i + 1) % len(v)]
        dy = Fraction(float(q[1])) - Fraction(float(p[1]))
        total += dy * _edge_monomial_integral(p, q, a + 1, b)
    return float(total / (a + 1))


def segment_monomial_integral(p, q, a, b):
    """Exact arc-length integral of x^a y^b along the segment p -> q."""
    return math.hypot(q[0] - p[0], q[1] - p[1]) * float(
        _edge_monomial_integral(p, q, a, b))


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
REFERENCE_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
LSHAPE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5],
                   [0.5, 0.5], [0.5, 1.0], [0.0, 1.0]])


def test_reference_triangle_matches_factorial_formula():
    # int_T x^a y^b over the unit simplex equals a! b! / (a + b + 2)!.
    for degree in (0, 1, 3, 7, 12, 20):
        rule = cell_quadrature(REFERENCE_TRIANGLE, degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = float(rule.weights @ (rule.points[:, 0] ** a
                                            * rule.points[:, 1] ** b))
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                assert val == pytest.approx(exact, rel=1e-12), (degree, a, b)


def test_reference_triangle_spot_values():
    rule = cell_quadrature(REFERENCE_TRIANGLE, 4)
    xy = float(rule.weights @ (rule.points[:, 0] * rule.points[:, 1]))
    x4 = float(rule.weights @ rule.points[:, 0] ** 4)
    assert xy == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert x4 == pytest.approx(1.0 / 30.0, rel=1e-14)


def test_gauss_jacobi_nodes_and_weights_match_scipy():
    # The collapsed direction of the triangle rules, for every degree up to
    # MAX_TRIANGLE_DEGREE (n = 1..11 points).
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    for n in range(1, (MAX_TRIANGLE_DEGREE + 2) // 2 + 1):
        nodes, weights = _gauss_jacobi_1_0(n)
        ref_nodes, ref_weights = roots_jacobi(n, 1.0, 0.0)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=2e-15)
        np.testing.assert_allclose(weights, ref_weights, rtol=0,
                                   atol=5e-14 * ref_weights.max())


def test_lowest_order_triangle_rule_is_the_barycenter():
    for degree in (0, 1):
        rule = cell_quadrature(REFERENCE_TRIANGLE, degree)
        assert rule.points.shape == (1, 2)
        np.testing.assert_allclose(rule.points[0], [1.0 / 3.0, 1.0 / 3.0])
        np.testing.assert_allclose(rule.weights, [0.5])


def test_triangle_degree_out_of_range():
    with pytest.raises(UnsupportedDegreeError):
        cell_quadrature(REFERENCE_TRIANGLE, MAX_TRIANGLE_DEGREE + 1)
    with pytest.raises(UnsupportedDegreeError):
        cell_quadrature(REFERENCE_TRIANGLE, -1)


def test_unit_square_monomials():
    rule = cell_quadrature(UNIT_SQUARE, 8)
    for a in range(9):
        for b in range(9 - a):
            if a + b > 8:
                continue
            val = float(rule.weights @ (rule.points[:, 0] ** a
                                        * rule.points[:, 1] ** b))
            assert val == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)


def test_unit_square_spot_values():
    rule = cell_quadrature(UNIT_SQUARE, 3)
    assert rule.integrate(lambda p: p[:, 0] ** 2) == pytest.approx(1.0 / 3.0)
    assert rule.integrate(lambda p: p[:, 0] * p[:, 1]) == pytest.approx(1.0 / 4.0)


def test_weights_positive_and_sum_to_area():
    pentagon = np.array([[2.0, 0.1], [2.9, 0.8], [2.5, 1.9], [1.6, 1.8], [1.2, 0.9]])
    for verts in (UNIT_SQUARE, LSHAPE, pentagon):
        for degree in (0, 2, 5, 11):
            rule = cell_quadrature(verts, degree)
            assert np.all(rule.weights > 0.0)
            area = polygon_monomial_integral(verts, 0, 0)
            assert float(rule.weights.sum()) == pytest.approx(area, rel=1e-13)


def test_nonconvex_star_shaped_cell():
    # The L-shape is star shaped with respect to its area centroid, so the
    # centroid fan applies even though the cell is not convex.
    rule = cell_quadrature(LSHAPE, 6)
    assert float(rule.weights.sum()) == pytest.approx(0.75, rel=1e-14)
    for a, b in ((1, 0), (2, 3), (0, 4), (3, 3)):
        val = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
        assert val == pytest.approx(polygon_monomial_integral(LSHAPE, a, b), rel=1e-13)


def test_random_polygons_match_line_integral_oracle():
    # 100 star-shaped polygons: jittered radii around a random center, with
    # angle gaps kept below pi so the centroid stays inside the kernel.
    rng = np.random.default_rng(2307)
    for trial in range(100):
        nv = int(rng.integers(3, 9))
        gaps = rng.uniform(0.7, 1.3, nv)
        angles = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum() + rng.uniform(0, np.pi)
        radii = rng.uniform(0.75, 1.0, nv) * rng.uniform(0.05, 2.0)
        center = rng.uniform(-3.0, 3.0, 2)
        verts = center + np.column_stack((radii * np.cos(angles),
                                          radii * np.sin(angles)))
        degree = int(rng.integers(0, MAX_TRIANGLE_DEGREE + 1))
        rule = cell_quadrature(verts, degree)
        assert np.all(rule.weights > 0.0)
        area = polygon_monomial_integral(verts, 0, 0)
        scale = abs(area) * max(1.0, np.abs(verts).max()) ** degree
        for a in range(degree + 1):
            b = degree - a
            val = float(rule.weights @ (rule.points[:, 0] ** a
                                        * rule.points[:, 1] ** b))
            exact = polygon_monomial_integral(verts, a, b)
            assert abs(val - exact) <= 1e-12 * scale, (trial, a, b)


def test_non_star_shaped_cell_raises():
    # U-shaped cell whose centroid lies inside the notch, hence outside the
    # polygon: the centroid fan must refuse it.
    ushape = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
                       [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]])
    with pytest.raises(QuadratureError, match="star-shaped"):
        cell_quadrature(ushape, 2)


def test_degenerate_and_clockwise_triangles_raise():
    with pytest.raises(QuadratureError):
        cell_quadrature([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], 1)
    with pytest.raises(QuadratureError):
        cell_quadrature([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], 1)


def test_cell_degree_out_of_range():
    with pytest.raises(UnsupportedDegreeError):
        cell_quadrature(UNIT_SQUARE, MAX_TRIANGLE_DEGREE + 1)


def test_face_rule_exactness():
    p, q = np.array([0.2, -0.3]), np.array([1.7, 0.9])
    for degree, pairs in ((0, [(0, 0)]),
                          (5, [(2, 3), (5, 0), (1, 1)]),
                          (41, [(41, 0), (0, 41), (20, 21), (13, 17)])):
        rule = face_quadrature((p, q), degree)
        for a, b in pairs:
            val = float(rule.weights @ (rule.points[:, 0] ** a
                                        * rule.points[:, 1] ** b))
            exact = segment_monomial_integral(p, q, a, b)
            assert val == pytest.approx(exact, rel=1e-12), (degree, a, b)


def test_face_rule_weight_sum_and_midpoint():
    p, q = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    rule = face_quadrature((p, q), 9)
    assert float(rule.weights.sum()) == pytest.approx(5.0, rel=1e-14)
    one_point = face_quadrature((p, q), 1)
    assert one_point.points.shape == (1, 2)
    np.testing.assert_allclose(one_point.points[0], [1.5, 2.0])


def test_face_degree_out_of_range():
    seg = (np.zeros(2), np.ones(2))
    with pytest.raises(UnsupportedDegreeError):
        face_quadrature(seg, MAX_FACE_DEGREE + 1)
    with pytest.raises(UnsupportedDegreeError):
        face_quadrature(seg, -2)


def test_integrate_callback():
    rule = cell_quadrature(UNIT_SQUARE, 4)
    val = rule.integrate(lambda pts: pts[:, 0] ** 2 * pts[:, 1])
    assert val == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_stacked_polygons_match_one_at_a_time():
    # One call on a stack (m, nv, 2) gives each polygon the rule a call on
    # that polygon alone gives, for triangles and for centroid fans.
    rng = np.random.default_rng(2410)
    for nv in (3, 4, 6):
        angles = (rng.uniform(0.0, 2.0 * np.pi, (5, 1))
                  + np.linspace(0.0, 2.0 * np.pi, nv, endpoint=False)
                  + 0.2 * rng.uniform(-1.0, 1.0, (5, nv)))
        stack = rng.uniform(-2.0, 2.0, (5, 1, 2)) + rng.uniform(0.5, 1.0, (5, nv, 1)) \
            * np.stack((np.cos(angles), np.sin(angles)), axis=2)
        rule = cell_quadrature(stack, 7)
        assert rule.points.shape[:2] == rule.weights.shape
        for i, verts in enumerate(stack):
            one = cell_quadrature(verts, 7)
            np.testing.assert_allclose(rule.points[i], one.points, rtol=0, atol=1e-14)
            np.testing.assert_allclose(rule.weights[i], one.weights, rtol=1e-14, atol=0)


def test_stack_error_locates_the_polygon():
    ushape = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
                       [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]])
    # The square with extra corners on two sides is star-shaped; the first
    # of the two U-shapes behind it is the first failure.
    square = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [3.0, 2.0],
                       [3.0, 3.0], [2.0, 3.0], [1.0, 3.0], [0.0, 3.0]])
    stack = np.stack((square, ushape, ushape + 5.0))
    with pytest.raises(QuadratureError, match="star-shaped") as info:
        cell_quadrature(stack, 2)
    assert info.value.index == 1
    triangles = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                          [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    with pytest.raises(QuadratureError, match="degenerate") as info:
        cell_quadrature(triangles, 1)
    assert info.value.index == 1
    with pytest.raises(QuadratureError) as info:
        cell_quadrature(ushape, 2)
    assert info.value.index is None
