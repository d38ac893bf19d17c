"""Exact monomial integrals over segments and polygons, in integer arithmetic.

The reference for the quadrature tests: a divergence-theorem line
integral with no quadrature and no roundoff.  Floats are dyadic
rationals (``float.as_integer_ratio``), so the coordinates of a segment
or polygon scale to integers over one power of two, the binomial
expansion of x(t)^a y(t)^b sums as Python integers over the lcm of its
denominators i + j + 1, and a single Fraction is formed at the end.
"""

import math
from fractions import Fraction

import numpy as np


def _dyadic(coords):
    """Integers n and a shift e with coords = n / 2^e, exactly."""
    ratios = [float(c).as_integer_ratio() for c in np.ravel(coords)]
    e = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (e - den.bit_length() + 1) for num, den in ratios]
    return np.array(ints, dtype=object).reshape(np.shape(coords)), e


def _edge_sum(p, q, a, b, lcm):
    """lcm * int_0^1 x(t)^a y(t)^b dt on the integer edge p -> q, an integer.

    lcm must be a multiple of every i + j + 1 with i <= a, j <= b.
    """
    px, py = int(p[0]), int(p[1])
    dx, dy = int(q[0]) - px, int(q[1]) - py
    xs = [math.comb(a, i) * px ** (a - i) * dx**i for i in range(a + 1)]
    ys = [math.comb(b, j) * py ** (b - j) * dy**j for j in range(b + 1)]
    return sum(lcm // (i + j + 1) * xi * yj
               for i, xi in enumerate(xs) for j, yj in enumerate(ys))


def polygon_monomial_integral(vertices, a, b):
    """Exact integral of x^a y^b over a polygon, rounded once to a float.

    Divergence theorem: int_P x^a y^b dA = 1/(a+1) * sum over edges of
    (y1 - y0) * int_0^1 x(t)^(a+1) y(t)^b dt.
    """
    v, e = _dyadic(np.asarray(vertices, dtype=float))
    lcm = math.lcm(*range(1, a + b + 3))
    total = 0
    for i in range(len(v)):
        p, q = v[i], v[(i + 1) % len(v)]
        total += (int(q[1]) - int(p[1])) * _edge_sum(p, q, a + 1, b, lcm)
    return float(Fraction(total, (a + 1) * lcm << (e * (a + b + 2))))


def segment_monomial_integral(p, q, a, b):
    """Arc-length integral of x^a y^b along the segment p -> q, from the exact mean over it."""
    ends, e = _dyadic([p[:2], q[:2]])
    lcm = math.lcm(*range(1, a + b + 2))
    mean = Fraction(_edge_sum(ends[0], ends[1], a, b, lcm), lcm << (e * (a + b)))
    return math.hypot(q[0] - p[0], q[1] - p[1]) * float(mean)
