import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from hypervekua import (HyperbolicNumber, HyperField, NoConvergence, Polyline,
                        Potential, identity_field, monomial_field,
                        path_integral)
from hypervekua.quadrature import PathGrid

H = HyperbolicNumber


def real_field(f):
    """The field f(x) + j 0, for one-dimensional integrals along t = 0."""
    return HyperField(lambda z: H(f(z.re), 0.0),
                      eval_many=lambda xs, ts: (np.vectorize(f)(xs),
                                                np.zeros(np.shape(xs))))


def integral(f, x0, x1, **kwargs):
    """Integral of a real function over [x0, x1] along the real axis."""
    got = path_integral(real_field(f), Polyline.straight(H(x0, 0), H(x1, 0)),
                        **kwargs)
    assert got.im == 0.0
    return got.re


def test_integrate_cosine():
    # oracle: analytic antiderivative sin(2 xi)/2
    got = integral(lambda x: math.cos(2 * x), 0.0, 1.0)
    assert abs(got - math.sin(2.0) / 2.0) < 1e-10


def test_integrate_constant():
    assert abs(integral(lambda x: 1.0, 0.0, 1.0) - 1.0) < 1e-14


def test_integrate_cubic_exact():
    # Gauss-Legendre of order 8 is exact through degree 15
    assert abs(integral(lambda x: x ** 3, 0.0, 1.0) - 0.25) < 1e-15


def test_integrate_antisymmetric():
    f = lambda x: math.exp(-x * x)
    a = integral(f, -0.5, 2.0)
    b = integral(f, 2.0, -0.5)
    assert abs(a + b) < 1e-15


def test_integrate_empty_interval():
    # S is anchored at the left end: the interval [lo, lo] integrates to 0
    p = Potential.from_callable(math.cos, x_range=(1.0, 3.0))
    assert p.S(1.0) == 0.0
    assert p.S_many(np.array([1.0, 1.0])).tolist() == [0.0, 0.0]


def test_integrate_no_convergence():
    f = lambda x: math.sqrt(abs(x - 1.0 / 3.0))
    with pytest.raises(NoConvergence):
        integral(f, 0.0, 1.0, tol=1e-15)


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline([H(0, 0)])
    with pytest.raises(ValueError):
        Polyline([H(0, 0), H(0, 0)])
    rect = Polyline.rectangle(H(0, 0), H(1, 2))
    assert rect.is_closed
    assert rect.length() == pytest.approx(6.0)
    assert not Polyline.straight(H(0, 0), H(1, 1)).is_closed


def test_path_integral_of_one():
    z1 = H(0.8, 1.7)
    got = path_integral(HyperField.constant(1.0), Polyline.straight(H(0, 0), z1))
    assert abs(got - z1) < 1e-14


def test_path_integral_exact_antiderivative():
    # W = 2z has antiderivative z^2 along any path
    W = HyperField(lambda z: 2.0 * z,
                   eval_many=lambda xs, ts: (2 * np.asarray(xs, float),
                                             2 * np.asarray(ts, float)))
    z1 = H(0.9, -0.4)
    for path in (Polyline.straight(H(0, 0), z1),
                 Polyline.l_path(H(0, 0), z1),
                 Polyline([H(0, 0), H(-0.3, 0.8), z1])):
        got = path_integral(W, path)
        assert abs(got - z1 * z1) < 1e-12


def test_path_integral_l_path_example():
    # int z dz over 0 -> 1 -> 1+j equals (1+j)^2 / 2 = 1 + j
    got = path_integral(identity_field(), Polyline([H(0, 0), H(1, 0), H(1, 1)]))
    assert abs(got - H(1, 1)) < 1e-13


def test_path_additivity_and_reversal():
    W = HyperField(lambda z: z * z + z.conj())
    a, b, c = H(0, 0), H(0.6, 0.2), H(1.0, -0.5)
    p1 = Polyline.straight(a, b)
    p2 = Polyline.straight(b, c)
    whole = path_integral(W, p1.concat(p2))
    split = path_integral(W, p1) + path_integral(W, p2)
    assert abs(whole - split) <= 1e-10
    fwd = path_integral(W, p1)
    back = path_integral(W, p1.reversed())
    assert abs(fwd + back) <= 1e-12


def test_closed_loop_of_analytic_field_vanishes():
    # d/dz-bar = 0 makes closed polyline integrals vanish
    f = monomial_field(3) + 2.5 * monomial_field(1)
    loops = [
        Polyline.rectangle(H(-0.4, -0.3), H(0.7, 0.8)),
        Polyline([H(0, 0), H(1, 0.2), H(0.3, 0.9), H(0, 0)]),
    ]
    for loop in loops:
        got = path_integral(f, loop)
        scale = 3.0  # rough field bound on the loop
        assert abs(got) <= 1e-8 * loop.length() * scale


def test_path_through_light_cone():
    # rectifiable paths may run along non-invertible increments
    path = Polyline.straight(H(0, 0), H(1, 1))
    got = path_integral(identity_field(), path)
    want = H(1, 1) * H(1, 1) * 0.5
    assert abs(got - want) < 1e-13


# ----------------------------------------------------------------------
# the Gauss-Legendre ladder against exact polynomial prefix integrals

MONOMIALS = [(i, j) for i in range(4) for j in range(4 - i)]  # degree <= 3


def poly_values(coeffs, xs, ts):
    return sum(c * xs ** i * ts ** j for c, (i, j) in zip(coeffs, MONOMIALS))


def exact_prefix(vx, vt, pc, qc, xs, ts):
    """Prefix integral of p dx + q dt along one polyline at its nodes.

    Along a segment, x and t are linear in u in [0, 1], so p dx + q dt is a
    polynomial in u with an exact antiderivative.
    """
    out = np.empty(xs.shape)
    before = 0.0
    for s in range(len(vx) - 1):
        dx, dt = vx[s + 1] - vx[s], vt[s + 1] - vt[s]
        x_u = Polynomial([vx[s], dx])
        t_u = Polynomial([vt[s], dt])
        anti = (poly_values(pc, x_u, t_u) * dx
                + poly_values(qc, x_u, t_u) * dt).integ()
        u = ((xs[s] - vx[s]) * dx + (ts[s] - vt[s]) * dt) / (dx * dx + dt * dt)
        out[s] = before + anti(u)
        before += anti(1.0)
    return out, before


@st.composite
def ladders(draw):
    T = draw(st.integers(1, 4))
    S = draw(st.integers(1, 3))
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    verts = np.array(draw(st.lists(st.lists(coord, min_size=2 * (S + 1),
                                            max_size=2 * (S + 1)),
                                   min_size=T, max_size=T)))
    verts_x, verts_t = verts[:, :S + 1], verts[:, S + 1:]
    assume(np.min(np.hypot(np.diff(verts_x), np.diff(verts_t))) > 1e-3)
    coeffs = st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                      min_size=len(MONOMIALS), max_size=len(MONOMIALS))
    return (verts_x, verts_t, draw(coeffs), draw(coeffs),
            draw(st.integers(1, 4)), draw(st.integers(4, 8)))


@settings(max_examples=60, deadline=None)
@given(ladders())
def test_prefix_ladder_is_exact_on_polynomials(case):
    verts_x, verts_t, pc, qc, panels, order = case
    grid = PathGrid(verts_x, verts_t, panels, order)
    cum, total = grid.prefix_re(poly_values(pc, grid.xs, grid.ts),
                                poly_values(qc, grid.xs, grid.ts))
    assert cum.shape == grid.xs.shape and total.shape == (len(verts_x),)
    for i in range(len(verts_x)):
        want_cum, want_total = exact_prefix(verts_x[i], verts_t[i], pc, qc,
                                            grid.xs[i], grid.ts[i])
        assert np.max(np.abs(cum[i] - want_cum)) <= 1e-12
        assert abs(total[i] - want_total) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(ladders())
def test_single_path_grid_matches_its_batch_row(case):
    verts_x, verts_t, pc, qc, panels, order = case
    grid = PathGrid(verts_x, verts_t, panels, order)
    vre = poly_values(pc, grid.xs, grid.ts)
    vim = poly_values(qc, grid.xs, grid.ts)
    cum, total = grid.prefix_re(vre, vim)
    for i in range(len(verts_x)):
        path = Polyline([H(x, t) for x, t in zip(verts_x[i], verts_t[i])])
        row = PathGrid.along(path, panels, order)
        assert np.array_equal(row.xs[0], grid.xs[i])
        assert np.array_equal(row.ts[0], grid.ts[i])
        row_cum, row_total = row.prefix_re(vre[i:i + 1], vim[i:i + 1])
        assert np.array_equal(row_cum[0], cum[i])
        assert row_total[0] == total[i]
