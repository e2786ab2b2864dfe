import math

import numpy as np
import pytest

from hypervekua import (GridDomain, HyperbolicNumber, HyperField,
                        NotHyperbolicAnalytic, OutOfDomain, d_z, d_zbar,
                        hyperbolic_derivative, identity_field,
                        load_field_csv, load_field_json, monomial_field,
                        save_field_csv, save_field_json)
from hypervekua.hypernum import exp as hyper_exp
from hypervekua.zakharov_shabat import Potential, zs_pair

H = HyperbolicNumber


def conj_field(z):
    return z.conj()


def exp_field():
    # exp(x + jt) = e^x (cosh t + j sinh t); its own d/dz, d/dz-bar = 0
    zero = H(0, 0)
    return HyperField(hyper_exp, dz=hyper_exp, dzbar=lambda z: zero)


def test_dzbar_of_identity_vanishes():
    f = identity_field()
    for z in [H(0, 0), H(1.3, -0.4), H(-2, 5)]:
        assert abs(f.d_zbar(z)) == 0.0
        assert abs(f.d_z(z) - H(1, 0)) == 0.0


def test_dzbar_of_conjugate_is_one():
    f = HyperField(conj_field)
    for z in [H(0.5, 0.2), H(-1, 3)]:
        assert abs(d_zbar(f, z) - H(1, 0)) < 1e-9
        assert abs(d_z(f, z)) < 1e-9


def test_dz_of_square():
    f = monomial_field(2)
    z = H(0.7, 0.3)
    assert abs(f.d_z(z) - 2.0 * z) == 0.0
    # forced finite differences agree to O(h^2)
    assert abs(f.d_z(z, h=1e-5) - 2.0 * z) < 1e-9


def test_zs_pair_derivative_example_constant_potential():
    # with s = c the base pair satisfies dF/dz-bar = -(c/2) G
    c = 0.75
    p = Potential.constant(c, x_range=(-2, 2))
    pair = zs_pair(p, 0)
    z = H(0.4, -0.3)
    want = -0.5 * c * pair.G(z)
    assert abs(pair.F.d_zbar(z) - want) < 1e-14
    assert abs(pair.G.d_z(z) - 0.5 * c * pair.F(z)) < 1e-14
    # finite differences reproduce the exact value at second order
    fd = HyperField(pair.F)  # strip the exact derivative callables
    assert abs(fd.d_zbar(z, h=1e-4) - want) < 1e-8


def wavy_field():
    # u = sin(x + 2t), v = cos(2x - t): smooth, not hyperbolic analytic
    def val(z):
        return H(math.sin(z.re + 2 * z.im), math.cos(2 * z.re - z.im))

    def dz(z):
        ux, ut = math.cos(z.re + 2 * z.im), 2 * math.cos(z.re + 2 * z.im)
        vx, vt = -2 * math.sin(2 * z.re - z.im), math.sin(2 * z.re - z.im)
        return H(0.5 * (ux + vt), 0.5 * (vx + ut))

    def dzbar(z):
        ux, ut = math.cos(z.re + 2 * z.im), 2 * math.cos(z.re + 2 * z.im)
        vx, vt = -2 * math.sin(2 * z.re - z.im), math.sin(2 * z.re - z.im)
        return H(0.5 * (ux - vt), 0.5 * (vx - ut))

    return HyperField(val, dz=dz, dzbar=dzbar)


def test_fd_convergence_is_second_order():
    f = wavy_field()
    z = H(0.3, 0.4)
    for op in ("d_z", "d_zbar"):
        exact = getattr(f, op)(z)
        errs = [abs(getattr(f, op)(z, h=h) - exact) for h in (2e-2, 1e-2, 5e-3)]
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert 3.5 <= e_coarse / e_fine <= 4.5


def test_dzbar_linearity():
    f = monomial_field(3)
    g = exp_field()
    z = H(0.2, -0.6)
    alpha, beta = 1.7, -0.9
    combo = alpha * f + beta * g
    lhs = combo.d_zbar(z, h=1e-4)
    rhs = alpha * f.d_zbar(z, h=1e-4) + beta * g.d_zbar(z, h=1e-4)
    assert abs(lhs - rhs) <= 1e-12


def test_polynomials_in_z_are_analytic():
    coeffs = [H(1, 2), H(-0.5, 0.25), H(0, 1), H(2, 0)]

    def poly(z):
        acc = H(0, 0)
        for c in coeffs:
            acc = acc * z + c
        return acc

    f = HyperField(poly, fd_step=1e-5)
    for z in [H(0.3, 0.1), H(-0.8, 0.7), H(1.2, -1.1)]:
        assert abs(f.d_zbar(z)) < 1e-9


def test_hyperbolic_derivative_of_square():
    f = monomial_field(2)
    got = hyperbolic_derivative(f, H(1, 0))
    assert abs(got.value - H(2, 0)) == 0.0
    assert got.invertible

    got = hyperbolic_derivative(f, H(2, 0))
    assert abs(got.value - H(4, 0)) == 0.0
    assert got.invertible

    # derivative 2z on the light cone is a zero divisor: det J = 0
    got = hyperbolic_derivative(f, H(1, 1))
    assert abs(got.value - H(2, 2)) == 0.0
    assert not got.invertible


def test_hyperbolic_derivative_rejects_conjugate():
    f = HyperField(conj_field)
    with pytest.raises(NotHyperbolicAnalytic):
        hyperbolic_derivative(f, H(0.3, 0.2))


def make_sampled_square(nx=41, nt=41):
    dom = GridDomain(-1, 1, -1, 1, nx, nt)
    xx, tt = np.meshgrid(dom.x_nodes(), dom.t_nodes())
    re = xx * xx + tt * tt
    im = 2 * xx * tt
    return HyperField.from_samples(dom, np.stack([re, im], axis=-1))


def test_sampled_field_evaluation_and_derivative():
    f = make_sampled_square()
    z = H(0.5, 0.25)  # grid node for nx = nt = 41
    assert abs(f(z) - z * z) < 1e-14
    assert abs(f.d_z(z) - 2.0 * z) < 1e-3  # O(h^2), h = 0.05
    assert abs(f.d_zbar(z)) < 1e-3
    # off-node evaluation interpolates
    z_off = H(0.5123, 0.2571)
    assert abs(f(z_off) - z_off * z_off) < 5e-3


def test_sampled_field_boundary_errors():
    f = make_sampled_square()
    with pytest.raises(OutOfDomain):
        f(H(1.5, 0))
    with pytest.raises(OutOfDomain):
        f.d_z(H(1.0, 0.0))  # stencil leaves the grid at the edge


def test_domain_validation():
    with pytest.raises(ValueError):
        GridDomain(0, 1, 0, 1, 2, 5)
    with pytest.raises(ValueError):
        GridDomain(1, 0, 0, 1, 5, 5)
    # time-like flag needs 0 < x-range below t-range
    GridDomain(0.5, 1.0, 2.0, 3.0, 5, 5, timelike=True)
    with pytest.raises(ValueError):
        GridDomain(-1, 1, 2, 3, 5, 5, timelike=True)


def test_csv_round_trip(tmp_path):
    f = make_sampled_square(nx=7, nt=5)
    path = tmp_path / "field.csv"
    save_field_csv(f, path)
    g = load_field_csv(path)
    assert g.domain.same_extent(f.domain)
    assert g.domain.nx == 7 and g.domain.nt == 5
    assert np.array_equal(g.samples, f.samples)


def _old_cell(value: float) -> str:
    # the per-cell rule the CLI tables were written with before csv_text
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.17g}"


def test_csv_text_matches_the_per_cell_rule():
    from hypervekua.fields import csv_text
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
              1.0 / 3.0, -2.5e-300, 123456789.125]
    col = np.array(values)
    text = csv_text(["a", "b"], [col, -col])
    want = ["a,b"] + [f"{_old_cell(v)},{_old_cell(-v)}" for v in values]
    assert text == "\n".join(want) + "\n"
    assert "-0" in text.splitlines()[4]


def test_csv_text_rows_follow_c_order_of_the_columns():
    from hypervekua.fields import csv_text
    xx, tt = np.meshgrid([0.0, 1.0, 2.0], [5.0, 6.0])
    lines = csv_text(["x", "t"], [xx, tt]).splitlines()
    assert lines[1:] == ["0,5", "1,5", "2,5", "0,6", "1,6", "2,6"]


def test_save_field_csv_writes_lf_line_ends(tmp_path):
    f = make_sampled_square(nx=4, nt=3)
    path = tmp_path / "field.csv"
    save_field_csv(f, path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.count(b"\n") == 1 + 4 * 3
    assert data.startswith(b"x,t,re,im\n")


def test_json_round_trip(tmp_path):
    f = make_sampled_square(nx=5, nt=9)
    path = tmp_path / "field.json"
    save_field_json(f, path)
    g = load_field_json(path)
    assert g.domain.same_extent(f.domain)
    assert np.array_equal(g.samples, f.samples)


def test_field_algebra_propagates_exact_derivatives():
    f = monomial_field(2)
    g = monomial_field(3)
    z = H(0.6, -0.2)
    prod = f * g
    assert prod.has_exact_derivatives
    assert abs(prod.d_z(z) - 5.0 * (z * z * z * z)) < 1e-13
    quot = g / f  # z^3 / z^2 = z where z^2 invertible
    assert abs(quot(z) - z) < 1e-14
    assert abs(quot.d_z(z) - H(1, 0)) < 1e-12
    conj = f.conjugate()
    assert abs(conj.d_zbar(z) - (2.0 * z).conj()) == 0.0
    assert abs(conj.d_z(z)) == 0.0


def test_eval_many_fallback_matches_scalar():
    f = monomial_field(3)
    xs = np.array([0.1, 0.5, -0.7])
    ts = np.array([0.2, -0.4, 0.9])
    re, im = f.eval_many(xs, ts)
    for i in range(3):
        v = f(H(xs[i], ts[i]))
        assert re[i] == v.re and im[i] == v.im
