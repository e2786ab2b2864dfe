import math

import numpy as np
import pytest

from hypervekua import (DepthExceeded, FormalPowerSpec, GeneratingSequence,
                        GridDomain, HyperbolicNumber, Polyline, classical_pair,
                        closed_form_power, fg_derivative, formal_power,
                        formal_power_batch, formal_power_field,
                        formal_power_grid, l_path_power, vekua_zs_residual,
                        z0_coefficients)
from hypervekua.hypernum import power
from hypervekua.zakharov_shabat import Potential, zs_sequence

H = HyperbolicNumber
DOM = GridDomain(-1, 1, -1, 1, 5, 5)


@pytest.fixture(scope="module")
def classical_seq():
    return GeneratingSequence.constant(classical_pair(DOM))


@pytest.fixture(scope="module")
def sech_setup():
    p = Potential.sech(1, 1, x_range=(-2, 2))
    return p, zs_sequence(p, DOM)


@pytest.fixture(scope="module")
def const_setup():
    p = Potential.constant(1.0, x_range=(-2, 2))
    return p, zs_sequence(p, DOM)


def test_z0_coefficients_classical():
    a = H(1.3, -0.4)
    lam, mu = z0_coefficients(a, H(0.2, 0.5), classical_pair(DOM))
    assert (lam, mu) == (1.3, -0.4)


def test_z0_coefficients_zs(sech_setup):
    p, seq = sech_setup
    a = H(0.8, 1.1)
    x0 = 0.4
    alpha = math.cos(p.S(x0))
    beta = math.sin(p.S(x0))
    lam, mu = z0_coefficients(a, H(x0, 0.3), seq.pair(0))
    assert abs(lam - (a.re * alpha - a.im * beta)) < 1e-14
    assert abs(mu - (a.re * beta + a.im * alpha)) < 1e-14
    # reconstruction
    pair = seq.pair(0)
    z0 = H(x0, 0.3)
    assert abs(lam * pair.F(z0) + mu * pair.G(z0) - a) < 1e-14


def test_z0_coefficients_reduce_at_origin(sech_setup):
    # S(0) = 0 for the odd sech antiderivative: alpha = 1, beta = 0
    _, seq = sech_setup
    a = H(0.7, -0.2)
    lam, mu = z0_coefficients(a, H(0.0, 0.5), seq.pair(0))
    assert abs(lam - 0.7) < 1e-15 and abs(mu + 0.2) < 1e-15


def test_exponent_zero_at_center_is_coefficient(sech_setup):
    _, seq = sech_setup
    a = H(-0.4, 0.9)
    z0 = H(0.3, 0.6)
    for m in (-1, 0, 1, 2):
        got = formal_power(FormalPowerSpec(m, 0, a, z0), z0, seq)
        assert abs(got - a) < 1e-14


def test_classical_powers_match_monomials(classical_seq):
    targets = [H(0.7, 0.4), H(-0.5, 0.8), H(0.9, -0.9), H(0.3, 0.0)]
    for n in range(6):
        spec = FormalPowerSpec(0, n, H(1, 0), H(0, 0))
        for z in targets:
            got = formal_power(spec, z, classical_seq)
            assert abs(got - power(z, n)) < 1e-10


def test_classical_powers_with_j_coefficient(classical_seq):
    spec = FormalPowerSpec(0, 3, H(0, 1), H(0, 0))
    z = H(0.6, 0.5)
    assert abs(formal_power(spec, z, classical_seq) - H(0, 1) * power(z, 3)) < 1e-10


def test_zs_exponent_one_matches_closed_form(sech_setup):
    p, seq = sech_setup
    a = H(1.0, 0.5)
    z0 = H(0.2, 0.1)
    for z in [H(0.8, 0.9), H(-0.6, 0.4), H(0.2, -0.7)]:
        got = formal_power(FormalPowerSpec(0, 1, a, z0), z, seq)
        want = closed_form_power(p, 1, a, z0, z)
        assert abs(got - want) < 1e-6


def test_property_residual_of_powers(sech_setup):
    # each power solves the Vekua equation of its own pair
    p, seq = sech_setup
    a = H(1.0, 0.0)
    z0 = H(0.2, 0.1)
    for n in (1, 2):
        W = formal_power_field(FormalPowerSpec(0, n, a, z0), seq,
                               tol=1e-12, fd_step=1e-3)
        for z in [H(0.5, 0.6), H(-0.4, 0.3)]:
            assert abs(vekua_zs_residual(W, p, z, h=1e-3)) < 5e-5


def test_property_residual_for_shifted_sequence_index(sech_setup):
    # powers built on pair 1 satisfy the pair-1 Vekua equation
    from hypervekua import vekua_residual

    _, seq = sech_setup
    W = formal_power_field(FormalPowerSpec(1, 1, H(1.0, -0.2), H(0.2, 0.1)),
                           seq, tol=1e-12)
    pair1 = seq.pair(1)
    for z in [H(0.5, 0.6), H(-0.4, 0.3)]:
        assert abs(vekua_residual(W, pair1, z, h=1e-3)) < 5e-5


def test_property_linearity(sech_setup):
    _, seq = sech_setup
    z0 = H(0.2, 0.1)
    z = H(0.7, 0.8)
    a1, a2 = 1.4, -0.6
    for n in (1, 2, 3):
        full = formal_power(FormalPowerSpec(0, n, H(a1, a2), z0), z, seq)
        unit = formal_power(FormalPowerSpec(0, n, H(1, 0), z0), z, seq)
        junit = formal_power(FormalPowerSpec(0, n, H(0, 1), z0), z, seq)
        assert abs(full - (a1 * unit + a2 * junit)) < 1e-10


def test_property_differential_relation(sech_setup):
    # pair-m derivative of Z_m^(n) is n Z_{m+1}^(n-1)
    _, seq = sech_setup
    a = H(1.0, 0.3)
    z0 = H(0.2, 0.1)
    z = H(0.55, 0.4)
    for n in (1, 2):
        W = formal_power_field(FormalPowerSpec(0, n, a, z0), seq, tol=1e-12)
        got = fg_derivative(W, seq.pair(0), z, h=1e-3)
        want = float(n) * formal_power(FormalPowerSpec(1, n - 1, a, z0), z, seq,
                                       tol=1e-12)
        assert abs(got - want) < 5e-5


def test_property_asymptotics(sech_setup):
    # normalized deviation from a (z - z0)^n decays over two shrinking decades
    _, seq = sech_setup
    a = H(1.0, 0.0)
    z0 = H(0.2, 0.1)
    directions = {1: (1.0, 0.0), 2: (math.cos(math.pi / 6), 0.5)}
    for n, d in directions.items():
        devs = []
        for r in (1e-1, 1e-2, 1e-3):
            z = H(z0.re + r * d[0], z0.im + r * d[1])
            got = formal_power(FormalPowerSpec(0, n, a, z0), z, seq, tol=1e-13)
            devs.append(abs(got - a * power(z - z0, n)) / r ** n)
        assert devs[1] <= 0.1 * devs[0]
        assert devs[2] <= 0.1 * devs[1]
        assert devs[2] <= 0.02 * devs[0]


def test_path_independence(sech_setup):
    _, seq = sech_setup
    a = H(0.9, -0.5)
    z0 = H(0.2, 0.1)
    tol = 1e-10
    for n in (1, 2, 3):
        spec = FormalPowerSpec(0, n, a, z0)
        for z in [H(0.8, 0.7), H(-0.5, 0.6)]:
            straight = formal_power(spec, z, seq, tol=tol)
            bent = l_path_power(spec, z, seq, tol=tol)
            assert abs(straight - bent) <= 2 * tol * 100  # shared budget, both routes
            detour = formal_power(
                spec, z, seq,
                path=Polyline([z0, H(0.0, 0.9), z]), tol=tol)
            assert abs(straight - detour) <= 2e-8


def test_depth_guard(sech_setup):
    _, seq = sech_setup
    with pytest.raises(DepthExceeded):
        formal_power(FormalPowerSpec(0, 9, H(1, 0), H(0, 0)), H(0.5, 0.5), seq)
    with pytest.raises(DepthExceeded):
        formal_power_batch(FormalPowerSpec(0, 9, H(1, 0), H(0, 0)),
                           seq, np.array([0.5]), np.array([0.5]))
    with pytest.raises(ValueError):
        FormalPowerSpec(0, -1, H(1, 0), H(0, 0))


def test_batch_matches_scalar(sech_setup):
    _, seq = sech_setup
    spec = FormalPowerSpec(0, 2, H(1.0, 0.2), H(0.2, 0.1))
    xs = np.array([0.5, -0.3, 0.2, 0.9])
    ts = np.array([0.4, 0.7, 0.1, -0.6])
    re, im = formal_power_batch(spec, seq, xs, ts)
    for i in range(xs.size):
        v = formal_power(spec, H(xs[i], ts[i]), seq)
        assert abs(v - H(re[i], im[i])) < 5e-10


def test_grid_sweep_classical(classical_seq):
    grid = GridDomain(0.1, 1.0, 0.1, 1.0, 9, 9)
    spec = FormalPowerSpec(0, 3, H(1, 0), H(0, 0))
    fld = formal_power_grid(spec, classical_seq, grid)
    for z in grid.interior_lattice(3, 3):
        assert abs(fld(z) - power(z, 3)) < 1e-9
