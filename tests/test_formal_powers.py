import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypervekua import (DegeneratePair, DepthExceeded, FormalPowerSpec,
                        GeneratingPair, GeneratingSequence, GridDomain,
                        HyperbolicNumber, HyperField, Polyline, classical_pair,
                        closed_form_power, fg_derivative, formal_power,
                        formal_power_batch, formal_power_field,
                        formal_power_grid, l_path_power, vekua_zs_residual,
                        z0_coefficients)
from hypervekua import formal_powers
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


def undeclared(seq):
    """The same pairs without the x-only declaration: the straight-path route."""
    return GeneratingSequence(seq.pair, period=seq.period)


POTENTIALS = {
    "sech": lambda amp: Potential.sech(amp, 1.3, x_range=(-2, 2)),
    "gauss": lambda amp: Potential.gaussian(amp, 0.6, x_range=(-2, 2)),
    "callable": lambda amp: Potential.from_callable(
        lambda x: amp / (1.0 + x * x), x_range=(-2, 2)),
}
unit = st.floats(-1.0, 1.0)


@settings(deadline=None, max_examples=25)
@given(kind=st.sampled_from(sorted(POTENTIALS)), amp=st.floats(0.5, 1.5),
       n=st.integers(1, 6), m=st.sampled_from([0, 1]),
       x0=st.floats(-0.5, 0.5), t0=st.floats(-0.5, 0.5),
       a=st.tuples(unit, unit), free=st.lists(st.tuples(unit, unit),
                                              min_size=1, max_size=4))
def test_x_ladder_matches_straight_path_and_l_path(kind, amp, n, m, x0, t0,
                                                   a, free):
    seq = zs_sequence(POTENTIALS[kind](amp), DOM)
    spec = FormalPowerSpec(m, n, H(*a), H(x0, t0))
    x1, t1 = free[0]
    # the center, its x line, its t line, then free targets
    xs = np.array([x0, x0, x1] + [x for x, _ in free])
    ts = np.array([t0, t1, t0] + [t for _, t in free])
    re, im = formal_power_batch(spec, seq, xs, ts)
    assert re[0] == 0.0 and im[0] == 0.0
    s_re, s_im = formal_power_batch(spec, undeclared(seq), xs, ts)
    for i in range(xs.size):
        got = H(re[i], im[i])
        bound = 1e-10 * max(1.0, abs(got))
        assert abs(got - H(s_re[i], s_im[i])) <= bound
        assert abs(got - l_path_power(spec, H(xs[i], ts[i]), seq)) <= bound


def test_x_only_sequences_skip_the_straight_ladder(sech_setup, monkeypatch):
    calls = []
    sweep = formal_powers._ladder_sweep

    def counted(*args):
        calls.append(args[2])
        return sweep(*args)

    monkeypatch.setattr(formal_powers, "_ladder_sweep", counted)
    _, seq = sech_setup
    assert seq.x_only
    xs = np.array([0.5, -0.3])
    ts = np.array([0.4, 0.7])
    for n in (1, 4):
        spec = FormalPowerSpec(0, n, H(1.0, 0.2), H(0.2, 0.1))
        formal_power_batch(spec, seq, xs, ts)
        formal_power_grid(spec, seq, GridDomain(-0.5, 0.5, -0.5, 0.5, 5, 5))
    assert calls == []
    plain = undeclared(seq)
    assert not plain.x_only
    formal_power_batch(FormalPowerSpec(0, 2, H(1, 0), H(0.2, 0.1)), plain,
                       xs, ts)
    assert calls and set(calls) == {2}
    # the scalar routes stay on the straight ladder: they are the oracles
    calls.clear()
    spec = FormalPowerSpec(0, 3, H(1, 0), H(0.2, 0.1))
    formal_power(spec, H(0.5, 0.4), seq)
    l_path_power(spec, H(0.5, 0.4), seq)
    assert calls and set(calls) == {3}


def x_only_sequence(det):
    """A one-pair x-only sequence F = 1, G = j det(x), frame determinant det."""
    def g_many(xs, ts):
        return np.zeros(np.shape(xs)), det(np.asarray(xs, float))

    pair = GeneratingPair(
        HyperField.constant(1.0),
        HyperField(lambda z: H(0.0, float(det(z.re))), eval_many=g_many), DOM)
    return GeneratingSequence(lambda m: pair, period=1, x_only=True)


def test_x_ladder_reports_degenerate_nodes():
    spec = FormalPowerSpec(0, 2, H(1, 0), H(0.5, 0.1))
    # both ends are regular, but the x-leg crosses the band |x| < 0.2
    band = x_only_sequence(lambda x: np.where(np.abs(x) < 0.2, 0.0, x))
    with pytest.raises(DegeneratePair) as leg:
        formal_power_batch(spec, band, np.array([0.6, -0.5]),
                           np.array([0.2, 0.3]))
    assert leg.value.nodes
    assert all(abs(z.re) < 0.2 and z.im == 0.1 for z in leg.value.nodes)
    # the x-leg stays regular, but the t-leg runs along the zero line x = 0
    line = x_only_sequence(lambda x: x)
    with pytest.raises(DegeneratePair) as target:
        formal_power_batch(spec, line, np.array([0.6, 0.0]),
                           np.array([0.2, 0.4]))
    assert [(z.re, z.im) for z in target.value.nodes] == [(0.0, 0.1)]
