import math

import numpy as np
import pytest

from hypervekua import (CenterSingular, FormalPowerSpec, GridDomain,
                        HyperbolicNumber, HyperField, ModeField, NoConvergence,
                        OutOfDomain, Potential, PotentialParseError,
                        StepTooLarge, W_to_modes, antiderivative_S,
                        closed_form_power, formal_power, formal_power_field,
                        modes_to_W, parse_potential, recombine_mode_residuals,
                        recursive_integrals, spectral_solve, vekua_residual,
                        vekua_zs_residual, zs_pair, zs_residual, zs_sequence)
from hypervekua.zakharov_shabat import IteratedIntegralFamily

H = HyperbolicNumber
DOM = GridDomain(-1, 1, -1, 1, 5, 5)


# ----------------------------------------------------------------------
# potentials and the antiderivative


def test_antiderivative_zero_and_constant():
    assert antiderivative_S(Potential.zero(), 0.7) == 0.0
    p = Potential.constant(2.5)
    assert abs(antiderivative_S(p, 0.4) - 1.0) < 1e-15


def test_antiderivative_sech_matches_gudermannian():
    p = Potential.sech(1, 1, x_range=(-3, 3))
    for x in (-2.0, -0.5, 0.0, 0.3, 1.7):
        want = 2.0 * math.atan(math.tanh(0.5 * x))
        assert abs(p.S(x) - want) < 1e-14


def test_antiderivative_quadrature_route():
    # same sech potential but with the closed form withheld
    exact = Potential.sech(1, 1, x_range=(-3, 3))
    quad = Potential.from_callable(lambda x: 1.0 / math.cosh(x),
                                   x_range=(-3, 3), name="sech-quad")
    offset = quad.S(-3.0) - exact.S(-3.0)  # left-end anchoring differs
    for x in (-2.5, -1.0, 0.0, 0.8, 2.9):
        assert abs((quad.S(x) - offset) - exact.S(x)) < 1e-9
    # batched, with points outside the interval integrated from its nearest end
    xs = np.linspace(-3.5, 3.5, 57).reshape(3, 19)
    many = quad.S_many(xs)
    assert many.shape == xs.shape
    assert np.max(np.abs(many - offset - exact.S_many(xs))) < 1e-9
    for x, v in zip(xs.ravel(), many.ravel()):
        assert abs(quad.S(x) - v) < 1e-14


def test_antiderivative_gaussian():
    p = Potential.gaussian(2.0, 0.7)
    # oracle: error function antiderivative
    want = 2.0 * 0.7 * math.sqrt(math.pi / 2) * math.erf(0.5 / (0.7 * math.sqrt(2)))
    assert abs(p.S(0.5) - want) < 1e-14


def test_table_potential_exact_linear_pieces():
    xs = [-1.0, 0.0, 1.0, 2.0]
    ss = [0.0, 1.0, 1.0, 3.0]
    p = Potential.table(xs, ss)
    assert abs(p.s(0.5) - 1.0) < 1e-15
    assert abs(p.s(-0.5) - 0.5) < 1e-15
    # integral of the interpolant: triangle then plateau
    assert abs(p.S(0.0) - 0.5) < 1e-15
    assert abs(p.S(1.0) - 1.5) < 1e-15
    assert abs(p.S(1.5) - (1.5 + 0.5 + 0.25)) < 1e-15
    with pytest.raises(OutOfDomain):
        p.s(5.0)


def test_parse_potential_grammar(tmp_path):
    assert parse_potential("zero").name == "zero"
    assert parse_potential("const:2").s(0.0) == 2.0
    assert abs(parse_potential("sech:2:3").s(0.0) - 2.0) < 1e-15
    assert abs(parse_potential("gauss:1:0.5").s(0.0) - 1.0) < 1e-15
    table = tmp_path / "pot.csv"
    table.write_text("x,s\n-1.0,0.5\n1.0,0.5\n")
    p = parse_potential(f"table:{table}")
    assert abs(p.s(0.3) - 0.5) < 1e-15
    for bad in ("", "nope", "const", "const:x", "sech:1", "table:/no/such.csv"):
        with pytest.raises(PotentialParseError):
            parse_potential(bad)


# ----------------------------------------------------------------------
# the explicit pairs


@pytest.fixture(scope="module", params=["const:1", "sech:1:1"])
def potential(request):
    if request.param == "const:1":
        return Potential.constant(1.0, x_range=(-2, 2))
    return Potential.sech(1, 1, x_range=(-2, 2))


def test_zs_pair_identities(potential):
    pair = zs_pair(potential, 0, DOM)
    for x in np.linspace(-1, 1, 101):
        z = H(float(x), 0.37)
        Fv, Gv = pair.F(z), pair.G(z)
        assert abs((Fv.conj() * Gv).im - 1.0) <= 1e-12
        assert abs(Fv * Fv + Gv * Gv - H(2, 0)) <= 1e-12
        assert abs(Fv * Fv.conj() + Gv * Gv.conj()) <= 1e-12


def test_zs_pair_exact_derivatives(potential):
    for m in (0, 1):
        pair = zs_pair(potential, m, DOM)
        sign = 1.0 if m % 2 == 0 else -1.0
        for x in (-0.8, 0.0, 0.6):
            z = H(x, 0.2)
            half = 0.5 * potential.s(x)
            assert abs(pair.F.d_z(z) + sign * half * pair.G(z)) <= 1e-12
            assert abs(pair.F.d_zbar(z) + sign * half * pair.G(z)) <= 1e-12
            assert abs(pair.G.d_z(z) - sign * half * pair.F(z)) <= 1e-12


def test_zs_pair_explicit_form(potential):
    x = 0.45
    Sv = potential.S(x)
    z = H(x, -0.3)
    p0 = zs_pair(potential, 0, DOM)
    assert abs(p0.F(z) - H(math.cos(Sv), -math.sin(Sv))) < 1e-15
    assert abs(p0.G(z) - H(math.sin(Sv), math.cos(Sv))) < 1e-15
    p1 = zs_pair(potential, 1, DOM)
    assert abs(p1.F(z) - H(math.cos(Sv), math.sin(Sv))) < 1e-15
    assert abs(p1.G(z) - H(-math.sin(Sv), math.cos(Sv))) < 1e-15


def test_zs_pair_period_two(potential):
    p0 = zs_pair(potential, 0, DOM)
    p2 = zs_pair(potential, 2, DOM)
    for z in DOM.interior_lattice(5, 5):
        assert abs(p0.F(z) - p2.F(z)) == 0.0
        assert abs(p0.G(z) - p2.G(z)) == 0.0


def test_zs_sequence_coefficients(potential):
    seq = zs_sequence(potential, DOM)
    for m in (0, 1, 2, 3):
        co = seq.pair(m).coefficients()
        sign = -1.0 if m % 2 == 0 else 1.0  # b = (-1)^(m+1) s j / 2
        for z in [H(0.3, 0.5), H(-0.6, -0.1)]:
            vals = co.at(z)
            assert abs(vals.a) < 1e-13
            want_b = H(0, sign * 0.5 * potential.s(z.re))
            assert abs(vals.b - want_b) < 1e-13
            assert abs(vals.A) < 1e-13
            assert abs(vals.B - want_b) < 1e-13


def test_zs_sequence_successor_and_adjoint(potential):
    seq = zs_sequence(potential, DOM)
    for m in range(4):
        assert seq.check_successor(m, 1e-10)
    from hypervekua import adjoint
    for m in (0, 1):
        pair = seq.pair(m)
        adj = adjoint(pair)
        z = H(0.21, 0.43)
        assert abs(adj.F(z) - pair.G(z)) < 1e-14
        assert abs(adj.G(z) - pair.F(z)) < 1e-14


# ----------------------------------------------------------------------
# modes


def test_modes_to_w_basic():
    modes = ModeField(lambda x, t: 0.0, lambda x, t: 1.0)
    W = modes_to_W(modes)
    assert abs(W(H(0.3, 0.8)) - H(1, 1)) == 0.0


def test_mode_round_trip_on_random_grids():
    rng = np.random.default_rng(101)
    dom = GridDomain(-1, 1, -1, 1, 11, 9)
    plus = rng.uniform(-1, 1, (dom.nt, dom.nx))
    minus = rng.uniform(-1, 1, (dom.nt, dom.nx))
    modes = ModeField.from_grid(dom, plus, minus)
    back = W_to_modes(modes_to_W(modes))
    assert np.max(np.abs(back.plus_samples - plus)) <= 1e-15
    assert np.max(np.abs(back.minus_samples - minus)) <= 1e-15
    # and the other composition order
    W = modes_to_W(modes)
    W2 = modes_to_W(W_to_modes(W))
    assert np.max(np.abs(W2.samples - W.samples)) <= 1e-15


def test_zs_residual_free_transport():
    # with s = 0 the system decouples into one-way waves
    p = Potential.zero()
    g = lambda y: math.sin(1.3 * y)
    h = lambda y: math.exp(-0.5 * y * y)
    modes = ModeField(lambda x, t: g(x - t), lambda x, t: h(x + t))
    for z in [H(0.2, 0.4), H(-0.5, 0.1)]:
        r1, r2 = zs_residual(modes, p, z, h=1e-3)
        assert abs(r1) < 1e-5 and abs(r2) < 1e-5


def test_zs_residual_of_formal_power(potential):
    seq = zs_sequence(potential, DOM)
    W = formal_power_field(FormalPowerSpec(0, 1, H(1, 0.2), H(0.2, 0.1)), seq,
                           tol=1e-12)
    modes = W_to_modes(W)
    for z in [H(0.5, 0.6), H(-0.3, 0.4)]:
        r1, r2 = zs_residual(modes, potential, z, h=1e-3)
        assert abs(r1) < 5e-5 and abs(r2) < 5e-5


def test_vekua_zs_residual_examples(potential):
    pair = zs_pair(potential, 0, DOM)
    z = H(0.4, 0.9)
    # generators solve the base equation; exact derivatives make this sharp
    assert abs(vekua_zs_residual(pair.F, potential, z)) < 1e-10
    assert abs(vekua_zs_residual(pair.G, potential, z)) < 1e-10


def test_vekua_zs_residual_of_constant_function():
    p = Potential.constant(1.0)
    W = HyperField.constant(1.0)
    got = vekua_zs_residual(W, p, H(0.3, 0.2))
    assert abs(got - H(0, 0.5)) < 1e-12  # residual j/2, magnitude 1/2


def test_oracle_equivalence_with_generic_vekua(potential):
    # generic pair residual (a = 0, b = -s j/2) equals the direct form
    seq = zs_sequence(potential, DOM)
    pair = seq.pair(0)
    W = formal_power_field(FormalPowerSpec(0, 2, H(0.7, -0.1), H(0.2, 0.1)),
                           seq, tol=1e-11)
    for z in [H(0.5, 0.3), H(-0.2, 0.7)]:
        generic = vekua_residual(W, pair, z, h=1e-3)
        direct = vekua_zs_residual(W, potential, z, h=1e-3)
        assert abs(generic - direct) < 1e-12


def test_residual_recombination_identity(potential):
    # mode residuals recombine into the Vekua residual exactly
    seq = zs_sequence(potential, DOM)
    W = formal_power_field(FormalPowerSpec(0, 1, H(1, 0.4), H(0.2, 0.1)), seq,
                           tol=1e-11)
    modes = W_to_modes(W)
    for z in [H(0.5, 0.6), H(-0.3, 0.2), H(0.1, -0.5)]:
        r1, r2 = zs_residual(modes, potential, z, h=1e-3)
        direct = vekua_zs_residual(W, potential, z, h=1e-3)
        assert abs(recombine_mode_residuals(r1, r2) - direct) <= 1e-12


# ----------------------------------------------------------------------
# spectral form


def test_spectral_free_modes_are_plane_waves():
    p = Potential.zero(x_range=(0, 2))
    k = 1.3
    st = spectral_solve(p, k, (0, 2), (1.0, 0.5j))
    for i in (0, 500, 1500, 2000):
        x = st.xs[i]
        assert abs(st.n1[i] - np.exp(-1j * k * x)) < 1e-10
        assert abs(st.n2[i] - 0.5j * np.exp(1j * k * x)) < 1e-10


def test_spectral_conservation_sech():
    p = Potential.sech(1, 1, x_range=(-2, 2))
    st = spectral_solve(p, 1.0, (-2, 2), (1.0, 0.0))
    n = st.conserved()
    assert np.max(np.abs(n - n[0])) / n[0] < 1e-10
    assert st.drift_per_unit <= 1e-8


def test_spectral_step_guard():
    p = Potential.sech(4, 1, x_range=(-3, 3))
    with pytest.raises(StepTooLarge):
        spectral_solve(p, 2.0, (-3, 3), (1.0, 0.0), step=0.5)


def test_spectral_lift_satisfies_mode_equations():
    p = Potential.sech(1, 1, x_range=(-2, 2))
    for k in (0.5, 1.0, 2.0):
        st = spectral_solve(p, k, (-2, 2), (1.0, 0.0))
        modes = st.lift_modes()
        for x in (-1.0, 0.0, 0.75):
            for t in (0.0, 0.9):
                r1, r2 = zs_residual(modes, p, H(x, t), h=1e-3)
                assert abs(r1) < 1e-4 and abs(r2) < 1e-4


def test_spectral_interpolation_error():
    p = Potential.sech(1, 1, x_range=(-1, 1))
    st = spectral_solve(p, 1.0, (-1, 1), (1.0, 0.0))
    # Hermite interpolation between mesh nodes stays at the solver's accuracy
    fine = spectral_solve(p, 1.0, (-1, 1), (1.0, 0.0), step=1e-4)
    for x in (-0.5004297, 0.1230007, 0.77701):
        assert abs(st.n1_at(x) - fine.n1_at(x)) < 1e-9


# ----------------------------------------------------------------------
# recursive integrals and closed forms


def test_recursive_integrals_level_zero():
    p = Potential.sech(1, 1)
    ri = recursive_integrals(p, 0, -0.3, 0.8)
    for f in ("X", "Y", "Xt", "Yt", "I", "It"):
        assert getattr(ri, f)(-0.3, 0.8) == 1.0


def test_recursive_integrals_zero_potential():
    p = Potential.zero()
    x0, x = 0.2, 0.9
    r1 = recursive_integrals(p, 1, x0, x)
    assert abs(r1.X(x0, x) - (x - x0)) < 1e-12
    assert abs(r1.Y(x0, x)) < 1e-12
    r2 = recursive_integrals(p, 2, x0, x)
    assert abs(r2.X(x0, x) - (x - x0) ** 2) < 1e-12
    assert abs(r2.I(x0, x) - (x - x0) ** 2) < 1e-12


def test_recursive_integrals_constant_potential():
    # oracle: analytic antiderivatives of cos(2cx), sin(2cx)
    c = 1.0
    p = Potential.constant(c)
    x0, x = 0.1, 0.8
    r1 = recursive_integrals(p, 1, x0, x)
    want_X = (math.sin(2 * c * x) - math.sin(2 * c * x0)) / (2 * c)
    want_Y = (math.cos(2 * c * x0) - math.cos(2 * c * x)) / (2 * c)
    assert abs(r1.X(x0, x) - want_X) < 1e-12
    assert abs(r1.Y(x0, x) - want_Y) < 1e-12


def test_recursive_integrals_orientation():
    p = Potential.sech(1, 1)
    r1 = recursive_integrals(p, 1, 0.0, 0.5)
    assert r1.X(0.0, 0.5) == pytest.approx(-r1.X(0.5, 0.0), abs=1e-13)


def test_closed_form_exponent_zero(potential):
    a = H(0.7, -1.1)
    z0 = H(0.3, 0.4)
    got = closed_form_power(potential, 0, a, z0, z0)
    assert abs(got - a) < 1e-14


def test_closed_form_zero_potential_is_displacement():
    p = Potential.zero()
    z = H(0.8, 0.5)
    got = closed_form_power(p, 1, H(1, 0), H(0, 0), z)
    assert abs(got - z) < 1e-14


def test_closed_form_center_singularity(potential):
    with pytest.raises(CenterSingular):
        closed_form_power(potential, 2, H(1, 0), H(0.3, 0.1), H(0.3, 0.9))


def test_closed_form_exponent_two_discrepancy_is_reported_not_hidden(potential):
    # the published exponent-2 expression does not match the generic
    # construction (it fails the zero-potential limit); verify we
    # reproduce it as published rather than silently repairing it, and
    # that the generic value is the one solving the Vekua equation (see
    # the residual tests above and the acceptance suite).
    seq = zs_sequence(potential, DOM)
    a = H(1, 0)
    z0 = H(0.2, 0.1)
    z = H(0.8, 0.9)
    published = closed_form_power(potential, 2, a, z0, z)
    generic = formal_power(FormalPowerSpec(0, 2, a, z0), z, seq)
    assert abs(published - generic) > 1e-3


def test_closed_form_exponent_two_zero_potential_structure():
    # with s = 0 the published formula evaluates to
    # dx^2 + 2 dt^2 + j (3 dx dt) instead of (z - z0)^2
    p = Potential.zero()
    dx, dt = 0.6, 0.4
    got = closed_form_power(p, 2, H(1, 0), H(0.1, 0.2), H(0.1 + dx, 0.2 + dt))
    want_published = H(dx * dx + 2 * dt * dt, 3 * dx * dt)
    assert abs(got - want_published) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2])
def test_closed_form_grid_matches_scalar_to_the_bit(n):
    from hypervekua import closed_form_grid
    # separate potentials, so the grid and the scalar form share no cache
    grid_p = Potential.sech(1.3, 0.7, x_range=(-1.5, 1.5))
    scalar_p = Potential.sech(1.3, 0.7, x_range=(-1.5, 1.5))
    a, z0 = H(-0.5, 1.5), H(0.2, 0.1)
    xs = np.linspace(-0.8, 0.8, 9)      # holds x0 = 0.2
    ts = np.linspace(-0.6, 0.8, 6)
    re, im = closed_form_grid(grid_p, n, a, z0, xs, ts)
    assert re.shape == im.shape == (ts.size, xs.size)
    singular = np.zeros(re.shape, dtype=bool)
    want = np.zeros(re.shape + (2,))
    for it, t in enumerate(ts):
        for ix, x in enumerate(xs):
            try:
                v = closed_form_power(scalar_p, n, a, z0, H(x, t))
            except CenterSingular:
                singular[it, ix] = True
                continue
            want[it, ix] = v.re, v.im
    assert singular.any() == (n == 2)
    assert np.array_equal(np.isnan(re), singular)
    assert np.array_equal(np.isnan(im), singular)
    got = np.stack([re, im], axis=-1)[~singular]
    assert got.tobytes() == want[~singular].tobytes()


def test_closed_form_grid_rejects_exponents_without_a_closed_form():
    from hypervekua import closed_form_grid
    with pytest.raises(ValueError):
        closed_form_grid(Potential.zero(), 3, H(1, 0), H(0, 0),
                         np.linspace(0, 1, 3), np.linspace(0, 1, 3))


def test_rebase_drops_cached_integrals():
    s = lambda x: 1.0 / math.cosh(x)
    a, z0, z = H(1, 0), H(0, 0), H(0.6, 0.4)
    p = Potential.from_callable(s, x_range=(-2, 2))
    closed_form_power(p, 1, a, z0, z)
    got = closed_form_power(p.rebase((-1, 2)), 1, a, z0, z)
    fresh = Potential.from_callable(s, x_range=(-1, 2))
    assert abs(got - closed_form_power(fresh, 1, a, z0, z)) == 0.0


def test_integral_family_raises_when_unconverged():
    fam = IteratedIntegralFamily(Potential.sech(1, 1), tol=1e-30)
    with pytest.raises(NoConvergence):
        fam.levels(-0.5, 0.7, 2)
    assert not fam._cache
