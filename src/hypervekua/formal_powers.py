"""Formal powers: pseudoanalytic analogues of a (z - z0)^n.

The exponent-n power for sequence index m is built by n nested pair
integrals of the exponent-0 power of pair m+n.  Because the integration
path is fixed per evaluation, every level of the recursion can be
evaluated on one shared set of quadrature nodes: each level is a prefix
integral of the previous one.  That ladder replaces the exponential tree
of nested sub-path integrals, and it vectorizes over many target points
at once.

Two batched routes share the ladder.  The straight-path ladder
(`_evaluate_batch`) integrates from the center to every target and works
for any sequence; `formal_power` and `l_path_power` always use it, so it
is also the oracle for the second route.  When a sequence declares that
its pairs depend on x only (`GeneratingSequence(x_only=True)`, as every
Zakharov-Shabat sequence does), `formal_power_batch` integrates along the
L-path instead (`_evaluate_x_ladder`): one 1-D ladder on t = t0 from x0
to each distinct target x, then the t-leg in closed form.  Along t the
pair values are constant, so level k is a polynomial of degree k in
tau = t - t0 whose coefficients come from the x-leg totals by the
recursion of spectral parameter power series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegeneratePair, DepthExceeded
from .fields import GridDomain, HyperField
from .hypernum import HyperbolicNumber, hyper
from .pseudoanalytic import GeneratingPair, GeneratingSequence
from .quadrature import (DEFAULT_GAUSS_ORDER, DEFAULT_TOL, PathGrid, Polyline,
                         refine)

DEFAULT_MAX_EXPONENT = 8


@dataclass(frozen=True)
class FormalPowerSpec:
    """Identifies Z_m^(n)(a, z0; .): sequence index, exponent, coefficient, center."""

    m: int
    n: int
    a: HyperbolicNumber
    z0: HyperbolicNumber

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("exponent must be nonnegative")
        object.__setattr__(self, "a", hyper(self.a))
        object.__setattr__(self, "z0", hyper(self.z0))


def z0_coefficients(a, z0, pair: GeneratingPair) -> tuple:
    """Real (lambda, mu) with lambda F(z0) + mu G(z0) = a, by Cramer's rule."""
    a = hyper(a)
    z0 = hyper(z0)
    Fv = pair.F(z0)
    Gv = pair.G(z0)
    det = Fv.re * Gv.im - Fv.im * Gv.re
    if abs(det) <= pair.pair_tolerance:
        raise DegeneratePair(f"frame determinant {det:.3e} at center {z0!r}",
                             nodes=[z0])
    lam = (a.re * Gv.im - Gv.re * a.im) / det
    mu = (Fv.re * a.im - a.re * Fv.im) / det
    return lam, mu


# bench/tracer.py patches the ladder's prefix_re under this name
_BatchedPathGrid = PathGrid


def _pair_node_values(pair: GeneratingPair, xs, ts, cache: dict):
    """F, G and adjoint values at the ladder nodes, one evaluation per pair.

    The adjoint quotient collapses to F* = j conj(F)/det, G* = -j conj(G)/det
    with det = Im(conj(F) G), which avoids re-walking the generic field
    expression at every recursion level.
    """
    key = id(pair)
    hit = cache.get(key)
    if hit is None:
        fr, fi = pair.F.eval_many(xs, ts)
        gr, gi = pair.G.eval_many(xs, ts)
        det = fr * gi - fi * gr
        if np.min(np.abs(det)) <= pair.pair_tolerance:
            flat = np.argmin(np.abs(det))
            raise DegeneratePair(
                "pair degenerates on the integration path",
                nodes=[HyperbolicNumber(float(xs.ravel()[flat]),
                                        float(ts.ravel()[flat]))])
        hit = (fr, fi, gr, gi,
               -fi / det, fr / det,   # F* components
               gi / det, -gr / det)   # G* components
        cache[key] = hit
    return hit


def _level_totals(seq: GeneratingSequence, m: int, n: int, lam: float,
                  mu: float, grid: PathGrid) -> list:
    """Path totals (Re int G* W dz, Re int F* W dz) of levels k = 1..n.

    Exponent k lives on pair m+n-k; level k integrates level k-1 on the
    same grid nodes.  Returns one (tot_g, tot_f) pair of (T,) arrays per
    level.
    """
    xs = grid.xs
    ts = grid.ts
    cache: dict = {}
    fr, fi, gr, gi, _, _, _, _ = _pair_node_values(seq.pair(m + n), xs, ts,
                                                   cache)
    w_re = lam * fr + mu * gr
    w_im = lam * fi + mu * gi
    totals = []
    for k in range(1, n + 1):
        fr, fi, gr, gi, fsr, fsi, gsr, gsi = _pair_node_values(
            seq.pair(m + n - k), xs, ts, cache)
        gw_re = gsr * w_re + gsi * w_im
        gw_im = gsr * w_im + gsi * w_re
        fw_re = fsr * w_re + fsi * w_im
        fw_im = fsr * w_im + fsi * w_re
        cum_g, tot_g = grid.prefix_re(gw_re, gw_im)
        cum_f, tot_f = grid.prefix_re(fw_re, fw_im)
        totals.append((tot_g, tot_f))
        if k < n:
            w_re = k * (fr * cum_g + gr * cum_f)
            w_im = k * (fi * cum_g + gi * cum_f)
    return totals


def _ladder_sweep(seq: GeneratingSequence, m: int, n: int, lam: float,
                  mu: float, verts_x, verts_t, panels: int, order: int):
    """One batched straight-path sweep of the ladder, n >= 1.

    Returns endpoint values of Z_m^(n) as (re, im) arrays of shape (T,).
    """
    if n < 1:
        raise AssertionError("ladder called with n = 0")
    grid = PathGrid(verts_x, verts_t, panels, order)
    tot_g, tot_f = _level_totals(seq, m, n, lam, mu, grid)[-1]
    pair = seq.pair(m)
    end_x = verts_x[:, -1]
    end_t = verts_t[:, -1]
    efr, efi = pair.F.eval_many(end_x, end_t)
    egr, egi = pair.G.eval_many(end_x, end_t)
    return n * (efr * tot_g + egr * tot_f), n * (efi * tot_g + egi * tot_f)


def _evaluate_batch(spec: FormalPowerSpec, seq: GeneratingSequence,
                    verts_x: np.ndarray, verts_t: np.ndarray,
                    tol: float, order: int):
    """Refine panel counts until two sweeps agree within tol everywhere."""
    lam, mu = z0_coefficients(spec.a, spec.z0, seq.pair(spec.m + spec.n))
    length = np.max(
        np.sum(np.hypot(np.diff(verts_x, axis=1), np.diff(verts_t, axis=1)),
               axis=1))
    panels = max(2, int(np.ceil(length / 0.5)))
    return refine(
        lambda panels: _ladder_sweep(seq, spec.m, spec.n, lam, mu, verts_x,
                                     verts_t, panels, order),
        panels, tol, "formal power ladder")


def _t_leg(m: int, n: int, lam: float, mu: float, at_x: dict,
           totals: list, where, tau):
    """Level n at the targets, from the x-leg totals of every level.

    At fixed x the pair values are constants, so with level k - 1 written
    as sum_i c_i tau^i, level k has c_0 = k (F tot_g + G tot_f) and
    c_{i+1} = k [F Im(G* c_i) + G Im(F* c_i)] / (i + 1).  at_x maps a
    pair index to its node values at the distinct target x; where maps
    each target to its distinct x.
    """
    fr, fi, gr, gi, _, _, _, _ = at_x[m + n]
    coeffs = [(lam * fr + mu * gr, lam * fi + mu * gi)]
    for k in range(1, n + 1):
        fr, fi, gr, gi, fsr, fsi, gsr, gsi = at_x[m + n - k]
        tot_g, tot_f = totals[k - 1]
        nxt = [(k * (fr * tot_g + gr * tot_f), k * (fi * tot_g + gi * tot_f))]
        for i, (c_re, c_im) in enumerate(coeffs):
            im_g = gsr * c_im + gsi * c_re
            im_f = fsr * c_im + fsi * c_re
            scale = k / (i + 1)
            nxt.append((scale * (fr * im_g + gr * im_f),
                        scale * (fi * im_g + gi * im_f)))
        coeffs = nxt
    re = coeffs[-1][0][where]
    im = coeffs[-1][1][where]
    for c_re, c_im in reversed(coeffs[:-1]):
        re = re * tau + c_re[where]
        im = im * tau + c_im[where]
    return re, im


def _evaluate_x_ladder(spec: FormalPowerSpec, seq: GeneratingSequence,
                       xs: np.ndarray, ts: np.ndarray, tol: float,
                       order: int):
    """L-path evaluation at flat target arrays for pairs of x alone, n >= 1.

    The x-leg is one batched ladder on t = t0 from x0 to each distinct
    target x; the t-leg is exact (`_t_leg`).  Panels are doubled until two
    sweeps agree within tol at every target.  The pair is checked for
    degeneracy on the x-leg nodes and at the target x values, which covers
    the whole t-leg.
    """
    m, n = spec.m, spec.n
    lam, mu = z0_coefficients(spec.a, spec.z0, seq.pair(m + n))
    x0, t0 = spec.z0.re, spec.z0.im
    ux, where = np.unique(xs, return_inverse=True)
    tau = ts - t0
    leg_t = np.full(ux.size, t0)
    at_x: dict = {}
    cache: dict = {}
    for k in range(n + 1):
        at_x[m + k] = _pair_node_values(seq.pair(m + k), ux, leg_t, cache)
    verts_x = np.stack([np.full(ux.size, x0), ux], axis=1)
    verts_t = np.stack([leg_t, leg_t], axis=1)
    panels = max(2, int(np.ceil(np.max(np.abs(ux - x0)) / 0.5)))

    def sweep(panels):
        grid = PathGrid(verts_x, verts_t, panels, order)
        totals = _level_totals(seq, m, n, lam, mu, grid)
        return _t_leg(m, n, lam, mu, at_x, totals, where, tau)

    return refine(sweep, panels, tol, "formal power x-ladder")


def _check_depth(n: int, max_exponent: int) -> None:
    if n > max_exponent:
        raise DepthExceeded(
            f"exponent {n} beyond configured maximum {max_exponent}")


def formal_power(spec: FormalPowerSpec, z, seq: GeneratingSequence, *,
                 path: Optional[Polyline] = None, tol: float = DEFAULT_TOL,
                 order: int = DEFAULT_GAUSS_ORDER,
                 max_exponent: int = DEFAULT_MAX_EXPONENT) -> HyperbolicNumber:
    """Value of the formal power Z_m^(n)(a, z0; z).

    The integration path defaults to the straight segment from the center;
    any polyline starting at the center and ending at z may be supplied
    instead (the value is path-independent up to quadrature tolerance).
    Panels are doubled until two ladder sweeps agree within tol.
    """
    z = hyper(z)
    _check_depth(spec.n, max_exponent)
    if spec.n == 0:
        pair = seq.pair(spec.m)
        lam, mu = z0_coefficients(spec.a, spec.z0, pair)
        return lam * pair.F(z) + mu * pair.G(z)
    if path is None:
        if z.re == spec.z0.re and z.im == spec.z0.im:
            return HyperbolicNumber(0.0, 0.0)
        verts = [spec.z0, z]
    else:
        s = path.start
        if (s.re, s.im) != (spec.z0.re, spec.z0.im):
            raise ValueError("integration path must start at the center z0")
        e = path.end
        if (e.re, e.im) != (z.re, z.im):
            raise ValueError("integration path must end at the target z")
        verts = list(path.vertices)
    verts_x = np.array([[v.re for v in verts]])
    verts_t = np.array([[v.im for v in verts]])
    res_re, res_im = _evaluate_batch(spec, seq, verts_x, verts_t, tol, order)
    return HyperbolicNumber(float(res_re[0]), float(res_im[0]))


def formal_power_field(spec: FormalPowerSpec, seq: GeneratingSequence, *,
                       domain: Optional[GridDomain] = None,
                       tol: float = DEFAULT_TOL,
                       fd_step: float = 1e-4) -> HyperField:
    """The formal power as an analytic field (values via fresh ladder runs)."""
    def many(xs, ts):
        flat_x = np.asarray(xs, float).ravel()
        flat_t = np.asarray(ts, float).ravel()
        re, im = formal_power_batch(spec, seq, flat_x, flat_t, tol=tol)
        return re.reshape(np.shape(xs)), im.reshape(np.shape(xs))

    return HyperField(
        lambda z: formal_power(spec, z, seq, tol=tol),
        eval_many=many,
        domain=domain,
        fd_step=fd_step,
    )


def formal_power_batch(spec: FormalPowerSpec, seq: GeneratingSequence,
                       xs, ts, *, tol: float = DEFAULT_TOL,
                       order: int = DEFAULT_GAUSS_ORDER):
    """Evaluation at many targets at once.

    Returns (re, im) arrays matching the target arrays.  Sequences whose
    pairs depend on x only take the L-path x-ladder, every other sequence
    the straight-path ladder.  Targets equal to the center come out
    exactly: a zero-length ladder integrates to 0 for n >= 1, and n = 0
    gives the coefficient a.
    """
    _check_depth(spec.n, DEFAULT_MAX_EXPONENT)
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if spec.n == 0:
        pair = seq.pair(spec.m)
        lam, mu = z0_coefficients(spec.a, spec.z0, pair)
        fr, fi = pair.F.eval_many(xs, ts)
        gr, gi = pair.G.eval_many(xs, ts)
        return lam * fr + mu * gr, lam * fi + mu * gi
    if seq.x_only:
        res_re, res_im = _evaluate_x_ladder(spec, seq, xs.ravel(), ts.ravel(),
                                            tol, order)
    else:
        verts_x = np.stack([np.full(xs.size, spec.z0.re), xs.ravel()], axis=1)
        verts_t = np.stack([np.full(ts.size, spec.z0.im), ts.ravel()], axis=1)
        res_re, res_im = _evaluate_batch(spec, seq, verts_x, verts_t, tol,
                                         order)
    return res_re.reshape(xs.shape), res_im.reshape(ts.shape)


def formal_power_grid(spec: FormalPowerSpec, seq: GeneratingSequence,
                      domain: GridDomain, *, tol: float = DEFAULT_TOL,
                      order: int = DEFAULT_GAUSS_ORDER) -> HyperField:
    """Sampled field of Z_m^(n) over every node of the domain."""
    xx, tt = np.meshgrid(domain.x_nodes(), domain.t_nodes())
    re, im = formal_power_batch(spec, seq, xx, tt, tol=tol, order=order)
    return HyperField.from_samples(domain, np.stack([re, im], axis=-1))


def l_path_power(spec: FormalPowerSpec, z, seq: GeneratingSequence,
                 tol: float = DEFAULT_TOL) -> HyperbolicNumber:
    """Same power along the axis-aligned path (x-leg then t-leg)."""
    z = hyper(z)
    if spec.n == 0 or (z.re == spec.z0.re and z.im == spec.z0.im):
        return formal_power(spec, z, seq, tol=tol)
    return formal_power(spec, z, seq, path=Polyline.l_path(spec.z0, z), tol=tol)
