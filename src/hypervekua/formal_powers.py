"""Formal powers: pseudoanalytic analogues of a (z - z0)^n.

The exponent-n power for sequence index m is built by n nested pair
integrals of the exponent-0 power of pair m+n.  Because the integration
path is fixed per evaluation, every level of the recursion can be
evaluated on one shared set of quadrature nodes: each level is a prefix
integral of the previous one.  That ladder replaces the exponential tree
of nested sub-path integrals, and it vectorizes over many target points
at once, which is what makes grid sweeps affordable.
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


def _ladder_sweep(seq: GeneratingSequence, m: int, n: int, lam: float,
                  mu: float, verts_x, verts_t, panels: int, order: int):
    """One batched sweep; exponent k lives on pair m+n-k, k = 0..n.

    Returns endpoint values of Z_m^(n) as (re, im) arrays of shape (T,).
    """
    grid = PathGrid(verts_x, verts_t, panels, order)
    xs = grid.xs
    ts = grid.ts
    cache: dict = {}
    top = seq.pair(m + n)
    fr, fi, gr, gi, _, _, _, _ = _pair_node_values(top, xs, ts, cache)
    w_re = lam * fr + mu * gr
    w_im = lam * fi + mu * gi
    for k in range(1, n + 1):
        pair = seq.pair(m + n - k)
        fr, fi, gr, gi, fsr, fsi, gsr, gsi = _pair_node_values(
            pair, xs, ts, cache)
        gw_re = gsr * w_re + gsi * w_im
        gw_im = gsr * w_im + gsi * w_re
        fw_re = fsr * w_re + fsi * w_im
        fw_im = fsr * w_im + fsi * w_re
        cum_g, tot_g = grid.prefix_re(gw_re, gw_im)
        cum_f, tot_f = grid.prefix_re(fw_re, fw_im)
        if k < n:
            w_re = k * (fr * cum_g + gr * cum_f)
            w_im = k * (fi * cum_g + gi * cum_f)
        else:
            end_x = verts_x[:, -1]
            end_t = verts_t[:, -1]
            efr, efi = pair.F.eval_many(end_x, end_t)
            egr, egi = pair.G.eval_many(end_x, end_t)
            res_re = k * (efr * tot_g + egr * tot_f)
            res_im = k * (efi * tot_g + egi * tot_f)
            return res_re, res_im
    raise AssertionError("ladder called with n = 0")


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
    """Straight-path evaluation at many targets at once.

    Returns (re, im) arrays matching the target arrays.  Targets equal to
    the center come out exactly: the zero-length ladder integrates to 0 for
    n >= 1 and to the coefficient a for n = 0.
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
    verts_x = np.stack([np.full(xs.size, spec.z0.re), xs.ravel()], axis=1)
    verts_t = np.stack([np.full(ts.size, spec.z0.im), ts.ravel()], axis=1)
    res_re, res_im = _evaluate_batch(spec, seq, verts_x, verts_t, tol, order)
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
