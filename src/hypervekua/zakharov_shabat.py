"""The Zakharov-Shabat coupling modes and their hyperbolic Vekua form.

The time-domain mode system
    dx n+ + dt n+ =  s(x) n-,      dx n- - dt n- = -s(x) n+
is equivalent, through W = u + j v with u = n- + n+ and v = n- - n+, to
    W_zbar = -(s(x) j / 2) conj(W).
For this equation an explicit generating sequence of period 2 exists:
    F_m = cos S + (-1)^(m+1) j sin S,   G_m = (-1)^m sin S + j cos S,
with S an antiderivative of s.  The module provides the potential
machinery, those pairs, mode translations, residual oracles for both the
mode form and the Vekua form, a spectral (wave-number) solver, and the
published closed-form powers for exponents 0..2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (CenterSingular, OutOfDomain, PotentialParseError,
                     StepTooLarge)
from .fields import GridDomain, HyperField
from .hypernum import HyperbolicNumber, hyper
from .pseudoanalytic import GeneratingPair, GeneratingSequence
from .quadrature import PathGrid, refine

S_CHECKPOINTS = 64
# S segments are short, so a low order settles in two sweeps of few nodes
S_GAUSS_ORDER = 4
DEFAULT_RK_STEP = 1e-3
DEFAULT_DRIFT_THRESHOLD = 1e-8
CENTER_EPS = 1e-6


# ----------------------------------------------------------------------
# potentials


class Potential:
    """Scalar potential s(x) together with an antiderivative S(x).

    S is exact when a closed form is known; otherwise it comes from the
    Gauss-Legendre ladder, anchored at the left end of the working interval
    (convention S(left end) = 0): a cached table of S at evenly spaced
    checkpoints plus, for each point, the integral from the checkpoint
    below it.
    """

    def __init__(self, s: Callable[[float], float], *,
                 S_exact: Optional[Callable[[float], float]] = None,
                 s_many: Optional[Callable] = None,
                 S_many: Optional[Callable] = None,
                 name: str = "custom",
                 x_range: tuple = (-1.0, 1.0),
                 quad_tol: float = 1e-12):
        self._s = s
        self._S_exact = S_exact
        self._s_many = s_many
        self._S_many = S_many
        self.name = name
        self.x_range = (float(x_range[0]), float(x_range[1]))
        if not self.x_range[0] < self.x_range[1]:
            raise ValueError("x_range must be increasing")
        self.quad_tol = quad_tol
        self._S_table = None
        self._integral_family = None

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, x_range=(-1.0, 1.0)) -> "Potential":
        return cls(lambda x: 0.0, S_exact=lambda x: 0.0,
                   s_many=lambda xs: np.zeros(np.shape(xs)),
                   S_many=lambda xs: np.zeros(np.shape(xs)),
                   name="zero", x_range=x_range)

    @classmethod
    def constant(cls, c: float, x_range=(-1.0, 1.0)) -> "Potential":
        c = float(c)
        return cls(lambda x: c, S_exact=lambda x: c * x,
                   s_many=lambda xs: np.full(np.shape(xs), c),
                   S_many=lambda xs: c * np.asarray(xs, float),
                   name=f"const:{c:g}", x_range=x_range)

    @classmethod
    def sech(cls, amp: float = 1.0, rate: float = 1.0,
             x_range=(-1.0, 1.0)) -> "Potential":
        amp = float(amp)
        rate = float(rate)
        if rate == 0.0:
            raise ValueError("sech rate must be nonzero")
        scale = 2.0 * amp / rate
        return cls(
            lambda x: amp / math.cosh(rate * x),
            S_exact=lambda x: scale * math.atan(math.tanh(0.5 * rate * x)),
            s_many=lambda xs: amp / np.cosh(rate * np.asarray(xs, float)),
            S_many=lambda xs: scale * np.arctan(
                np.tanh(0.5 * rate * np.asarray(xs, float))),
            name=f"sech:{amp:g}:{rate:g}", x_range=x_range)

    @classmethod
    def gaussian(cls, amp: float = 1.0, sigma: float = 1.0,
                 x_range=(-1.0, 1.0)) -> "Potential":
        amp = float(amp)
        sigma = float(sigma)
        if sigma <= 0.0:
            raise ValueError("gaussian sigma must be positive")
        scale = amp * sigma * math.sqrt(math.pi / 2.0)
        root2 = sigma * math.sqrt(2.0)

        def S_many(xs):
            xs = np.asarray(xs, float)
            return scale * np.vectorize(math.erf)(xs / root2)

        return cls(
            lambda x: amp * math.exp(-0.5 * (x / sigma) ** 2),
            S_exact=lambda x: scale * math.erf(x / root2),
            s_many=lambda xs: amp * np.exp(
                -0.5 * (np.asarray(xs, float) / sigma) ** 2),
            S_many=S_many,
            name=f"gauss:{amp:g}:{sigma:g}", x_range=x_range)

    @classmethod
    def table(cls, xs, ss, name: str = "table") -> "Potential":
        xs = np.asarray(xs, dtype=float)
        ss = np.asarray(ss, dtype=float)
        if xs.ndim != 1 or xs.shape != ss.shape or xs.size < 2:
            raise ValueError("table needs matching 1-d x and s arrays, len >= 2")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("table x values must be strictly increasing")
        # exact cumulative integral of the linear interpolant at the knots
        seg = 0.5 * (ss[1:] + ss[:-1]) * np.diff(xs)
        cum = np.concatenate(([0.0], np.cumsum(seg)))

        def s_one(x):
            if x < xs[0] or x > xs[-1]:
                raise OutOfDomain(f"x = {x:g} outside table range "
                                  f"[{xs[0]:g}, {xs[-1]:g}]")
            return float(np.interp(x, xs, ss))

        def S_one(x):
            if x < xs[0] or x > xs[-1]:
                raise OutOfDomain(f"x = {x:g} outside table range "
                                  f"[{xs[0]:g}, {xs[-1]:g}]")
            i = int(np.searchsorted(xs, x, side="right") - 1)
            i = min(max(i, 0), xs.size - 2)
            dx = x - xs[i]
            slope = (ss[i + 1] - ss[i]) / (xs[i + 1] - xs[i])
            return float(cum[i] + ss[i] * dx + 0.5 * slope * dx * dx)

        def s_many(q):
            q = np.asarray(q, float)
            if np.any(q < xs[0]) or np.any(q > xs[-1]):
                raise OutOfDomain("point(s) outside table range")
            return np.interp(q, xs, ss)

        def S_many(q):
            q = np.asarray(q, float)
            return np.vectorize(S_one)(q)

        return cls(s_one, S_exact=S_one, s_many=s_many, S_many=S_many,
                   name=name, x_range=(float(xs[0]), float(xs[-1])))

    @classmethod
    def from_callable(cls, s, x_range, name: str = "custom") -> "Potential":
        """Potential with no closed-form antiderivative: S comes from quadrature."""
        return cls(s, name=name, x_range=x_range)

    def rebase(self, x_range: tuple) -> "Potential":
        """Move the working interval; drops every cache built on the old one."""
        lo, hi = float(x_range[0]), float(x_range[1])
        if not lo < hi:
            raise ValueError("x_range must be increasing")
        self.x_range = (lo, hi)
        self._S_table = None
        self._integral_family = None
        return self

    # -- evaluation -------------------------------------------------------

    def s(self, x: float) -> float:
        return float(self._s(float(x)))

    def s_many(self, xs) -> np.ndarray:
        if self._s_many is not None:
            return np.asarray(self._s_many(xs), dtype=float)
        return np.array([self.s(x) for x in np.asarray(xs, float).ravel()]
                        ).reshape(np.shape(xs))

    def S(self, x: float) -> float:
        if self._S_exact is not None:
            return float(self._S_exact(float(x)))
        return float(self._S_quadrature(np.asarray(float(x))))

    def S_many(self, xs) -> np.ndarray:
        if self._S_many is not None:
            return np.asarray(self._S_many(xs), dtype=float)
        xs = np.asarray(xs, dtype=float)
        if self._S_exact is None:
            return self._S_quadrature(xs)
        return np.array([self.S(x) for x in xs.ravel()]).reshape(xs.shape)

    def _integrals(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Integrals of s over every [a_i, b_i], refined together."""
        verts_x = np.stack([a, b], axis=1)
        verts_t = np.zeros_like(verts_x)

        def sweep(panels):
            grid = PathGrid(verts_x, verts_t, panels, S_GAUSS_ORDER)
            return grid.prefix_re(self.s_many(grid.xs), 0.0)[1]

        return refine(sweep, 1, self.quad_tol, "S quadrature")

    def _S_quadrature(self, xs: np.ndarray) -> np.ndarray:
        lo, hi = self.x_range
        width = (hi - lo) / S_CHECKPOINTS
        if self._S_table is None:
            edges = lo + width * np.arange(S_CHECKPOINTS + 1)
            self._S_table = np.concatenate(
                ([0.0], np.cumsum(self._integrals(edges[:-1], edges[1:]))))
        if xs.size == 0:
            return np.zeros(xs.shape)
        flat = xs.ravel()
        idx = np.clip(np.floor((flat - lo) / width), 0, S_CHECKPOINTS)
        anchors = lo + idx * width
        out = self._S_table[idx.astype(int)] + self._integrals(anchors, flat)
        return out.reshape(xs.shape)


def parse_potential(text: str) -> Potential:
    """Parse the CLI grammar: zero | const:<c> | sech:<amp>:<rate> |
    gauss:<amp>:<sigma> | table:<path.csv> (CSV columns x, s)."""
    if not isinstance(text, str) or not text:
        raise PotentialParseError("empty potential specification")
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "zero" and len(parts) == 1:
            return Potential.zero()
        if kind == "const" and len(parts) == 2:
            return Potential.constant(float(parts[1]))
        if kind == "sech" and len(parts) == 3:
            return Potential.sech(float(parts[1]), float(parts[2]))
        if kind == "gauss" and len(parts) == 3:
            return Potential.gaussian(float(parts[1]), float(parts[2]))
        if kind == "table" and len(parts) >= 2:
            path = ":".join(parts[1:])
            xs, ss = _read_table_csv(path)
            return Potential.table(xs, ss, name=f"table:{path}")
    except (ValueError, OSError) as exc:
        raise PotentialParseError(f"bad potential spec {text!r}: {exc}") from exc
    raise PotentialParseError(f"unrecognized potential spec {text!r}")


def _read_table_csv(path):
    xs = []
    ss = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [h.strip().lower() for h in header]
        if cols[:2] != ["x", "s"]:
            raise ValueError(f"potential table must have columns x,s; got {header}")
        for row in reader:
            xs.append(float(row[0]))
            ss.append(float(row[1]))
    return xs, ss


def antiderivative_S(p: Potential, x: float) -> float:
    return p.S(x)


# ----------------------------------------------------------------------
# the explicit generating sequence


def _default_domain(p: Potential) -> GridDomain:
    lo, hi = p.x_range
    return GridDomain(lo, hi, lo, hi, 3, 3)


def zs_pair(p: Potential, m: int,
            domain: Optional[GridDomain] = None) -> GeneratingPair:
    """Closed-form pair (F_m, G_m) with exact derivative callables.

    F_m = cos S + (-1)^(m+1) j sin S, G_m = (-1)^m sin S + j cos S.  Both
    depend on x only, so d/dz = d/dz-bar = (d/dx)/2:
    dF_m = -(s/2) sign G_m and dG_m = (s/2) sign F_m with sign = (-1)^m.
    """
    sign = 1.0 if m % 2 == 0 else -1.0
    if domain is None:
        domain = _default_domain(p)

    def F_val(z):
        Sv = p.S(z.re)
        return HyperbolicNumber(math.cos(Sv), -sign * math.sin(Sv))

    def G_val(z):
        Sv = p.S(z.re)
        return HyperbolicNumber(sign * math.sin(Sv), math.cos(Sv))

    def F_deriv(z):
        half = -0.5 * sign * p.s(z.re)
        g = G_val(z)
        return HyperbolicNumber(half * g.re, half * g.im)

    def G_deriv(z):
        half = 0.5 * sign * p.s(z.re)
        f = F_val(z)
        return HyperbolicNumber(half * f.re, half * f.im)

    def F_many(xs, ts):
        Sv = p.S_many(xs)
        return np.cos(Sv), -sign * np.sin(Sv)

    def G_many(xs, ts):
        Sv = p.S_many(xs)
        return sign * np.sin(Sv), np.cos(Sv)

    F = HyperField(F_val, dz=F_deriv, dzbar=F_deriv, eval_many=F_many)
    G = HyperField(G_val, dz=G_deriv, dzbar=G_deriv, eval_many=G_many)
    return GeneratingPair(F, G, domain)


def zs_sequence(p: Potential,
                domain: Optional[GridDomain] = None) -> GeneratingSequence:
    """Period-2 generating sequence backed by zs_pair; its pairs depend on x only."""
    if domain is None:
        domain = _default_domain(p)
    return GeneratingSequence(lambda m: zs_pair(p, m, domain), period=2,
                              name=f"zakharov-shabat[{p.name}]", x_only=True)


# ----------------------------------------------------------------------
# modes


class ModeField:
    """The pair of real mode profiles n+(x, t), n-(x, t)."""

    def __init__(self, n_plus_fn=None, n_minus_fn=None, *,
                 domain: Optional[GridDomain] = None,
                 plus_samples=None, minus_samples=None):
        sampled = plus_samples is not None
        if sampled != (minus_samples is not None):
            raise ValueError("provide both sample arrays or neither")
        if sampled:
            if domain is None:
                raise ValueError("sampled modes need a GridDomain")
            plus_samples = np.asarray(plus_samples, dtype=float)
            minus_samples = np.asarray(minus_samples, dtype=float)
            expect = (domain.nt, domain.nx)
            if plus_samples.shape != expect or minus_samples.shape != expect:
                raise ValueError(f"mode samples must have shape {expect}")
        elif n_plus_fn is None or n_minus_fn is None:
            raise ValueError("provide callables or sample arrays")
        self._plus_fn = n_plus_fn
        self._minus_fn = n_minus_fn
        self.domain = domain
        self.plus_samples = plus_samples
        self.minus_samples = minus_samples

    @property
    def is_sampled(self) -> bool:
        return self.plus_samples is not None

    @staticmethod
    def from_grid(domain, plus_samples, minus_samples) -> "ModeField":
        return ModeField(domain=domain, plus_samples=plus_samples,
                         minus_samples=minus_samples)

    def _interp(self, samples, z):
        wrapped = HyperField.from_samples(
            self.domain, np.stack([samples, np.zeros_like(samples)], axis=-1))
        return wrapped(z).re

    def n_plus(self, z) -> float:
        z = hyper(z)
        if self.is_sampled:
            return self._interp(self.plus_samples, z)
        return float(self._plus_fn(z.re, z.im))

    def n_minus(self, z) -> float:
        z = hyper(z)
        if self.is_sampled:
            return self._interp(self.minus_samples, z)
        return float(self._minus_fn(z.re, z.im))


def modes_to_W(modes: ModeField) -> HyperField:
    """W = u + j v with u = n- + n+, v = n- - n+."""
    if modes.is_sampled:
        u = modes.minus_samples + modes.plus_samples
        v = modes.minus_samples - modes.plus_samples
        return HyperField.from_samples(modes.domain, np.stack([u, v], axis=-1))
    return HyperField(lambda z: HyperbolicNumber(
        modes.n_minus(z) + modes.n_plus(z),
        modes.n_minus(z) - modes.n_plus(z)))


def W_to_modes(W: HyperField) -> ModeField:
    """Inverse of modes_to_W: n+ = (u - v)/2, n- = (u + v)/2."""
    if W.is_sampled:
        u = W.samples[:, :, 0]
        v = W.samples[:, :, 1]
        return ModeField.from_grid(W.domain, (u - v) / 2.0, (u + v) / 2.0)
    return ModeField(lambda x, t: (W(HyperbolicNumber(x, t)).re
                                   - W(HyperbolicNumber(x, t)).im) / 2.0,
                     lambda x, t: (W(HyperbolicNumber(x, t)).re
                                   + W(HyperbolicNumber(x, t)).im) / 2.0)


def _mode_steps(modes: ModeField, h: Optional[float]):
    if h is not None:
        return h, h
    if modes.is_sampled:
        return modes.domain.h_x, modes.domain.h_t
    return DEFAULT_RK_STEP, DEFAULT_RK_STEP


def zs_residual(modes: ModeField, p: Potential, z,
                h: Optional[float] = None) -> tuple:
    """Central-difference residuals (r1, r2) of the time-domain mode system."""
    z = hyper(z)
    hx, ht = _mode_steps(modes, h)
    if modes.is_sampled:
        dom = modes.domain
        inside = (dom.x_min - 1e-12 <= z.re - hx and z.re + hx <= dom.x_max + 1e-12
                  and dom.t_min - 1e-12 <= z.im - ht and z.im + ht <= dom.t_max + 1e-12)
        if not inside:
            raise OutOfDomain(f"residual stencil at {z!r} leaves the grid")
    x, t = z.re, z.im
    npf = modes.n_plus
    nmf = modes.n_minus
    dxp = (npf((x + hx, t)) - npf((x - hx, t))) / (2 * hx)
    dtp = (npf((x, t + ht)) - npf((x, t - ht))) / (2 * ht)
    dxm = (nmf((x + hx, t)) - nmf((x - hx, t))) / (2 * hx)
    dtm = (nmf((x, t + ht)) - nmf((x, t - ht))) / (2 * ht)
    sval = p.s(x)
    r1 = dxp + dtp - sval * nmf(z)
    r2 = dxm - dtm + sval * npf(z)
    return r1, r2


def vekua_zs_residual(W: HyperField, p: Potential, z,
                      h: Optional[float] = None) -> HyperbolicNumber:
    """Residual of W_zbar = -(s j / 2) conj(W) at z.

    Exact derivative callables are used when the field carries them and no
    step is forced; otherwise the same central differences as zs_residual,
    so the two oracles recombine exactly.
    """
    z = hyper(z)
    wv = W(z)
    wzb = W.d_zbar(z, h=h)
    half_s = 0.5 * p.s(z.re)
    # (s j / 2) conj(W) = -(s v / 2) + j (s u / 2)
    return HyperbolicNumber(wzb.re - half_s * wv.im, wzb.im + half_s * wv.re)


def recombine_mode_residuals(r1: float, r2: float) -> HyperbolicNumber:
    """The Vekua-form residual implied by the mode residuals."""
    return HyperbolicNumber(0.5 * (r1 + r2), 0.5 * (r2 - r1))


# ----------------------------------------------------------------------
# spectral (wave-number) form


@dataclass
class SpectralState:
    """Solution profiles of the wave-number system on a uniform x-mesh."""

    k: float
    xs: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    drift_per_unit: float

    def _hermite(self, ys: np.ndarray, ds: np.ndarray, x: float) -> complex:
        xs = self.xs
        if x < xs[0] - 1e-12 or x > xs[-1] + 1e-12:
            raise OutOfDomain(f"x = {x:g} outside [{xs[0]:g}, {xs[-1]:g}]")
        step = xs[1] - xs[0]
        i = int(min(max(math.floor((x - xs[0]) / step), 0), xs.size - 2))
        th = (x - xs[i]) / step
        h00 = (1 + 2 * th) * (1 - th) ** 2
        h10 = th * (1 - th) ** 2
        h01 = th * th * (3 - 2 * th)
        h11 = th * th * (th - 1)
        return (h00 * ys[i] + h10 * step * ds[i]
                + h01 * ys[i + 1] + h11 * step * ds[i + 1])

    def n1_at(self, x: float) -> complex:
        return self._hermite(self.n1, self.d1, x)

    def n2_at(self, x: float) -> complex:
        return self._hermite(self.n2, self.d2, x)

    def conserved(self) -> np.ndarray:
        return np.abs(self.n1) ** 2 + np.abs(self.n2) ** 2

    def lift_modes(self) -> ModeField:
        """Plane-wave lift n+ = Re(n1 e^{ikt}), n- = Re(n2 e^{ikt})."""
        k = self.k
        return ModeField(
            lambda x, t: (self.n1_at(x) * np.exp(1j * k * t)).real,
            lambda x, t: (self.n2_at(x) * np.exp(1j * k * t)).real,
        )


def spectral_solve(p: Potential, k: float, x_range: tuple, init: tuple,
                   step: float = DEFAULT_RK_STEP,
                   drift_threshold: float = DEFAULT_DRIFT_THRESHOLD) -> SpectralState:
    """Classical RK4 sweep of the coupling-mode equations in x.

    dx n1 + i k n1 = s n2,  dx n2 - i k n2 = -s n1, k real.  For real s the
    quantity |n1|^2 + |n2|^2 is conserved; its relative drift per unit x is
    monitored and StepTooLarge raised beyond drift_threshold.
    """
    x0, x1 = float(x_range[0]), float(x_range[1])
    if not x1 > x0:
        raise ValueError("x_range must be increasing")
    n_steps = max(1, int(math.ceil((x1 - x0) / step)))
    hs = (x1 - x0) / n_steps
    kk = float(k)

    def rhs(x, y):
        sv = p.s(x)
        return np.array([-1j * kk * y[0] + sv * y[1],
                         1j * kk * y[1] - sv * y[0]])

    xs = np.linspace(x0, x1, n_steps + 1)
    ys = np.zeros((n_steps + 1, 2), dtype=complex)
    ys[0] = (complex(init[0]), complex(init[1]))
    for i in range(n_steps):
        x = xs[i]
        y = ys[i]
        k1 = rhs(x, y)
        k2 = rhs(x + 0.5 * hs, y + 0.5 * hs * k1)
        k3 = rhs(x + 0.5 * hs, y + 0.5 * hs * k2)
        k4 = rhs(x + hs, y + hs * k3)
        ys[i + 1] = y + hs / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    ds = np.array([rhs(x, y) for x, y in zip(xs, ys)])
    norms = np.abs(ys[:, 0]) ** 2 + np.abs(ys[:, 1]) ** 2
    base = norms[0]
    if base == 0.0:
        drift = 0.0
    else:
        drift = float(np.max(np.abs(norms - base)) / base / (x1 - x0))
    if drift > drift_threshold:
        raise StepTooLarge(
            f"conservation drift {drift:.3e} per unit x exceeds "
            f"{drift_threshold:.3e}; reduce the step (k = {kk:g})")
    return SpectralState(kk, xs, ys[:, 0].copy(), ys[:, 1].copy(),
                         ds[:, 0].copy(), ds[:, 1].copy(), drift)


# ----------------------------------------------------------------------
# the recursive integral family and the published closed forms


class IteratedIntegralFamily:
    """Shared evaluator for the six nested potential integrals.

    Level 0 is identically 1.  Level n integrates level n-1 against
    cos(2S), sin(2S) or 1, scaled by n.  All levels for one (x0, x) pair
    are produced by a single prefix-integration ladder and cached.
    """

    FIELDS = ("X", "Y", "Xt", "Yt", "I", "It")

    def __init__(self, p: Potential, order: int = 8, tol: float = 1e-11):
        self.p = p
        self.order = order
        self.tol = tol
        self._cache: dict = {}

    def levels(self, x0: float, x: float, n: int) -> list:
        """Values for levels 0..n as a list of dicts."""
        key = (float(x0), float(x))
        cached = self._cache.get(key)
        if cached is None or len(cached) <= n:
            panels = max(2, int(math.ceil(abs(x - x0) / 0.5)))
            swept = refine(lambda panels: self._sweep(x0, x, n, panels),
                           panels, self.tol, "integral family ladder")
            cached = [dict(zip(self.FIELDS, row)) for row in swept.tolist()]
            self._cache[key] = cached
        return cached[: n + 1]

    def _sweep(self, x0, x, n, panels):
        """Levels 0..n as an (n+1, 6) array, columns in FIELDS order."""
        grid = PathGrid(np.array([[x0, x]]), np.zeros((1, 2)), panels,
                        self.order)
        Sv = self.p.S_many(grid.xs)
        c2 = np.cos(2.0 * Sv)
        s2 = np.sin(2.0 * Sv)
        X = np.ones_like(c2)
        Y = X
        out = np.ones((n + 1, len(self.FIELDS)))
        for k in range(1, n + 1):
            Xc, Xc_tot = grid.prefix_re(X * c2, 0.0)
            Ys, Ys_tot = grid.prefix_re(Y * s2, 0.0)
            out[k] = [k * Xc_tot[0], k * Ys_tot[0],
                      k * grid.prefix_re(Y * c2, 0.0)[1][0],
                      k * grid.prefix_re(X * s2, 0.0)[1][0],
                      k * grid.prefix_re(X, 0.0)[1][0],
                      k * grid.prefix_re(Y, 0.0)[1][0]]
            X = k * Xc
            Y = k * Ys
        return out

    def value(self, field: str, n: int, x0: float, x: float) -> float:
        if field not in self.FIELDS:
            raise ValueError(f"unknown integral family member {field!r}")
        return self.levels(x0, x, n)[n][field]


def _family(p: Potential) -> IteratedIntegralFamily:
    if p._integral_family is None:
        p._integral_family = IteratedIntegralFamily(p)
    return p._integral_family


@dataclass(frozen=True)
class RecursiveIntegrals:
    """Level-n members of the integral family, as callables of (x0, x)."""

    level: int
    X: Callable[[float, float], float]
    Y: Callable[[float, float], float]
    Xt: Callable[[float, float], float]
    Yt: Callable[[float, float], float]
    I: Callable[[float, float], float]
    It: Callable[[float, float], float]


def recursive_integrals(p: Potential, n: int, x0: float,
                        x: float) -> RecursiveIntegrals:
    """The six level-n integrals; the (x0, x) ladder is computed eagerly."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    fam = _family(p)
    fam.levels(float(x0), float(x), n)

    def getter(field):
        return lambda a, b, _f=field: fam.value(_f, n, float(a), float(b))

    return RecursiveIntegrals(n, getter("X"), getter("Y"), getter("Xt"),
                              getter("Yt"), getter("I"), getter("It"))


def closed_form_power(p: Potential, n: int, a, z0, z, *,
                      center_eps: float = CENTER_EPS) -> HyperbolicNumber:
    """The published closed-form power of exponent n in {0, 1, 2}.

    Exponents 0 and 1 cross-check against the generic construction.  The
    published exponent-2 expression contains (t - t0)/(x - x0) terms, is
    indeterminate on x = x0 (CenterSingular inside center_eps), and is
    reproduced exactly as published; its agreement with the generic
    construction is reported by the comparison tooling rather than
    assumed (it fails the zero-potential limit, so the generic
    construction is the authoritative value).
    """
    if n not in (0, 1, 2):
        raise ValueError("closed forms exist for exponents 0, 1, 2 only")
    a, z0, z = hyper(a), hyper(z0), hyper(z)
    dx = z.re - z0.re
    if n == 2 and abs(dx) < center_eps:
        raise CenterSingular(
            f"|x - x0| = {abs(dx):.3e} < {center_eps:g}: the published "
            f"exponent-2 formula is indeterminate; use the generic "
            f"construction here")
    Sv = p.S(z.re)
    lv = _family(p).levels(z0.re, z.re, n) if n else None
    return _published_power(n, a, p.S(z0.re), math.cos(Sv), math.sin(Sv),
                            lv, z.im - z0.im, dx)


def closed_form_grid(p: Potential, n: int, a, z0, xs, ts) -> tuple:
    """closed_form_power at every node of the grid xs x ts, as (re, im).

    Both are read-only arrays of shape (len(ts), len(xs)).  S and the family
    are looked up once per x, by the same scalar calls as closed_form_power,
    so every value agrees with it to the bit.  Exponent 2 gives nan where
    |x - x0| < CENTER_EPS, where the scalar form raises CenterSingular.
    """
    if n not in (0, 1, 2):
        raise ValueError("closed forms exist for exponents 0, 1, 2 only")
    a, z0 = hyper(a), hyper(z0)
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    keep = (n != 2) | (np.abs(xs - z0.re) >= CENTER_EPS)
    Sv = [p.S(x) if live else math.nan for x, live in zip(xs, keep)]
    lv = None
    if n:
        fam = _family(p)
        per_x = [fam.levels(z0.re, float(x), n) if live else None
                 for x, live in zip(xs, keep)]
        lv = [{f: np.array([v[k][f] if v else math.nan for v in per_x])
               for f in IteratedIntegralFamily.FIELDS} for k in range(n + 1)]
    val = _published_power(n, a, p.S(z0.re),
                           np.array([math.cos(v) for v in Sv]),
                           np.array([math.sin(v) for v in Sv]), lv,
                           ts[:, None] - z0.im,
                           np.where(keep, xs - z0.re, math.nan))
    shape = (ts.size, xs.size)
    return np.broadcast_to(val.re, shape), np.broadcast_to(val.im, shape)


def _published_power(n, a, S0, cos_S, sin_S, lv, dt, dx) -> HyperbolicNumber:
    """The published formula of exponent n from its ingredients.

    S0 = S(x0); cos S, sin S and the family levels lv[k][field] belong to
    the target x, with dt = t - t0 and dx = x - x0.  Target values are
    floats or arrays that broadcast, so both forms evaluate one expression.
    """
    a1, a2 = a.re, a.im
    alpha = math.cos(S0)
    beta = math.sin(S0)
    F = HyperbolicNumber(cos_S, -sin_S)
    G = HyperbolicNumber(sin_S, cos_S)
    lam0 = a1 * alpha - a2 * beta
    mu0 = a1 * beta + a2 * alpha
    if n == 0:
        return lam0 * F + mu0 * G
    if n == 1:
        X1 = lv[1]["X"]
        Y1 = lv[1]["Y"]
        lam1 = a1 * alpha + a2 * beta
        mu1 = -a1 * beta + a2 * alpha
        f_coef = lam1 * X1 + (a1 * beta - a2 * alpha) * Y1 + dt * mu1
        g_coef = mu1 * X1 + lam1 * Y1 + dt * lam1
    else:
        X1, Y1 = lv[1]["X"], lv[1]["Y"]
        X2, Y2 = lv[2]["X"], lv[2]["Y"]
        Xt2, Yt2 = lv[2]["Xt"], lv[2]["Yt"]
        I2, It2 = lv[2]["I"], lv[2]["It"]
        ratio = dt / dx
        f_coef = (lam0 * X2 + mu0 * Xt2 + 2.0 * dt * mu0 * X1
                  + (-a1 * beta - a2 * alpha) * Yt2 + lam0 * Y2
                  + 2.0 * dt * (-a1 * alpha + a2 * beta) * Y1
                  + ratio * mu0 * I2 + ratio * (-a1 * alpha + a2 * beta) * It2
                  + 2.0 * dt * dt * lam0)
        g_coef = (mu0 * X2 + (-a1 * alpha + a2 * beta) * Xt2
                  + 2.0 * dt * lam0 * X1
                  + lam0 * Yt2 + mu0 * Y2 + 2.0 * dt * mu0 * Y1
                  + ratio * lam0 * I2 + ratio * mu0 * It2
                  + 2.0 * dt * dt * mu0)
    # coefficients enter as f + j 0, as the ring's scalar product does
    return (F * HyperbolicNumber(f_coef, 0.0)
            + G * HyperbolicNumber(g_coef, 0.0))
