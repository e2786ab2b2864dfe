"""Hyperbolic-valued fields of z = x + j t and their formal derivatives.

A HyperField is either backed by a closed-form callable (optionally with
exact d/dz and d/dz-bar callables) or by samples on a rectangular grid.
Arithmetic between fields propagates exact derivatives by the product and
quotient rules, so derived fields such as adjoint generators stay exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NotHyperbolicAnalytic, OutOfDomain
from .hypernum import HyperbolicNumber, hyper, inverse

DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class GridDomain:
    """Rectangular evaluation window with a uniform node lattice."""

    x_min: float
    x_max: float
    t_min: float
    t_max: float
    nx: int
    nt: int
    timelike: bool = False

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.t_min < self.t_max):
            raise ValueError("domain bounds must satisfy x_min < x_max, t_min < t_max")
        if self.nx < 3 or self.nt < 3:
            raise ValueError("need at least 3 nodes per axis")
        if self.timelike and not (0.0 < self.x_min and self.x_max < self.t_min):
            # time-like region is 0 < x < t; on a rectangle that means the
            # whole x-range sits strictly below the whole t-range
            raise ValueError("time-like flag requires 0 < x_min and x_max < t_min")

    @property
    def h_x(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def h_t(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)

    def contains(self, z: HyperbolicNumber, slack: float = 1e-12) -> bool:
        return (
            self.x_min - slack <= z.re <= self.x_max + slack
            and self.t_min - slack <= z.im <= self.t_max + slack
        )

    def interior_lattice(self, count_x: int = 9, count_t: int = 9):
        """Evenly spread interior sample points, used for structural checks."""
        xs = np.linspace(self.x_min, self.x_max, count_x + 2)[1:-1]
        ts = np.linspace(self.t_min, self.t_max, count_t + 2)[1:-1]
        return [HyperbolicNumber(float(x), float(t)) for t in ts for x in xs]

    def same_extent(self, other: "GridDomain", tol: float = 1e-12) -> bool:
        return (
            abs(self.x_min - other.x_min) <= tol
            and abs(self.x_max - other.x_max) <= tol
            and abs(self.t_min - other.t_min) <= tol
            and abs(self.t_max - other.t_max) <= tol
        )

    def to_json_dict(self):
        return {
            "x_min": self.x_min,
            "x_max": self.x_max,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "nx": self.nx,
            "nt": self.nt,
            "timelike": self.timelike,
        }

    @staticmethod
    def from_json_dict(d) -> "GridDomain":
        return GridDomain(
            float(d["x_min"]), float(d["x_max"]),
            float(d["t_min"]), float(d["t_max"]),
            int(d["nx"]), int(d["nt"]), bool(d.get("timelike", False)),
        )


class HyperField:
    """Hyperbolic-valued function of z, exact-callable or grid-sampled."""

    def __init__(
        self,
        fn: Optional[Callable[[HyperbolicNumber], HyperbolicNumber]] = None,
        *,
        dz: Optional[Callable[[HyperbolicNumber], HyperbolicNumber]] = None,
        dzbar: Optional[Callable[[HyperbolicNumber], HyperbolicNumber]] = None,
        eval_many: Optional[Callable] = None,
        domain: Optional[GridDomain] = None,
        samples: Optional[np.ndarray] = None,
        fd_step: float = DEFAULT_FD_STEP,
    ):
        if fn is None and samples is None:
            raise ValueError("a field needs a callable or a sample array")
        self._fn = fn
        self._dz = dz
        self._dzbar = dzbar
        self._eval_many = eval_many
        self.domain = domain
        self.fd_step = fd_step
        if samples is not None:
            if domain is None:
                raise ValueError("sampled fields need a GridDomain")
            samples = np.asarray(samples, dtype=float)
            if samples.shape != (domain.nt, domain.nx, 2):
                raise ValueError(
                    f"samples must have shape (nt, nx, 2) = "
                    f"({domain.nt}, {domain.nx}, 2), got {samples.shape}"
                )
        self.samples = samples

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def from_samples(domain: GridDomain, samples) -> "HyperField":
        return HyperField(None, domain=domain, samples=np.asarray(samples, dtype=float))

    @staticmethod
    def constant(value) -> "HyperField":
        c = hyper(value)
        zero = HyperbolicNumber(0.0, 0.0)
        return HyperField(
            lambda z, _c=c: _c,
            dz=lambda z: zero,
            dzbar=lambda z: zero,
            eval_many=lambda xs, ts, _c=c: (
                np.full(np.shape(xs), _c.re), np.full(np.shape(xs), _c.im)),
        )

    @staticmethod
    def sample(fn_field: "HyperField", domain: GridDomain) -> "HyperField":
        """Evaluate a callable field on a grid and return the sampled field."""
        xs = domain.x_nodes()
        ts = domain.t_nodes()
        xx, tt = np.meshgrid(xs, ts)
        re, im = fn_field.eval_many(xx.ravel(), tt.ravel())
        vals = np.stack([re.reshape(domain.nt, domain.nx),
                         im.reshape(domain.nt, domain.nx)], axis=-1)
        return HyperField.from_samples(domain, vals)

    # ------------------------------------------------------------------
    # evaluation

    @property
    def is_sampled(self) -> bool:
        return self.samples is not None

    @property
    def has_exact_derivatives(self) -> bool:
        return self._dz is not None and self._dzbar is not None

    def __call__(self, z) -> HyperbolicNumber:
        z = hyper(z)
        if self.is_sampled:
            return self._interp(z)
        return self._fn(z)

    def eval_many(self, xs, ts):
        """Vectorized evaluation, returning (re, im) float arrays."""
        xs = np.asarray(xs, dtype=float)
        ts = np.asarray(ts, dtype=float)
        if self._eval_many is not None:
            re, im = self._eval_many(xs, ts)
            return np.asarray(re, dtype=float), np.asarray(im, dtype=float)
        re = np.empty(xs.shape)
        im = np.empty(xs.shape)
        flat_x = xs.ravel()
        flat_t = ts.ravel()
        fre = re.ravel()
        fim = im.ravel()
        for i in range(flat_x.size):
            val = self(HyperbolicNumber(float(flat_x[i]), float(flat_t[i])))
            fre[i] = val.re
            fim[i] = val.im
        return re, im

    def _locate(self, z: HyperbolicNumber):
        dom = self.domain
        if not dom.contains(z):
            raise OutOfDomain(f"{z!r} outside grid {dom.x_min}..{dom.x_max} x "
                              f"{dom.t_min}..{dom.t_max}")
        ix = int(math.floor((z.re - dom.x_min) / dom.h_x))
        it = int(math.floor((z.im - dom.t_min) / dom.h_t))
        ix = min(max(ix, 0), dom.nx - 2)
        it = min(max(it, 0), dom.nt - 2)
        fx = (z.re - (dom.x_min + ix * dom.h_x)) / dom.h_x
        ft = (z.im - (dom.t_min + it * dom.h_t)) / dom.h_t
        return ix, it, fx, ft

    def _interp(self, z: HyperbolicNumber) -> HyperbolicNumber:
        ix, it, fx, ft = self._locate(z)
        v = self.samples
        blend = (
            v[it, ix] * (1 - fx) * (1 - ft)
            + v[it, ix + 1] * fx * (1 - ft)
            + v[it + 1, ix] * (1 - fx) * ft
            + v[it + 1, ix + 1] * fx * ft
        )
        return HyperbolicNumber(float(blend[0]), float(blend[1]))

    def _node_central_diff(self, it: int, ix: int):
        dom = self.domain
        if not (1 <= ix <= dom.nx - 2 and 1 <= it <= dom.nt - 2):
            raise OutOfDomain("central stencil leaves the grid")
        v = self.samples
        dx = (v[it, ix + 1] - v[it, ix - 1]) / (2 * dom.h_x)
        dt = (v[it + 1, ix] - v[it - 1, ix]) / (2 * dom.h_t)
        return dx, dt

    def _grad(self, z: HyperbolicNumber, h: Optional[float]):
        """Return (f_x, f_t) as hyperbolic numbers, second-order accurate."""
        if self.is_sampled:
            ix, it, fx, ft = self._locate(z)
            # blend the four surrounding node stencils; exact at nodes
            corners = []
            for dt_i, dx_i, w in (
                (it, ix, (1 - fx) * (1 - ft)),
                (it, ix + 1, fx * (1 - ft)),
                (it + 1, ix, (1 - fx) * ft),
                (it + 1, ix + 1, fx * ft),
            ):
                if w == 0.0:
                    corners.append((np.zeros(2), np.zeros(2), 0.0))
                    continue
                gx, gt = self._node_central_diff(dt_i, dx_i)
                corners.append((gx, gt, w))
            gx = sum(c[0] * c[2] for c in corners)
            gt = sum(c[1] * c[2] for c in corners)
            return (HyperbolicNumber(float(gx[0]), float(gx[1])),
                    HyperbolicNumber(float(gt[0]), float(gt[1])))
        step = h if h is not None else self.fd_step
        if self.domain is not None:
            for probe in (
                HyperbolicNumber(z.re + step, z.im),
                HyperbolicNumber(z.re - step, z.im),
                HyperbolicNumber(z.re, z.im + step),
                HyperbolicNumber(z.re, z.im - step),
            ):
                if not self.domain.contains(probe):
                    raise OutOfDomain("finite-difference stencil leaves the domain")
        fxp = self._fn(HyperbolicNumber(z.re + step, z.im))
        fxm = self._fn(HyperbolicNumber(z.re - step, z.im))
        ftp = self._fn(HyperbolicNumber(z.re, z.im + step))
        ftm = self._fn(HyperbolicNumber(z.re, z.im - step))
        inv2h = 1.0 / (2.0 * step)
        gx = HyperbolicNumber((fxp.re - fxm.re) * inv2h, (fxp.im - fxm.im) * inv2h)
        gt = HyperbolicNumber((ftp.re - ftm.re) * inv2h, (ftp.im - ftm.im) * inv2h)
        return gx, gt

    def d_z(self, z, h: Optional[float] = None) -> HyperbolicNumber:
        z = hyper(z)
        if self._dz is not None and h is None and not self.is_sampled:
            return self._dz(z)
        gx, gt = self._grad(z, h)
        # 1/2 (f_x + j f_t)
        return HyperbolicNumber(0.5 * (gx.re + gt.im), 0.5 * (gx.im + gt.re))

    def d_zbar(self, z, h: Optional[float] = None) -> HyperbolicNumber:
        z = hyper(z)
        if self._dzbar is not None and h is None and not self.is_sampled:
            return self._dzbar(z)
        gx, gt = self._grad(z, h)
        # 1/2 (f_x - j f_t)
        return HyperbolicNumber(0.5 * (gx.re - gt.im), 0.5 * (gx.im - gt.re))

    # ------------------------------------------------------------------
    # algebra with derivative propagation

    def _as_field(self, other) -> "HyperField":
        if isinstance(other, HyperField):
            return other
        return HyperField.constant(other)

    def __add__(self, other):
        g = self._as_field(other)
        f = self
        dz = dzbar = None
        if f._dz is not None and g._dz is not None:
            dz = lambda z: f._dz(z) + g._dz(z)
        if f._dzbar is not None and g._dzbar is not None:
            dzbar = lambda z: f._dzbar(z) + g._dzbar(z)
        ev = None
        if f._eval_many is not None and g._eval_many is not None:
            def ev(xs, ts):
                fr, fi = f.eval_many(xs, ts)
                gr, gi = g.eval_many(xs, ts)
                return fr + gr, fi + gi
        return HyperField(lambda z: f(z) + g(z), dz=dz, dzbar=dzbar,
                          eval_many=ev, domain=f.domain or g.domain)

    __radd__ = __add__

    def __neg__(self):
        return self * HyperbolicNumber(-1.0, 0.0)

    def __sub__(self, other):
        return self + (-self._as_field(other))

    def __rsub__(self, other):
        return (-self) + self._as_field(other)

    def __mul__(self, other):
        g = self._as_field(other)
        f = self
        dz = dzbar = None
        if f._dz is not None and g._dz is not None:
            dz = lambda z: f._dz(z) * g(z) + f(z) * g._dz(z)
        if f._dzbar is not None and g._dzbar is not None:
            dzbar = lambda z: f._dzbar(z) * g(z) + f(z) * g._dzbar(z)
        ev = None
        if f._eval_many is not None and g._eval_many is not None:
            def ev(xs, ts):
                fr, fi = f.eval_many(xs, ts)
                gr, gi = g.eval_many(xs, ts)
                return fr * gr + fi * gi, fr * gi + fi * gr
        return HyperField(lambda z: f(z) * g(z), dz=dz, dzbar=dzbar,
                          eval_many=ev, domain=f.domain or g.domain)

    __rmul__ = __mul__

    def conjugate(self) -> "HyperField":
        f = self
        dz = dzbar = None
        # d/dz conj(f) = conj(d/dz-bar f) and vice versa
        if f._dzbar is not None:
            dz = lambda z: f._dzbar(z).conj()
        if f._dz is not None:
            dzbar = lambda z: f._dz(z).conj()
        ev = None
        if f._eval_many is not None:
            def ev(xs, ts):
                fr, fi = f.eval_many(xs, ts)
                return fr, -fi
        return HyperField(lambda z: f(z).conj(), dz=dz, dzbar=dzbar,
                          eval_many=ev, domain=f.domain)

    def reciprocal(self) -> "HyperField":
        f = self
        dz = dzbar = None
        if f._dz is not None:
            def dz(z):
                g = inverse(f(z))
                return -(g * g) * f._dz(z)
        if f._dzbar is not None:
            def dzbar(z):
                g = inverse(f(z))
                return -(g * g) * f._dzbar(z)
        ev = None
        if f._eval_many is not None:
            def ev(xs, ts):
                fr, fi = f.eval_many(xs, ts)
                q = fr * fr - fi * fi
                return fr / q, -fi / q
        return HyperField(lambda z: inverse(f(z)), dz=dz, dzbar=dzbar,
                          eval_many=ev, domain=f.domain)

    def __truediv__(self, other):
        return self * self._as_field(other).reciprocal()


# ----------------------------------------------------------------------
# module-level derivative operators


def d_z(f: HyperField, z, h: Optional[float] = None) -> HyperbolicNumber:
    """Formal derivative (f_x + j f_t) / 2."""
    return f.d_z(z, h=h)


def d_zbar(f: HyperField, z, h: Optional[float] = None) -> HyperbolicNumber:
    """Formal derivative (f_x - j f_t) / 2; zero iff f is hyperbolic analytic."""
    return f.d_zbar(z, h=h)


class HyperbolicDerivative(NamedTuple):
    value: HyperbolicNumber
    invertible: bool


def hyperbolic_derivative(
    f: HyperField,
    z0,
    h: Optional[float] = None,
    derivative_tolerance: Optional[float] = None,
) -> HyperbolicDerivative:
    """Derivative of a hyperbolic-analytic function at z0.

    The difference-quotient limit over invertible increments exists exactly
    when d/dz-bar vanishes, in which case the derivative equals d/dz.  The
    invertibility flag reports whether the 2x2 Jacobian of (u, v) has nonzero
    determinant there.

    Raises NotHyperbolicAnalytic when |d_zbar f| exceeds the tolerance,
    which defaults to 10 h^2 scaled by the local field size.
    """
    z0 = hyper(z0)
    residual = f.d_zbar(z0, h=h)
    scale = max(1.0, abs(f(z0)))
    if derivative_tolerance is None:
        if f.has_exact_derivatives and h is None and not f.is_sampled:
            derivative_tolerance = 1e-12 * scale
        else:
            step = h
            if step is None:
                step = (max(f.domain.h_x, f.domain.h_t)
                        if f.is_sampled else f.fd_step)
            derivative_tolerance = 10.0 * step * step * scale
    if abs(residual) > derivative_tolerance:
        raise NotHyperbolicAnalytic(
            f"d_zbar = {residual!r} at {z0!r} exceeds tolerance "
            f"{derivative_tolerance:.3e}"
        )
    deriv = f.d_z(z0, h=h)
    gx, gt = f._grad(z0, h) if (h is not None or not f.has_exact_derivatives
                                or f.is_sampled) else (
        f._dz(z0) + f._dzbar(z0),
        HyperbolicNumber(0.0, 1.0) * (f._dz(z0) - f._dzbar(z0)),
    )
    det = gx.re * gt.im - gt.re * gx.im
    tiny = 1e-12 * max(1.0, abs(gx), abs(gt)) ** 2
    return HyperbolicDerivative(deriv, abs(det) > tiny)


# ----------------------------------------------------------------------
# serialization: CSV with columns x,t,re,im and JSON with a domain header

CSV_HEADER = ["x", "t", "re", "im"]


def csv_text(header, columns) -> str:
    """CSV text of equal-shape column arrays, one row per element.

    Every cell is "%.17g" (nan, inf and -0 as Python prints them) and every
    line ends with LF.
    """
    table = np.stack([np.ravel(c) for c in columns], axis=1)
    row = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)]
    lines.extend(row % tuple(values) for values in table.tolist())
    return "\n".join(lines) + "\n"


def save_field_csv(field: HyperField, path) -> None:
    if not field.is_sampled:
        raise ValueError("only sampled fields have a canonical CSV form")
    dom = field.domain
    xx, tt = np.meshgrid(dom.x_nodes(), dom.t_nodes())
    text = csv_text(CSV_HEADER, [xx, tt, field.samples[:, :, 0],
                                 field.samples[:, :, 1]])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def load_field_csv(path) -> HyperField:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != CSV_HEADER:
            raise ValueError(f"expected header {CSV_HEADER}, got {header}")
        rows = [(float(x), float(t), float(re), float(im))
                for x, t, re, im in reader]
    xs = sorted({r[0] for r in rows})
    ts = sorted({r[1] for r in rows})
    nx, nt = len(xs), len(ts)
    if nx * nt != len(rows):
        raise ValueError("CSV rows do not form a full rectangular grid")
    dom = GridDomain(xs[0], xs[-1], ts[0], ts[-1], nx, nt)
    x_index = {x: i for i, x in enumerate(xs)}
    t_index = {t: i for i, t in enumerate(ts)}
    vals = np.zeros((nt, nx, 2))
    for x, t, re, im in rows:
        vals[t_index[t], x_index[x]] = (re, im)
    return HyperField.from_samples(dom, vals)


def save_field_json(field: HyperField, path) -> None:
    if not field.is_sampled:
        raise ValueError("only sampled fields have a canonical JSON form")
    payload = {
        "domain": field.domain.to_json_dict(),
        "values": [[float(v[0]), float(v[1])]
                   for row in field.samples for v in row],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_field_json(path) -> HyperField:
    with open(path) as fh:
        payload = json.load(fh)
    dom = GridDomain.from_json_dict(payload["domain"])
    flat = np.asarray(payload["values"], dtype=float)
    return HyperField.from_samples(dom, flat.reshape(dom.nt, dom.nx, 2))


# ----------------------------------------------------------------------
# ready-made analytic fields


def identity_field() -> HyperField:
    """f(z) = z."""
    one = HyperbolicNumber(1.0, 0.0)
    zero = HyperbolicNumber(0.0, 0.0)
    return HyperField(
        lambda z: z,
        dz=lambda z: one,
        dzbar=lambda z: zero,
        eval_many=lambda xs, ts: (np.asarray(xs, float), np.asarray(ts, float)),
    )


def monomial_field(n: int) -> HyperField:
    """f(z) = z^n with exact derivatives."""
    from .hypernum import power

    zero = HyperbolicNumber(0.0, 0.0)
    if n == 0:
        return HyperField.constant(1.0)
    return HyperField(
        lambda z: power(z, n),
        dz=lambda z: float(n) * power(z, n - 1),
        dzbar=lambda z: zero,
    )
