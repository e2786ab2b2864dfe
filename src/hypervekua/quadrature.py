"""Polyline paths and the one Gauss-Legendre prefix ladder.

Every integral in the package is a prefix integral along straight
segments: each formal-power level integrates the previous one, the X/Y/I
family behind the closed forms iterates against cos 2S and sin 2S, S is
the integral of s, and path integrals of fields are ladder totals.
`PathGrid` holds the Gauss-Legendre nodes of a batch of polylines and
returns prefix integrals at every node; `refine` doubles its panel count
until two sweeps agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergence
from .fields import HyperField
from .hypernum import HyperbolicNumber, hyper

DEFAULT_TOL = 1e-10
DEFAULT_GAUSS_ORDER = 8
MAX_PANEL_DOUBLINGS = 10


# ----------------------------------------------------------------------
# polylines


@dataclass(frozen=True)
class Polyline:
    """Ordered vertices of a rectifiable path in the hyperbolic plane."""

    vertices: tuple

    def __init__(self, vertices: Sequence):
        pts = tuple(hyper(v) for v in vertices)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        for a, b in zip(pts, pts[1:]):
            if a.re == b.re and a.im == b.im:
                raise ValueError("consecutive vertices must be distinct")
        object.__setattr__(self, "vertices", pts)

    @property
    def start(self) -> HyperbolicNumber:
        return self.vertices[0]

    @property
    def end(self) -> HyperbolicNumber:
        return self.vertices[-1]

    @property
    def is_closed(self) -> bool:
        return (self.start.re == self.end.re and self.start.im == self.end.im)

    def length(self) -> float:
        return sum(
            np.hypot(b.re - a.re, b.im - a.im)
            for a, b in zip(self.vertices, self.vertices[1:])
        )

    def reversed(self) -> "Polyline":
        return Polyline(tuple(reversed(self.vertices)))

    def concat(self, other: "Polyline") -> "Polyline":
        if (self.end.re, self.end.im) != (other.start.re, other.start.im):
            raise ValueError("paths do not join end to start")
        return Polyline(self.vertices + other.vertices[1:])

    @staticmethod
    def straight(z0, z1) -> "Polyline":
        return Polyline([hyper(z0), hyper(z1)])

    @staticmethod
    def l_path(z0, z1) -> "Polyline":
        """Axis-aligned path: x-leg first, then t-leg."""
        z0 = hyper(z0)
        z1 = hyper(z1)
        corner = HyperbolicNumber(z1.re, z0.im)
        pts = [z0]
        if (corner.re, corner.im) not in ((z0.re, z0.im), (z1.re, z1.im)):
            pts.append(corner)
        pts.append(z1)
        return Polyline(pts)

    @staticmethod
    def rectangle(corner_low, corner_high) -> "Polyline":
        """Closed rectangle boundary, counterclockwise from corner_low."""
        a = hyper(corner_low)
        b = hyper(corner_high)
        return Polyline([
            a,
            HyperbolicNumber(b.re, a.im),
            b,
            HyperbolicNumber(a.re, b.im),
            a,
        ])


# ----------------------------------------------------------------------
# Gauss-Legendre panel machinery

_RULE_CACHE: dict = {}


def _gauss_rule(order: int):
    """Canonical nodes/weights on [-1, 1] plus the prefix matrix K with
    K[i, k] = integral of the k-th Lagrange basis over [-1, node_i]."""
    cached = _RULE_CACHE.get(order)
    if cached is not None:
        return cached
    nodes, weights = np.polynomial.legendre.leggauss(order)
    # barycentric weights for the Lagrange basis at the Gauss nodes
    bary = np.ones(order)
    for i in range(order):
        diff = nodes[i] - np.delete(nodes, i)
        bary[i] = 1.0 / np.prod(diff)
    sub_nodes, sub_weights = np.polynomial.legendre.leggauss(order + 2)
    K = np.zeros((order, order))
    for i in range(order):
        half = 0.5 * (nodes[i] + 1.0)
        xs = -1.0 + half * (sub_nodes + 1.0)
        ws = half * sub_weights
        # Lagrange basis values at xs via the barycentric formula
        diffs = xs[:, None] - nodes[None, :]
        exact = np.isclose(diffs, 0.0, atol=1e-15)
        safe = np.where(exact, 1.0, diffs)
        terms = bary[None, :] / safe
        denom = terms.sum(axis=1)
        basis = terms / denom[:, None]
        basis[exact.any(axis=1)] = exact[exact.any(axis=1)].astype(float)
        K[i, :] = ws @ basis
    _RULE_CACHE[order] = (nodes, weights, K)
    return nodes, weights, K


class PathGrid:
    """Gauss-Legendre ladder nodes for many polylines with shared topology.

    Vertices come as arrays of shape (T, S+1) per coordinate: T paths, each
    with S straight segments.  All paths share panel count and order, so the
    prefix-integration algebra runs as whole-array numpy operations.  Node
    coordinates `xs`, `ts` have the grid shape (T, S, P, q).
    """

    def __init__(self, verts_x: np.ndarray, verts_t: np.ndarray,
                 panels: int, order: int = DEFAULT_GAUSS_ORDER):
        nodes, weights, K = _gauss_rule(order)
        u_panel = (np.arange(panels)[:, None]
                   + (nodes[None, :] + 1.0) * 0.5) / panels  # (P, q) in [0, 1]
        ax = verts_x[:, :-1]
        bx = verts_x[:, 1:]
        at = verts_t[:, :-1]
        bt = verts_t[:, 1:]
        self.dzx = bx - ax  # (T, S)
        self.dzt = bt - at
        self.xs = ax[:, :, None, None] + self.dzx[:, :, None, None] * u_panel
        self.ts = at[:, :, None, None] + self.dzt[:, :, None, None] * u_panel
        self.weights = weights
        self.K = K
        self.panel_scale = 0.5 / panels

    @classmethod
    def along(cls, path: Polyline, panels: int,
              order: int = DEFAULT_GAUSS_ORDER) -> "PathGrid":
        """The T = 1 grid of one polyline."""
        verts_x = np.array([[v.re for v in path.vertices]])
        verts_t = np.array([[v.im for v in path.vertices]])
        return cls(verts_x, verts_t, panels, order)

    def prefix_re(self, vre, vim):
        """Prefix values of Re(v dz) from each path start.

        Inputs have the grid shape (T, S, P, q) (vim may be a scalar).
        Returns (cum, total) with cum of the same shape and total of
        shape (T,).
        """
        f = vre * self.dzx[:, :, None, None] + vim * self.dzt[:, :, None, None]
        panel_full = self.panel_scale * (f @ self.weights)          # (T, S, P)
        partial = self.panel_scale * (f @ self.K.T)                 # (T, S, P, q)
        panel_before = np.cumsum(panel_full, axis=2) - panel_full   # exclusive
        seg_tot = panel_full.sum(axis=2)                            # (T, S)
        seg_before = np.cumsum(seg_tot, axis=1) - seg_tot
        cum = (seg_before[:, :, None, None]
               + panel_before[:, :, :, None] + partial)
        return cum, seg_tot.sum(axis=1)


def refine(sweep, panels: int, tol: float, what: str):
    """Double the panel count until two sweeps agree within tol.

    sweep(panels) returns an array, or a tuple of equal-shape arrays; the
    gap is the largest absolute change of any entry.  Returns the finer of
    the two agreeing sweeps and raises NoConvergence after
    MAX_PANEL_DOUBLINGS doublings.
    """
    prev = sweep(panels)
    for _ in range(MAX_PANEL_DOUBLINGS):
        panels *= 2
        cur = sweep(panels)
        gap = float(np.max(np.abs(np.subtract(cur, prev))))
        if gap <= tol:
            return cur
        prev = cur
    raise NoConvergence(
        f"{what} did not stabilize within {MAX_PANEL_DOUBLINGS} panel "
        f"doublings (last delta {gap:.3e})")


def path_integral(W, path: Polyline, tol: float = DEFAULT_TOL,
                  order: int = DEFAULT_GAUSS_ORDER,
                  initial_panels: int = 2) -> HyperbolicNumber:
    """Integral of W dz along the polyline, dz = dx + j dt.

    W may be a HyperField or any callable z -> HyperbolicNumber.  Panels are
    doubled until two refinements agree within tol componentwise.  Both
    components are ladder totals: Im(v dz) = Re((v_im + j v_re) dz).
    """
    field = W if isinstance(W, HyperField) else HyperField(W)

    def sweep(panels):
        grid = PathGrid.along(path, panels, order)
        vre, vim = field.eval_many(grid.xs, grid.ts)
        return np.concatenate([grid.prefix_re(vre, vim)[1],
                               grid.prefix_re(vim, vre)[1]])

    total_re, total_im = refine(sweep, initial_panels, tol, "path integral")
    return HyperbolicNumber(float(total_re), float(total_im))
