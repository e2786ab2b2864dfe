"""Generating pairs and the derivative/integral calculus built on them.

A generating pair (F, G) generalizes (1, j): any hyperbolic function splits
uniquely as w = phi F + psi G with real phi, psi.  The four characteristic
coefficients of the pair turn that splitting into a Vekua equation
w_zbar = a w + b conj(w), a derivative w_z - A w - B conj(w), and an
integral that inverts the derivative.  Chains of pairs linked by the
successor relation make repeated differentiation and integration possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegeneratePair, DomainMismatch, ResidualTooLarge
from .fields import GridDomain, HyperField
from .hypernum import HyperbolicNumber, hyper, inverse
from .quadrature import Polyline, path_integral

DEFAULT_PAIR_TOLERANCE = 1e-10
SUCCESSOR_LATTICE = (9, 9)


class CoefficientValues(NamedTuple):
    a: HyperbolicNumber
    b: HyperbolicNumber
    A: HyperbolicNumber
    B: HyperbolicNumber


@dataclass
class GeneratingPair:
    """A validated generating pair on a rectangular domain."""

    F: HyperField
    G: HyperField
    domain: GridDomain
    pair_tolerance: float = DEFAULT_PAIR_TOLERANCE
    _coeffs: "CharCoefficients" = field(default=None, repr=False, compare=False)

    def det_at(self, z) -> float:
        """Im(conj(F) G), the determinant of the (F, G) frame at z."""
        Fv = self.F(z)
        Gv = self.G(z)
        return Fv.re * Gv.im - Fv.im * Gv.re

    def coefficients(self) -> "CharCoefficients":
        if self._coeffs is None:
            self._coeffs = CharCoefficients(self)
        return self._coeffs


class CharCoefficients:
    """The four quotient fields a, b, A, B of a generating pair.

    Values are computed pointwise on demand and cached per node; the cache
    is write-once with identical values, so concurrent fills are safe.
    """

    def __init__(self, pair: GeneratingPair):
        self.pair = pair
        self._cache: dict = {}
        self.a = HyperField(lambda z: self.at(z).a, domain=pair.domain)
        self.b = HyperField(lambda z: self.at(z).b, domain=pair.domain)
        self.A = HyperField(lambda z: self.at(z).A, domain=pair.domain)
        self.B = HyperField(lambda z: self.at(z).B, domain=pair.domain)

    def at(self, z) -> CoefficientValues:
        z = hyper(z)
        key = (z.re, z.im)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        F = self.pair.F
        G = self.pair.G
        Fv, Gv = F(z), G(z)
        Fz, Fzb = F.d_z(z), F.d_zbar(z)
        Gz, Gzb = G.d_z(z), G.d_zbar(z)
        Fc, Gc = Fv.conj(), Gv.conj()
        denom = Fv * Gc - Fc * Gv
        if not denom.is_invertible():
            raise DegeneratePair(
                f"F conj(G) - conj(F) G = {denom!r} is not invertible at {z!r}",
                nodes=[z],
            )
        dinv = inverse(denom)
        vals = CoefficientValues(
            a=-(Fc * Gzb - Fzb * Gc) * dinv,
            b=(Fv * Gzb - Fzb * Gv) * dinv,
            A=-(Fc * Gz - Fz * Gc) * dinv,
            B=(Fv * Gz - Fz * Gv) * dinv,
        )
        self._cache[key] = vals
        return vals


def check_generating(F: HyperField, G: HyperField, domain: GridDomain,
                     pair_tolerance: float = DEFAULT_PAIR_TOLERANCE) -> GeneratingPair:
    """Validate Im(conj(F) G) != 0 at every grid node and return the pair."""
    xs = domain.x_nodes()
    ts = domain.t_nodes()
    xx, tt = np.meshgrid(xs, ts)
    fr, fi = F.eval_many(xx.ravel(), tt.ravel())
    gr, gi = G.eval_many(xx.ravel(), tt.ravel())
    det = fr * gi - fi * gr
    bad = np.abs(det) <= pair_tolerance
    if bad.any():
        nodes = [
            HyperbolicNumber(float(x), float(t))
            for x, t in zip(xx.ravel()[bad][:16], tt.ravel()[bad][:16])
        ]
        raise DegeneratePair(
            f"Im(conj(F) G) vanishes at {int(bad.sum())} node(s), "
            f"first {nodes[0]!r}",
            nodes=nodes,
        )
    return GeneratingPair(F, G, domain, pair_tolerance)


def classical_pair(domain: Optional[GridDomain] = None) -> GeneratingPair:
    """The pair (1, j) of plain hyperbolic analytic function theory."""
    if domain is None:
        domain = GridDomain(-1.0, 1.0, -1.0, 1.0, 3, 3)
    return GeneratingPair(HyperField.constant(1.0),
                          HyperField.constant(HyperbolicNumber(0.0, 1.0)),
                          domain)


def decompose(w, pair: GeneratingPair, z) -> tuple:
    """Real coordinates (phi, psi) of w in the (F, G) frame at z."""
    z = hyper(z)
    wv = w(z) if callable(w) else hyper(w)
    Fv = pair.F(z)
    Gv = pair.G(z)
    det = Fv.re * Gv.im - Fv.im * Gv.re
    if abs(det) <= pair.pair_tolerance:
        raise DegeneratePair(f"Im(conj(F) G) = {det:.3e} at {z!r}", nodes=[z])
    wc = wv.conj()
    phi = (wc * Gv).im / det
    psi = -(wc * Fv).im / det
    return phi, psi


def characteristic_coefficients(pair: GeneratingPair) -> CharCoefficients:
    return pair.coefficients()


def fg_derivative(w: HyperField, pair: GeneratingPair, z,
                  h: Optional[float] = None) -> HyperbolicNumber:
    """The (F, G)-derivative w_z - A w - B conj(w) at z."""
    z = hyper(z)
    co = pair.coefficients().at(z)
    wv = w(z)
    wz = w.d_z(z, h=h)
    return wz - co.A * wv - co.B * wv.conj()


def vekua_residual(w: HyperField, pair: GeneratingPair, z,
                   h: Optional[float] = None) -> HyperbolicNumber:
    """w_zbar - a w - b conj(w); zero iff w is pseudoanalytic for the pair."""
    z = hyper(z)
    co = pair.coefficients().at(z)
    wv = w(z)
    wzb = w.d_zbar(z, h=h)
    return wzb - co.a * wv - co.b * wv.conj()


def is_successor(pred: GeneratingPair, succ: GeneratingPair, tol: float,
                 lattice: tuple = SUCCESSOR_LATTICE) -> bool:
    """Check a_succ = a_pred and b_succ = -B_pred on an interior lattice."""
    if not pred.domain.same_extent(succ.domain):
        raise DomainMismatch("pairs live on different rectangles")
    pred_co = pred.coefficients()
    succ_co = succ.coefficients()
    for z in pred.domain.interior_lattice(*lattice):
        cp = pred_co.at(z)
        cs = succ_co.at(z)
        if abs(cs.a - cp.a) > tol or abs(cs.b + cp.B) > tol:
            return False
    return True


def adjoint(pair: GeneratingPair, validate: bool = True) -> GeneratingPair:
    """The pair (F*, G*) entering the (F, G)-integral.

    F* = -2 conj(F) / (F conj(G) - conj(F) G), G* = 2 conj(G) / (same).
    Exact derivatives propagate through the quotient when the input pair
    has them.
    """
    F, G = pair.F, pair.G
    denom = F * G.conjugate() - F.conjugate() * G
    f_star = (-2.0) * F.conjugate() / denom
    g_star = 2.0 * G.conjugate() / denom
    if validate:
        return check_generating(f_star, g_star, pair.domain, pair.pair_tolerance)
    return GeneratingPair(f_star, g_star, pair.domain, pair.pair_tolerance)


def fg_integral(W, path: Polyline, pair: GeneratingPair,
                tol: float = 1e-10) -> HyperbolicNumber:
    """The (F, G)-integral of W along the path.

    F(z1) Re(int G* W dz) + G(z1) Re(int F* W dz) with z1 the path end.
    Path-independent whenever W is pseudoanalytic for a successor of the
    pair; in particular it inverts the (F, G)-derivative.
    """
    Wf = W if isinstance(W, HyperField) else HyperField(W)
    adj = adjoint(pair, validate=False)
    int_gstar = path_integral(adj.G * Wf, path, tol=tol).re
    int_fstar = path_integral(adj.F * Wf, path, tol=tol).re
    z1 = path.end
    return pair.F(z1) * int_gstar + pair.G(z1) * int_fstar


class GeneratingSequence:
    """Lazily realized family m -> (F_m, G_m) of generating pairs.

    Each pair is expected to be a successor of the previous one; this is a
    caller contract checked numerically on demand via check_successor.
    When reduce_modulo_period is set (the default for periodic sequences
    whose pairs repeat identically, not merely with equal coefficients),
    indices are folded into one period before hitting the factory.
    x_only declares that every pair depends on x alone, which lets batched
    formal powers integrate along the L-path with an exact t-leg.
    """

    def __init__(self, pair_factory: Callable[[int], GeneratingPair],
                 period: Optional[int] = None, name: str = "",
                 reduce_modulo_period: bool = True, x_only: bool = False):
        if period is not None and period <= 0:
            raise ValueError("period must be a positive integer")
        self._factory = pair_factory
        self.period = period
        self.name = name
        self.x_only = x_only
        self._reduce = reduce_modulo_period and period is not None
        self._cache: dict = {}

    def pair(self, m: int) -> GeneratingPair:
        key = m % self.period if self._reduce else m
        hit = self._cache.get(key)
        if hit is None:
            hit = self._factory(key)
            self._cache[key] = hit
        return hit

    @staticmethod
    def constant(pair: GeneratingPair, name: str = "constant") -> "GeneratingSequence":
        return GeneratingSequence(lambda m: pair, period=1, name=name)

    def check_successor(self, m: int, tol: float) -> bool:
        return is_successor(self.pair(m), self.pair(m + 1), tol)

    def coefficient_gap(self, m: int, other: int,
                        lattice: tuple = SUCCESSOR_LATTICE) -> float:
        """Max componentwise distance between coefficient sets of two pairs."""
        co_m = self.pair(m).coefficients()
        co_o = self.pair(other).coefficients()
        gap = 0.0
        for z in self.pair(m).domain.interior_lattice(*lattice):
            cm = co_m.at(z)
            co = co_o.at(z)
            gap = max(gap, abs(cm.a - co.a), abs(cm.b - co.b),
                      abs(cm.A - co.A), abs(cm.B - co.B))
        return gap

    def check_period(self, m: int = 0, tol: float = 1e-12) -> bool:
        if self.period is None:
            raise ValueError("sequence has no declared period")
        return self.coefficient_gap(m, m + self.period) <= tol


def higher_derivative(w: HyperField, seq: GeneratingSequence, order: int,
                      h: Optional[float] = None,
                      residual_tol: Optional[float] = None,
                      check_lattice: tuple = (3, 3)) -> HyperField:
    """Iterated (F_m, G_m)-derivative: order 0 is w itself.

    When residual_tol is given, every intermediate is Vekua-checked on a
    small interior lattice and ResidualTooLarge raised on failure.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    current = w
    for m in range(order):
        pair = seq.pair(m)
        if residual_tol is not None:
            nodes = pair.domain.interior_lattice(*check_lattice)
            scale = max(max(abs(current(z)) for z in nodes), 1.0)
            worst = max(abs(vekua_residual(current, pair, z, h=h)) for z in nodes)
            if worst > residual_tol * scale:
                raise ResidualTooLarge(
                    f"level {m} residual {worst:.3e} exceeds "
                    f"{residual_tol:.3e} x scale {scale:.3e}"
                )
        current = _derived_field(current, pair, h)
    return current


def _derived_field(w: HyperField, pair: GeneratingPair,
                   h: Optional[float]) -> HyperField:
    return HyperField(lambda z: fg_derivative(w, pair, z, h=h),
                      domain=pair.domain)
