"""Exception hierarchy shared across the library.

Every error raised by the numerical layers derives from HyperVekuaError so
the CLI can map failures onto machine-readable codes in one place.
"""


class HyperVekuaError(Exception):
    """Base class for all library errors."""

    code = "INTERNAL"


class ZeroDivisor(HyperVekuaError):
    """Inversion of a hyperbolic number on the light cone |re| = |im|."""

    code = "ZERO_DIVISOR"


class OutOfDomain(HyperVekuaError):
    """Evaluation point or stencil leaves the working domain."""

    code = "OUT_OF_DOMAIN"


class NotHyperbolicAnalytic(HyperVekuaError):
    """The d/dz-bar test failed, so no hyperbolic derivative exists."""

    code = "NOT_ANALYTIC"


class NoConvergence(HyperVekuaError):
    """Panel doubling hit its limit before two quadrature sweeps agreed."""

    code = "NO_CONVERGENCE"


class DegeneratePair(HyperVekuaError):
    """Im(conj(F) G) vanished somewhere a generating pair needs it."""

    code = "DEGENERATE_PAIR"

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = list(nodes) if nodes is not None else []


class DomainMismatch(HyperVekuaError):
    """Two pairs or fields do not share a common domain."""

    code = "DOMAIN_MISMATCH"


class ResidualTooLarge(HyperVekuaError):
    """An intermediate function failed its Vekua residual check."""

    code = "RESIDUAL_TOO_LARGE"


class DepthExceeded(HyperVekuaError):
    """Formal-power exponent beyond the configured recursion limit."""

    code = "DEPTH_EXCEEDED"


class StepTooLarge(HyperVekuaError):
    """Mode-equation integration drifted beyond the conservation budget."""

    code = "STEP_TOO_LARGE"


class CenterSingular(HyperVekuaError):
    """Closed-form power requested on the line x = x0 where it is 0/0."""

    code = "CENTER_SINGULAR"


class PotentialParseError(HyperVekuaError):
    """Malformed potential specification string."""

    code = "POTENTIAL_PARSE"


class ConfigError(HyperVekuaError):
    """Invalid run configuration."""

    code = "CONFIG_INVALID"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code
