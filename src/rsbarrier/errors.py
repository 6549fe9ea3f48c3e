"""Exception types shared across the engine."""


class RsBarrierError(Exception):
    """Base class for all engine errors."""


class ConfigError(RsBarrierError):
    """Invalid configuration file or inconsistent problem setup."""


class DomainError(RsBarrierError):
    """Argument outside a characteristic exponent's analyticity strip."""


class PoleError(DomainError):
    """Characteristic exponent evaluated at one of its poles."""


class InfeasibleHistoryError(RsBarrierError):
    """Requested history space cannot exist (e.g. m=1 with N>0)."""


class InvalidTransitionError(RsBarrierError):
    """Regime transition into the currently occupied state."""


class ResourceLimitError(RsBarrierError):
    """Problem size beyond the desk-scale guards."""


class FactorizationDegenerateError(RsBarrierError):
    """The roots of Q + psi cannot be split: one sits on (or too close to)
    the real axis, or they lie beyond the float range."""


class InternalError(RsBarrierError):
    """Invariant violated inside the engine; indicates a bug."""


class ContourError(RsBarrierError):
    """Contour placement failed: winding of the log, or damping outside a strip."""


class GridResolutionError(RsBarrierError):
    """Residual does not decay inside the grid; enlarge the domain or M."""


class IllPosedApplicationError(RsBarrierError):
    """Inverse EPV application produced non-decaying growth."""


class SpectralParameterError(RsBarrierError):
    """Linear solve or iteration failed for this spectral value q."""


class ContractionFailureError(SpectralParameterError):
    """Inner fixed-point sweeps stopped contracting."""


class DivergenceError(SpectralParameterError):
    """Outer series terms stopped decreasing."""


class PlanError(RsBarrierError):
    """Invalid Laplace-inversion plan."""
