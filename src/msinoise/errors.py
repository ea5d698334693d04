"""Exception types shared across the package."""


class MsiNoiseError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(MsiNoiseError):
    """A matrix inverse or linear solve hit a (near-)zero pivot."""


class OpticalSingularity(MsiNoiseError):
    """The optical mode determinant vanished at some frequency.

    Signals an exactly degenerate cavity resonance; physical configurations
    with nonzero recycling-mirror transmissivity stay clear of it.
    """

    def __init__(self, omega: float, det: complex):
        self.omega = omega
        self.det = det
        super().__init__(
            f"optical mode determinant {abs(det):.3e} is singular at "
            f"omega = {omega!r} rad/s"
        )


class SingularSweep(MsiNoiseError):
    """More than 10 % of a sweep's grid points were optically singular."""


class DegenerateFrequency(MsiNoiseError):
    """An operation that needs Omega != 0 was asked for Omega = 0."""


class NonpositiveTemperature(MsiNoiseError):
    """Thermal occupation requested for T <= 0."""


class UnstableSystem(MsiNoiseError):
    """Total damping H + H_opt <= 0: optical anti-damping wins."""


class UnreachableField(MsiNoiseError):
    """Requested intracavity field needs drive through a closed port."""


class ConfigError(MsiNoiseError):
    """Invalid run configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
