"""Exception types shared across the package."""


class QpacError(Exception):
    """Base class for package errors."""


class PauliPhaseError(QpacError, ValueError):
    """A Pauli product produced an imaginary phase (caller bug)."""


class StructureError(QpacError, ValueError):
    """Generators are non-commuting, dependent, or otherwise malformed."""


class NonHermitianError(QpacError, ValueError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class NonPhysicalStateError(QpacError, ValueError):
    """A density matrix violates trace/PSD invariants beyond tolerance."""


class ConfigError(QpacError, ValueError):
    """Invalid experiment configuration."""


class SampleSizeCapError(QpacError, RuntimeError):
    """Minimum-m search hit its safety cap without meeting the target.

    Carries the failure-rate trajectory observed up to the cap so the
    caller can report how far the search got; ``limit`` names what set
    the cap.
    """

    def __init__(self, m_cap: int, delta_trajectory, limit: str = "m_cap"):
        self.m_cap = m_cap
        self.delta_trajectory = list(delta_trajectory)
        super().__init__(
            f"no m <= {m_cap} ({limit}) met the confidence target; "
            f"failure rates per m: {self.delta_trajectory}"
        )
