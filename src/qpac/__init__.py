"""qpac: PAC-learning of n-qubit quantum states from random stabilizer
measurements, with sample-complexity estimation and experiment sweeps."""

from .complexity import (
    LearnParams,
    TrialCache,
    estimate_min_m,
    fill_trials,
    linear_fit,
    theorem_bound,
)
from .errors import (
    ConfigError,
    NonHermitianError,
    NonPhysicalStateError,
    PauliPhaseError,
    QpacError,
    SampleSizeCapError,
    StructureError,
)
from .learner import (
    Hypothesis,
    Objective,
    evaluate_epsilon,
    hazan_optimize,
    support_residuals,
)
from .linalg import eigendecompose, smallest_eigenvector, sqrt_psd
from .pauli import (
    PauliString,
    StabilizerGroup,
    ghz_generators,
    group_closure,
    pauli_multiply,
    xz_subset,
)
from .sampling import (
    FULL_STABILIZER,
    XZ_STABILIZER,
    MeasurementDistribution,
    NoiseModel,
    build_distribution,
    distribution_from_generators,
    sample_training_set,
)
from .states import (
    DensityMatrix,
    expectation,
    fidelity,
    ghz_density,
    maximally_mixed,
    stabilizer_state,
)

__version__ = "0.1.0"
