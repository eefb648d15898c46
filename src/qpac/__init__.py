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
    ConvergenceError,
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
    shot_objective_value,
    support_residuals,
)
from .linalg import eigendecompose, smallest_eigenvector, smallest_eigenvectors, sqrt_psd
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
    TrainingSet,
    build_distribution,
    distribution_from_generators,
    per_shot_outcomes,
    sample_training_set,
)
from .states import (
    DensityMatrix,
    MeasurementEffect,
    expectation,
    fidelity,
    ghz_density,
    maximally_mixed,
)

__version__ = "0.1.0"
