"""States the package builds itself skip the O(d^3) PSD certificate;
each of them must still pass the public validator."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    DensityMatrix,
    NoiseModel,
    Objective,
    build_distribution,
    ghz_density,
    ghz_generators,
    hazan_optimize,
    maximally_mixed,
    sample_training_set,
)
from qpac.experiments import ExperimentConfig, run_learn

CLUSTER_3 = ("XZI", "ZXZ", "IZX")


@lru_cache(maxsize=None)
def _generator_target(gens: tuple) -> DensityMatrix:
    n = len(gens)  # n independent generators pin an n-qubit state
    return ExperimentConfig(command="learn", n=n, m=1, generators=list(gens)).target_state(n)


def _learned(n: int, m: int, noise: NoiseModel, seed: int, k_max: int) -> DensityMatrix:
    # exact GHZ values are all 1, so shot noise needs the mixed target
    # (every value 1/2) to be noisy; Gaussian noise perturbs either
    target = maximally_mixed(n) if noise.kind == "shots" else ghz_density(n)
    training = sample_training_set(build_distribution(n, "d1"), target, m,
                                   noise=noise, seed=seed)
    return hazan_optimize(Objective(training), k_max=k_max).sigma


_GENERATOR_SETS = (
    CLUSTER_3,
    tuple(str(g) for g in ghz_generators(9)),
    tuple(str(g) for g in ghz_generators(10)),
)

built_states = st.one_of(
    st.integers(2, 10).map(ghz_density),
    st.integers(1, 10).map(maximally_mixed),
    st.sampled_from(_GENERATOR_SETS).map(_generator_target),
    st.builds(
        _learned,
        n=st.integers(2, 5),
        m=st.integers(1, 30),
        noise=st.one_of(
            st.integers(1, 50).map(NoiseModel.with_shots),
            st.floats(0.01, 0.3).map(NoiseModel.gaussian),
        ),
        seed=st.integers(0, 2**32 - 1),
        k_max=st.integers(1, 20),
    ),
)


@given(state=built_states)
@settings(max_examples=80, deadline=None)
def test_built_states_pass_public_validator(state):
    checked = DensityMatrix(state.matrix)
    assert np.array_equal(checked.matrix, state.matrix)
    assert not state.matrix.flags.writeable


def test_learn_at_n10_runs_no_psd_certificate(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("dense PSD check on the learn path")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    config = ExperimentConfig(command="learn", n=10, m=20, threads=1,
                              out=str(tmp_path / "learn.csv"))
    table = run_learn(config)
    assert [row[0] for row in table.rows] == ["learned", "mixed_baseline"]
    with pytest.raises(AssertionError):
        DensityMatrix(np.eye(2) / 2)
