"""Minimum training-set size estimation and the sample-complexity
reference bound.

The minimum-m search is the PAC-learning test: per candidate m it
reads i_max independent learning trials, counts those whose exact
support error rate exceeds epsilon, and returns the first m whose
failure rate drops strictly below delta. Failure-rate comparisons use
exact rational arithmetic, so the stopping rule carries no floating
drift.

The trials come from a :class:`TrialCache`, which owns everything that
decides a trial's outcome: the target, the distribution, the root
seed, the noise model, the sampling mode and the optimizer budget
k_max. The search only fills the cache and reads it, so searches that
share a cache (a sweep relaxing epsilon, gamma or delta) read the same
trial outcomes and inherit exact monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import SampleSizeCapError
from .learner import (
    _EIG_TOL,
    Objective,
    _maximally_mixed,
    _vanishes,
    error_share,
    hazan_optimize,
    support_residuals,
)
from .linalg import smallest_eigenvectors
from .sampling import MeasurementDistribution, NoiseModel, sample_training_set
from .states import DensityMatrix


# matrix entries whose first-step gradients one fill solves as a stack
# (2^15 complex128 entries, 512 KB): 8 trials at dim 64
_FILL_CHUNK_ENTRIES = 1 << 15


def _unit_interval(name: str, value: float):
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _at_least_one(name: str, value: int):
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class LearnParams:
    """Error parameters and search budgets for the minimum-m search.

    epsilon, gamma, delta admit the closed top of the unit interval so
    the degenerate always-pass settings stay expressible. i_max is the
    number of trials per candidate m, m_cap the largest m tried.
    """

    epsilon: float
    gamma: float
    delta: float
    i_max: int = 50
    m_cap: int = 256

    def __post_init__(self):
        _unit_interval("epsilon", self.epsilon)
        _unit_interval("gamma", self.gamma)
        _unit_interval("delta", self.delta)
        _at_least_one("i_max", self.i_max)
        _at_least_one("m_cap", self.m_cap)


def _exact_fraction(x: float) -> Fraction:
    # str() round-trips the decimal the caller wrote, so 0.2 means 1/5
    # rather than its binary expansion
    return Fraction(str(x))


class TrialCache:
    """The learning trials of one (state, distribution, seed) context.

    Trial i at training size m samples its training set with
    :meth:`trial_seed` ``(m, i)``, so trials at different m or i draw
    independent streams, and learns it with at most ``k_max``
    Frank-Wolfe steps. :meth:`fill` is the only place trials are
    learned; :meth:`residuals` and :meth:`epsilon_estimate` read trials
    it filled and raise ``KeyError`` for any other.
    """

    def __init__(
        self,
        state: DensityMatrix,
        dist: MeasurementDistribution,
        seed,
        k_max: int = 300,
        noise: NoiseModel | None = None,
        replacement: bool = True,
    ):
        _at_least_one("k_max", k_max)
        self.state = state
        self.dist = dist
        self.seed = seed
        self.k_max = k_max
        self.noise = noise or NoiseModel.exact()
        self.replacement = replacement
        self._residuals: dict[tuple[int, int], np.ndarray] = {}

    def trial_seed(self, m: int, i: int) -> tuple:
        """The sampling seed of trial i at size m: the root seed's
        components followed by m and i."""
        base = self.seed if isinstance(self.seed, (list, tuple)) else (self.seed,)
        return (*base, m, i)

    def fill(self, m: int, count: int) -> None:
        """Learn the trials 0..count-1 at size m that are not cached yet.

        In chunks of at most ``_FILL_CHUNK_ENTRIES`` gradient entries:
        sample each trial's training set and build its first gradient,
        solve the chunk's nonzero first gradients as one stack, then run
        each trial's optimization from its solved first step. Each
        trial's residuals are those learning it alone gives.
        """
        dim = self.state.matrix.shape[0]
        chunk = max(1, _FILL_CHUNK_ENTRIES // (dim * dim))
        mixed = _maximally_mixed(dim)
        trials = [i for i in range(count) if (m, i) not in self._residuals]
        for lo in range(0, len(trials), chunk):
            steps = []
            for i in trials[lo:lo + chunk]:
                training = sample_training_set(
                    self.dist, self.state, m, noise=self.noise,
                    seed=self.trial_seed(m, i), replacement=self.replacement,
                )
                obj = Objective(training)
                g = obj.gradient(mixed)
                steps.append((i, obj, g, not _vanishes(g)))
            solved = iter(smallest_eigenvectors(
                [g for _, _, g, live in steps if live], tol=_EIG_TOL
            ))
            for i, obj, g, live in steps:
                v = next(solved)[0] if live else None
                hyp = hazan_optimize(obj, k_max=self.k_max, first_step=(g, v))
                found = support_residuals(hyp.sigma, self.state, self.dist)
                found.setflags(write=False)
                self._residuals[(m, i)] = found

    def residuals(self, m: int, i: int) -> np.ndarray:
        """Read-only support residuals of the hypothesis of filled trial
        i at size m."""
        return self._residuals[(m, i)]

    def epsilon_estimate(self, m: int, i: int, gamma: float) -> Fraction:
        """Exact share of support effects that filled trial i at size m
        misses by more than gamma."""
        return error_share(self.residuals(m, i), gamma)


def estimate_min_m(
    cache: TrialCache,
    params: LearnParams,
    *,
    record: Callable[[int, int, float, bool], None] | None = None,
) -> int:
    """First training-set size m whose trial failure rate is strictly
    below delta.

    Per candidate m = 1, 2, ..., fills trials 0..i_max-1 of ``cache``
    and fails a trial when the exact share of support effects it misses
    by more than gamma (strict) exceeds epsilon. ``record(m, i,
    epsilon_est, failed)`` is called once per trial read, in order.
    Raises :class:`SampleSizeCapError` with the failure-rate trajectory
    if no m up to m_cap qualifies.
    """
    eps = _exact_fraction(params.epsilon)
    delta = _exact_fraction(params.delta)
    trajectory = []
    for m in range(1, params.m_cap + 1):
        cache.fill(m, params.i_max)
        failures = 0
        for i in range(params.i_max):
            eps_est = cache.epsilon_estimate(m, i, params.gamma)
            failed = eps_est > eps
            if failed:
                failures += 1
            if record is not None:
                record(m, i, float(eps_est), failed)
        delta_est = Fraction(failures, params.i_max)
        trajectory.append(float(delta_est))
        if delta_est < delta:
            return m
    raise SampleSizeCapError(params.m_cap, trajectory)


def theorem_bound(n: int, params: LearnParams, big_k: float) -> float:
    """Reference sample-size bound, linear in n.

    Natural logarithms; the leading constant absorbs any base change,
    and only the curve's shape is ever used.
    """
    if big_k < 0:
        raise ValueError(f"K must be non-negative, got {big_k}")
    g4e2 = params.gamma**4 * params.epsilon**2
    log_ge = math.log(1.0 / (params.gamma * params.epsilon))
    return (big_k / g4e2) * (n / g4e2 * log_ge**2 + math.log(1.0 / params.delta))


def linear_fit(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Ordinary least squares m = slope * n + intercept over the mean m
    per distinct n. Returns (slope, intercept, r_squared)."""
    groups: dict[float, list[float]] = {}
    for n, m in points:
        groups.setdefault(float(n), []).append(float(m))
    if len(groups) < 2:
        raise ValueError(f"need at least 2 distinct n values, got {len(groups)}")
    ns = np.array(sorted(groups))
    means = np.array([np.mean(groups[n]) for n in ns])
    slope, intercept = np.polyfit(ns, means, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((means - pred) ** 2))
    ss_tot = float(np.sum((means - means.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)
