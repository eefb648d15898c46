"""Minimum training-set size estimation and the sample-complexity
reference bound.

The search runs i_max independent learning trials per candidate m,
counts trials whose exact support error rate exceeds epsilon, and
returns the first m whose failure rate drops strictly below delta.
Failure-rate comparisons use exact rational arithmetic so the stopping
rule carries no floating drift.

A :class:`TrialCache` memoizes per-(m, trial) support residuals keyed
by the trial seed, so sweeps that relax epsilon, gamma, or delta reuse
identical trial outcomes and inherit exact monotonicity. The search
fills it once per candidate m: the first Frank-Wolfe steps of the m's
uncached trials are solved as stacks (one stacked power iteration per
chunk) and handed to each trial's optimization, and a first gradient
that an earlier trial of the same fill already produced is solved only
once.
"""

from __future__ import annotations

import hashlib
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
    hazan_optimize,
    support_residuals,
)
from .linalg import smallest_eigenvectors
from .sampling import (
    MeasurementDistribution,
    NoiseModel,
    TrainingSet,
    sample_training_set,
)
from .states import DensityMatrix


# matrix entries whose first-step gradients one batch fill solves as a
# stack (2^15 complex128 entries, 512 KB): 8 trials at dim 64
_FILL_CHUNK_ENTRIES = 1 << 15


def _unit_interval(name: str, value: float):
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


@dataclass(frozen=True)
class LearnParams:
    """Error parameters and loop budgets for the minimum-m search.

    epsilon, gamma, delta admit the closed top of the unit interval so
    the degenerate always-pass settings stay expressible.
    """

    epsilon: float
    gamma: float
    delta: float
    i_max: int = 50
    k_max: int = 300
    m_cap: int = 256

    def __post_init__(self):
        _unit_interval("epsilon", self.epsilon)
        _unit_interval("gamma", self.gamma)
        _unit_interval("delta", self.delta)
        if self.i_max < 1:
            raise ValueError(f"i_max must be >= 1, got {self.i_max}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.m_cap < 1:
            raise ValueError(f"m_cap must be >= 1, got {self.m_cap}")


def _exact_fraction(x: float) -> Fraction:
    # str() round-trips the decimal the caller wrote, so 0.2 means 1/5
    # rather than its binary expansion
    return Fraction(str(x))


class TrialCache:
    """Memoized learning trials for one (state, distribution, seed) context.

    ``residuals(m, i)`` returns the exact support residuals of the
    hypothesis learned in trial i at training size m. Trials at
    different m are sampled from scratch (independent streams).
    ``fill(m, count)`` learns trials 0..count-1 of one m together, so
    their first eigen-steps run as stacks; a lookup it did not fill
    learns its trial the same way, as a stack of one. Either way the
    residuals are those learning the trial alone gives.
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
        self.state = state
        self.dist = dist
        self.seed = seed
        self.k_max = k_max
        self.noise = noise or NoiseModel.exact()
        self.replacement = replacement
        self._residuals: dict[tuple[int, int], np.ndarray] = {}

    def _trial_seed(self, m: int, i: int):
        base = self.seed if isinstance(self.seed, (list, tuple)) else (self.seed,)
        return (*base, m, i)

    def _training(self, m: int, i: int) -> TrainingSet:
        return sample_training_set(
            self.dist, self.state, m,
            noise=self.noise, seed=self._trial_seed(m, i),
            replacement=self.replacement,
        )

    def residuals(self, m: int, i: int) -> np.ndarray:
        if (m, i) not in self._residuals:
            self._learn(m, [i])
        return self._residuals[(m, i)]

    def fill(self, m: int, count: int) -> None:
        """Learn the trials 0..count-1 at size m not cached yet."""
        self._learn(m, [i for i in range(count) if (m, i) not in self._residuals])

    def _learn(self, m: int, trials: list[int]) -> None:
        """Learn the given trials at size m, in chunks of at most
        ``_FILL_CHUNK_ENTRIES`` gradient entries.

        Per chunk: sample each trial's training set and build its first
        gradient, solve the chunk's distinct nonzero gradients not met
        earlier in this call as one stack, then run each trial's
        optimization from its solved first step.
        """
        dim = self.state.matrix.shape[0]
        chunk = max(1, _FILL_CHUNK_ENTRIES // (dim * dim))
        mixed = _maximally_mixed(dim)
        # set-based sampling redraws the same m-subset in another order,
        # and with exact data its first gradient does not depend on the
        # order; the search meets each m in one call, so the vectors,
        # keyed by the gradient's SHA-1, live for this call only
        solved: dict[bytes, np.ndarray] = {}
        for lo in range(0, len(trials), chunk):
            steps = []
            pending: dict[bytes, np.ndarray] = {}
            for i in trials[lo:lo + chunk]:
                obj = Objective(self._training(m, i))
                g = obj.gradient(mixed)
                key = None if _vanishes(g) else hashlib.sha1(g).digest()
                if key is not None and key not in solved:
                    pending[key] = g
                steps.append((i, obj, g, key))
            vectors = smallest_eigenvectors(list(pending.values()), tol=_EIG_TOL)
            for key, (v, _) in zip(pending, vectors):
                solved[key] = v
            for i, obj, g, key in steps:
                hyp = hazan_optimize(obj, k_max=self.k_max, first_step=(g, solved.get(key)))
                found = support_residuals(hyp.sigma, self.state, self.dist)
                found.setflags(write=False)
                self._residuals[(m, i)] = found

    def epsilon_estimate(self, m: int, i: int, gamma: float) -> Fraction:
        resid = self.residuals(m, i)
        return Fraction(int(np.count_nonzero(resid > gamma)), len(resid))


def estimate_min_m(
    state: DensityMatrix,
    dist: MeasurementDistribution,
    params: LearnParams,
    seed,
    *,
    noise: NoiseModel | None = None,
    replacement: bool = True,
    cache: TrialCache | None = None,
    record: Callable[[int, int, float, bool], None] | None = None,
) -> int:
    """First training-set size m whose trial failure rate is strictly
    below delta.

    Per candidate m, runs i_max independent trials: sample a size-m
    training set, learn a hypothesis, and fail the trial if the exact
    fraction of support effects missed by more than gamma (strict)
    exceeds epsilon. Raises :class:`SampleSizeCapError` with the
    failure-rate trajectory if no m up to m_cap qualifies.
    """
    if cache is None:
        cache = TrialCache(
            state, dist, seed,
            k_max=params.k_max, noise=noise, replacement=replacement,
        )
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
