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

Every trial is learned by :func:`~qpac.learner.learn_each`, the
learning path that ``learn`` and ``sweep-m`` take too, so a training
set gets the same hypothesis in every protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import SampleSizeCapError
from .learner import Objective, error_share, learn_each, support_residuals
from .sampling import MeasurementDistribution, NoiseModel, draw_training_sets
from .states import DensityMatrix


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

    The cache holds no tables of its own: the support's batch
    (``dist.batch``) and its Tr(E rho) table serve every trial's
    sampling, objective and :func:`~qpac.learner.support_residuals`,
    for every cache on that support.
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
        """Learn the trials 0..count-1 at size m that are not cached yet,
        through :func:`~qpac.learner.learn_each`, and store the
        :func:`~qpac.learner.support_residuals` of each hypothesis.

        The trials' training sets are drawn as arrays
        (:func:`~qpac.sampling.draw_training_sets`), each the set that
        :func:`~qpac.sampling.sample_training_set` draws with its
        :meth:`trial_seed`, and each objective is built from its row
        (:meth:`~qpac.learner.Objective.drawn`)."""
        trials = [i for i in range(count) if (m, i) not in self._residuals]
        indices, values = draw_training_sets(
            self.dist, self.state, m, [self.trial_seed(m, i) for i in trials],
            self.noise, self.replacement,
        )
        objs = (Objective.drawn(self.dist, idx, vals, self.noise)
                for idx, vals in zip(indices, values))
        hyps = learn_each(objs, self.dist, self.k_max)
        for i, hyp in zip(trials, hyps):
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
    if no m up to m_cap qualifies; a cache that samples without
    replacement stops at its support size if that is smaller.
    """
    eps = _exact_fraction(params.epsilon)
    delta = _exact_fraction(params.delta)
    m_cap, limit = params.m_cap, "m_cap"
    if not cache.replacement and len(cache.dist) < m_cap:
        m_cap = len(cache.dist)
        limit = f"support size {m_cap}, sampled without replacement"
    trajectory = []
    for m in range(1, m_cap + 1):
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
    raise SampleSizeCapError(m_cap, trajectory, limit)


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
