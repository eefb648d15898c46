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

Searches of caches that differ only in their root seed (a protocol's
repeats) run as one group in lock-step (:func:`estimate_min_ms`): at
each candidate m every search still running is filled by one
:func:`fill_trials` call, so their trials share one stack of
eigen-steps. A lone search is a group of one.

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
from .learner import error_share, learn_each, support_residuals
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
    Frank-Wolfe steps. :func:`fill_trials` is the only place trials
    are learned; :meth:`residuals` and :meth:`epsilon_estimate` read
    trials it filled and raise ``KeyError`` for any other.

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

    def residuals(self, m: int, i: int) -> np.ndarray:
        """Read-only support residuals of the hypothesis of filled trial
        i at size m."""
        return self._residuals[(m, i)]

    def epsilon_estimate(self, m: int, i: int, gamma: float) -> Fraction:
        """Exact share of support effects that filled trial i at size m
        misses by more than gamma."""
        return error_share(self.residuals(m, i), gamma)


def _check_group(caches: Sequence[TrialCache]) -> None:
    first = caches[0]
    for cache in caches[1:]:
        if (cache.state is not first.state or cache.dist is not first.dist
                or cache.noise != first.noise or cache.replacement != first.replacement
                or cache.k_max != first.k_max):
            raise ValueError("a group of trial caches must share its state, support, "
                             "noise, replacement mode and k_max")


def fill_trials(caches: Sequence[TrialCache], m: int, count: int) -> None:
    """Learn, for each cache of a group, the trials 0..count-1 at size
    m that it has not cached yet, and store the
    :func:`~qpac.learner.support_residuals` of each hypothesis.

    A group shares one state and one support object, one noise model,
    one replacement mode and one k_max; anything else raises
    ``ValueError``. Its missing trials, cache by cache in order, are
    drawn as one pair of arrays (:func:`~qpac.sampling.draw_training_sets`,
    each row the set that :func:`~qpac.sampling.sample_training_set`
    draws with its cache's :meth:`~TrialCache.trial_seed`) and learned
    by one :func:`~qpac.learner.learn_each` call. Each trial's residuals
    are the bytes that learning it alone gives, so grouping caches
    changes no result, only how many trials share a stack.
    """
    caches = list(caches)
    if not caches:
        return
    _check_group(caches)
    first = caches[0]
    trials = [(cache, i) for cache in caches for i in range(count)
              if (m, i) not in cache._residuals]
    indices, values = draw_training_sets(
        first.dist, first.state, m, [cache.trial_seed(m, i) for cache, i in trials],
        first.noise, first.replacement,
    )
    hyps = learn_each(first.dist, indices, values, first.noise, first.k_max)
    for (cache, i), hyp in zip(trials, hyps):
        found = support_residuals(hyp.sigma, first.state, first.dist)
        found.setflags(write=False)
        cache._residuals[(m, i)] = found


Record = Callable[[int, int, float, bool], None]


def estimate_min_m(cache: TrialCache, params: LearnParams, *,
                   record: Record | None = None) -> int:
    """First training-set size m whose trial failure rate is strictly
    below delta: :func:`estimate_min_ms` on ``cache`` alone.

    Per candidate m = 1, 2, ..., fills trials 0..i_max-1 of ``cache``
    and fails a trial when the exact share of support effects it misses
    by more than gamma (strict) exceeds epsilon. ``record(m, i,
    epsilon_est, failed)`` is called once per trial read, in order.
    Raises :class:`SampleSizeCapError` with the failure-rate trajectory
    if no m up to m_cap qualifies; a cache that samples without
    replacement stops at its support size if that is smaller.

    The protocols search their repeats as groups (one group per swept
    value in ``sweep-errors``), so where several searches reach the
    cap the error reported is the first in (value, repeat) order, not
    in (repeat, value) order.
    """
    return estimate_min_ms([cache], params, records=[record])[0]


def estimate_min_ms(
    caches: Sequence[TrialCache],
    params: LearnParams,
    *,
    records: Sequence[Record | None] | None = None,
) -> list[int]:
    """:func:`estimate_min_m` of each cache of a group, searched in
    lock-step: at each candidate m, the caches still searching are
    filled by one :func:`fill_trials` call, so their trials share one
    draw and one :func:`~qpac.learner.learn_each` call.

    The group rules of :func:`fill_trials` apply. Each cache gets the
    minimum m a lone search gives it, and ``records[j]`` (if given and
    not None) sees the calls that a lone search of cache j makes, in
    the same order. When searches reach the cap, the
    :class:`SampleSizeCapError` of the first of them in group order is
    raised; a protocol that runs one group per swept value therefore
    reports the first failing search in (value, repeat) order.
    """
    caches = list(caches)
    records = list(records) if records is not None else [None] * len(caches)
    if len(records) != len(caches):
        raise ValueError(f"{len(records)} records for {len(caches)} caches")
    if not caches:
        return []
    eps = _exact_fraction(params.epsilon)
    delta = _exact_fraction(params.delta)
    m_cap, limit = params.m_cap, "m_cap"
    support = len(caches[0].dist)
    if not caches[0].replacement and support < m_cap:
        m_cap, limit = support, f"support size {support}, sampled without replacement"
    found: list[int | None] = [None] * len(caches)
    trajectories: list[list[float]] = [[] for _ in caches]
    searching = list(range(len(caches)))
    for m in range(1, m_cap + 1):
        fill_trials([caches[j] for j in searching], m, params.i_max)
        for j in searching:
            cache, record = caches[j], records[j]
            failures = 0
            for i in range(params.i_max):
                eps_est = cache.epsilon_estimate(m, i, params.gamma)
                failed = eps_est > eps
                if failed:
                    failures += 1
                if record is not None:
                    record(m, i, float(eps_est), failed)
            delta_est = Fraction(failures, params.i_max)
            trajectories[j].append(float(delta_est))
            if delta_est < delta:
                found[j] = m
        searching = [j for j in searching if found[j] is None]
        if not searching:
            return found
    raise SampleSizeCapError(m_cap, trajectories[searching[0]], limit)


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
