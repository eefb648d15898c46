"""Minimum training-set size estimation and the sample-complexity
reference bound.

The minimum-m search is the PAC-learning test: per candidate m it
reads i_max independent learning trials, counts those whose exact
support error rate exceeds epsilon, and returns the first m whose
failure rate drops strictly below delta. Failure-rate comparisons use
exact rational arithmetic, so the stopping rule carries no floating
drift.

The trials come from a :class:`TrialCache`, the learning context that
decides a trial's outcome: the target, the distribution, the noise
model, the sampling mode and the optimizer budget k_max. A search
names its root seeds, and each trial is keyed by its own sampling
seed. The search only fills the cache and reads it, so searches that
share a cache and a root (a sweep relaxing epsilon, gamma or delta)
read the same trial outcomes and inherit exact monotonicity.

:func:`estimate_min_m` searches its roots (a protocol's repeats) in
lock-step: at each candidate m every root still searching is filled
by one :func:`fill_trials` call, so their trials share one stack of
eigen-steps.

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
    """The learning trials of one learning context: a target state, its
    support, a noise model, a sampling mode and an optimizer budget
    k_max.

    Each trial is keyed by its own sampling seed ``(*root, m, i)``:
    trial i at training size m of the search with root seed ``root``
    (a tuple of non-negative integers). Trials at different roots, m or
    i draw independent streams, and every search that names a root
    reads that root's trials. Each trial is learned with at most
    ``k_max`` Frank-Wolfe steps. :func:`fill_trials` is the only place
    trials are learned; :meth:`residuals` and :meth:`epsilon_estimate`
    read trials it filled and raise ``KeyError`` for any other.

    The cache holds no tables of its own: the support's batch
    (``dist.batch``) and its Tr(E rho) table serve every trial's
    sampling, objective and :func:`~qpac.learner.support_residuals`,
    for every cache on that support.
    """

    def __init__(
        self,
        state: DensityMatrix,
        dist: MeasurementDistribution,
        k_max: int = 300,
        noise: NoiseModel | None = None,
        replacement: bool = True,
    ):
        _at_least_one("k_max", k_max)
        self.state = state
        self.dist = dist
        self.k_max = k_max
        self.noise = noise or NoiseModel.exact()
        self.replacement = replacement
        self._residuals: dict[tuple, np.ndarray] = {}

    def residuals(self, seed: tuple) -> np.ndarray:
        """Read-only support residuals of the hypothesis of the filled
        trial with sampling seed ``seed``."""
        return self._residuals[seed]

    def epsilon_estimate(self, seed: tuple, gamma: float) -> Fraction:
        """Exact share of support effects that the filled trial with
        sampling seed ``seed`` misses by more than gamma."""
        return error_share(self.residuals(seed), gamma)


def fill_trials(cache: TrialCache, roots: Sequence[tuple], m: int, count: int) -> None:
    """Learn the trials 0..count-1 at size m of each root seed in
    ``roots`` that ``cache`` has not filled yet, and store the
    :func:`~qpac.learner.support_residuals` of each hypothesis.

    The missing trials, root by root in order, are drawn as one pair of
    arrays (:func:`~qpac.sampling.draw_training_sets`, each row drawn
    with the trial's seed ``(*root, m, i)``) and learned by one
    :func:`~qpac.learner.learn_each` call. Each trial's residuals are
    the bytes that learning it alone gives, so how many roots share a
    fill changes no result, only how many trials share a stack.
    """
    seeds = ((*root, m, i) for root in roots for i in range(count))
    seeds = [seed for seed in seeds if seed not in cache._residuals]
    indices, values = draw_training_sets(
        cache.dist, cache.state, m, seeds, cache.noise, cache.replacement,
    )
    hyps = learn_each(cache.dist, indices, values, cache.noise, cache.k_max)
    for seed, hyp in zip(seeds, hyps):
        found = support_residuals(hyp.sigma, cache.state, cache.dist)
        found.setflags(write=False)
        cache._residuals[seed] = found


Record = Callable[[tuple, int, int, float, bool], None]


def estimate_min_m(cache: TrialCache, params: LearnParams, roots: Sequence[tuple], *,
                   record: Record | None = None) -> list[int]:
    """For each root seed in ``roots``, the first training-set size m
    whose trial failure rate is strictly below delta.

    Per candidate m = 1, 2, ..., reads trials 0..i_max-1 of each root
    still searching, and fails a trial when the exact share of support
    effects it misses by more than gamma (strict) exceeds epsilon. The
    roots search in lock-step: at each m, one :func:`fill_trials` call
    learns the missing trials of every root still searching, so they
    share one draw and one :func:`~qpac.learner.learn_each` call. Each
    root gets the minimum m that a search of it alone gives.
    ``record(root, m, i, epsilon_est, failed)`` is called once per trial
    read, root by root at each m, so each root sees the calls of a lone
    search in the same order.

    Raises :class:`SampleSizeCapError` with the failure-rate trajectory
    of the first root in order that no m up to m_cap qualifies for; a
    cache that samples without replacement stops at its support size if
    that is smaller. A protocol that searches its repeats once per
    swept value (``sweep-errors``) therefore reports the first failing
    search in (value, repeat) order, not in (repeat, value) order.
    """
    eps = _exact_fraction(params.epsilon)
    delta = _exact_fraction(params.delta)
    m_cap, limit = params.m_cap, "m_cap"
    support = len(cache.dist)
    if not cache.replacement and support < m_cap:
        m_cap, limit = support, f"support size {support}, sampled without replacement"
    found: list[int | None] = [None] * len(roots)
    trajectories: list[list[float]] = [[] for _ in roots]
    searching = list(range(len(roots)))
    for m in range(1, m_cap + 1):
        if not searching:
            break
        fill_trials(cache, [roots[j] for j in searching], m, params.i_max)
        for j in searching:
            failures = 0
            for i in range(params.i_max):
                eps_est = cache.epsilon_estimate((*roots[j], m, i), params.gamma)
                failed = eps_est > eps
                if failed:
                    failures += 1
                if record is not None:
                    record(roots[j], m, i, float(eps_est), failed)
            delta_est = Fraction(failures, params.i_max)
            trajectories[j].append(float(delta_est))
            if delta_est < delta:
                found[j] = m
        searching = [j for j in searching if found[j] is None]
    if searching:
        raise SampleSizeCapError(m_cap, trajectories[searching[0]], limit)
    return found


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
