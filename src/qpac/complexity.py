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
from .learner import error_share, learn_each, support_residuals, vertex_support_residuals
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

    def error_counts(self, root: tuple, m: int, count: int, gamma: float) -> np.ndarray:
        """The number of support effects that each filled trial
        0..count-1 at size m of root seed ``root`` misses by more than
        gamma (strict), as one integer array: the numerators of their
        :meth:`epsilon_estimate` over the support size."""
        found = np.array([self._residuals[(*root, m, i)] for i in range(count)])
        return np.count_nonzero(found > gamma, axis=1)


def fill_trials(cache: TrialCache, roots: Sequence[tuple], m: int, count: int) -> None:
    """Learn the trials 0..count-1 at size m of each root seed in
    ``roots`` that ``cache`` has not filled yet, and store the
    :func:`~qpac.learner.support_residuals` of each hypothesis.

    The missing trials, root by root in order, are drawn as one pair of
    arrays (:func:`~qpac.sampling.draw_training_sets`, each row drawn
    with the trial's seed ``(*root, m, i)``) and learned by one
    :func:`~qpac.learner.learn_each` call. The hypotheses of one
    Frank-Wolfe step are scored together by
    :func:`~qpac.learner.vertex_support_residuals`, so no d x d matrix
    is built for them; any other hypothesis is scored alone. Each
    trial's residuals are the bytes that learning it alone
    gives, so how many roots share a fill changes no result, only how
    many trials share a stack.
    """
    seeds = ((*root, m, i) for root in roots for i in range(count))
    seeds = [seed for seed in seeds if seed not in cache._residuals]
    indices, values = draw_training_sets(
        cache.dist, cache.state, m, seeds, cache.noise, cache.replacement,
    )
    hyps = learn_each(cache.dist, indices, values, cache.noise, cache.k_max)
    vertices = {}
    for seed, hyp in zip(seeds, hyps):
        if hyp.vertex is None:
            found = support_residuals(hyp.sigma, cache.state, cache.dist)
            found.setflags(write=False)
            cache._residuals[seed] = found
        else:
            vertices[seed] = hyp.vertex
    if vertices:
        found = vertex_support_residuals(list(vertices.values()), cache.state, cache.dist)
        found.setflags(write=False)
        cache._residuals.update(zip(vertices, found))


Record = Callable[[tuple, int, np.ndarray, np.ndarray], None]


def estimate_min_m(cache: TrialCache, params: LearnParams, roots: Sequence[tuple], *,
                   record: Record | None = None) -> list[int]:
    """For each root seed in ``roots``, the first training-set size m
    whose trial failure rate is strictly below delta.

    Per candidate m = 1, 2, ..., reads trials 0..i_max-1 of each root
    still searching, and fails a trial when the exact share of support
    effects it misses by more than gamma (strict) exceeds epsilon. Each
    (root, m) is decided from one integer array of the trials' error
    counts (:meth:`TrialCache.error_counts`): with epsilon = p / q
    exactly and support size |S|, a trial's count c fails when
    c q > p |S|, that is when c exceeds floor(p |S| / q), the
    ``Fraction`` comparison c / |S| > p / q done in integers. Likewise,
    with delta = a / b exactly, a (root, m) with f failing trials
    passes when f b < a i_max, and its failure rate f / i_max enters
    the trajectory correctly rounded. The roots search in lock-step:
    at each m, one :func:`fill_trials` call learns the missing trials
    of every root still searching, so they
    share one draw and one :func:`~qpac.learner.learn_each` call. Each
    root gets the minimum m that a search of it alone gives.
    ``record(root, m, epsilon_est, failed)`` is called once per
    (root, m) read, with the (i_max,) arrays of its trials' error rates
    c / |S| (correctly rounded, as ``float`` of the ``Fraction`` is)
    and failures, root by root at each m, so each root sees the calls
    of a lone search in the same order.

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
    # the largest error count whose share does not exceed epsilon
    tolerated = eps.numerator * support // eps.denominator
    found: list[int | None] = [None] * len(roots)
    trajectories: list[list[float]] = [[] for _ in roots]
    searching = list(range(len(roots)))
    for m in range(1, m_cap + 1):
        if not searching:
            break
        fill_trials(cache, [roots[j] for j in searching], m, params.i_max)
        for j in searching:
            counts = cache.error_counts(roots[j], m, params.i_max, params.gamma)
            failed = counts > tolerated
            if record is not None:
                record(roots[j], m, counts / support, failed)
            failures = int(np.count_nonzero(failed))
            trajectories[j].append(failures / params.i_max)
            if failures * delta.denominator < delta.numerator * params.i_max:
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
    if not g4e2:
        return math.inf  # gamma^4 epsilon^2 underflowed
    log_ge = math.log(1.0 / (params.gamma * params.epsilon))
    return (big_k / g4e2) * (n / g4e2 * log_ge**2 + math.log(1.0 / params.delta))


def linear_fit(points: Sequence[tuple[float, float | Fraction]]) -> tuple[float, float, float]:
    """Ordinary least squares m = slope * n + intercept over the mean m
    per distinct n, in exact rationals, each result rounded to float
    once. Returns (slope, intercept, r_squared)."""
    groups: dict[Fraction, list[Fraction]] = {}
    for n, m in points:
        groups.setdefault(Fraction(n), []).append(Fraction(m))
    if len(groups) < 2:
        raise ValueError(f"need at least 2 distinct n values, got {len(groups)}")
    ns = sorted(groups)
    means = [sum(groups[n]) / len(groups[n]) for n in ns]
    n_bar, m_bar = sum(ns) / len(ns), sum(means) / len(means)
    s_nm = sum((n - n_bar) * (m - m_bar) for n, m in zip(ns, means))
    slope = s_nm / sum((n - n_bar) ** 2 for n in ns)
    ss_tot = sum((m - m_bar) ** 2 for m in means)
    # 1 - ss_res / ss_tot, exactly; equal means fit exactly
    r2 = slope * s_nm / ss_tot if ss_tot else Fraction(1)
    return float(slope), float(m_bar - slope * n_bar), float(r2)
