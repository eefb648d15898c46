"""Minimum-m search against exhaustive enumeration, the reference
bound, and the linear fit."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qpac import (
    LearnParams,
    NoiseModel,
    Objective,
    SampleSizeCapError,
    TrainingSet,
    TrialCache,
    build_distribution,
    estimate_min_m,
    ghz_density,
    hazan_optimize,
    linear_fit,
    maximally_mixed,
    sample_training_set,
    support_residuals,
    theorem_bound,
)
from qpac import complexity


class TestLearnParams:
    def test_ranges(self):
        LearnParams(epsilon=1.0, gamma=0.5, delta=1.0)  # closed top allowed
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(ValueError):
                LearnParams(epsilon=bad, gamma=0.5, delta=0.5)
        with pytest.raises(ValueError):
            LearnParams(epsilon=0.5, gamma=0.5, delta=0.5, i_max=0)
        with pytest.raises(ValueError):
            LearnParams(epsilon=0.5, gamma=0.5, delta=0.5, m_cap=0)

    def test_k_max_belongs_to_the_cache(self):
        with pytest.raises(TypeError):
            LearnParams(epsilon=0.5, gamma=0.5, delta=0.5, k_max=10)
        rho, dist = ghz_density(2), build_distribution(2, "d1")
        with pytest.raises(ValueError, match="k_max must be >= 1, got 0"):
            TrialCache(rho, dist, (1,), k_max=0)


class TestEstimateMinM:
    def exhaustive_failure_rate(self, m, dist, rho, gamma, epsilon):
        """Exact failure probability over all |support|^m equally likely
        training sequences (sampling with replacement)."""
        failures = 0
        sequences = list(product(range(len(dist)), repeat=m))
        for seq in sequences:
            items = tuple((dist.effects[i], 1.0) for i in seq)
            hyp = hazan_optimize(Objective(TrainingSet(items)), k_max=300)
            resid = support_residuals(hyp.sigma, rho, dist)
            eps_est = Fraction(int(np.count_nonzero(resid > gamma)), len(resid))
            if eps_est > Fraction(str(epsilon)):
                failures += 1
        return Fraction(failures, len(sequences))

    def test_n2_matches_exhaustive_oracle(self):
        """The Monte Carlo search must land on the same m as exact
        enumeration of every training sequence (margins are wide: the
        exact failure rates sit far from delta)."""
        rho = ghz_density(2)
        dist = build_distribution(2, "d1")
        eps, gam, delt = 0.15, 0.2, 0.2
        exact_first_m = None
        rates = []
        for m in range(1, 5):
            rate = self.exhaustive_failure_rate(m, dist, rho, gam, eps)
            rates.append(rate)
            if exact_first_m is None and rate < Fraction(str(delt)):
                exact_first_m = m
        assert exact_first_m is not None, f"no m <= 4 passes; rates {rates}"
        params = LearnParams(epsilon=eps, gamma=gam, delta=delt, i_max=50)
        got = estimate_min_m(TrialCache(rho, dist, (1,)), params)
        assert got == exact_first_m
        assert got <= 4
        # the exact rates must sit away from the threshold for the MC
        # agreement above to be meaningful rather than a coin flip
        assert all(abs(r - Fraction(1, 5)) > Fraction(1, 20) for r in rates[: got])

    def test_loose_gamma_gives_one(self):
        rho = ghz_density(2)
        dist = build_distribution(2, "d1")
        for gamma in (0.5, 0.6):
            params = LearnParams(epsilon=0.15, gamma=gamma, delta=0.2, i_max=20)
            assert estimate_min_m(TrialCache(rho, dist, (2,)), params) == 1

    def test_vacuous_epsilon_gives_one(self):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        params = LearnParams(epsilon=1.0, gamma=0.1, delta=0.9, i_max=10)
        assert estimate_min_m(TrialCache(rho, dist, (3,)), params) == 1

    def test_full_support_always_reachable(self):
        # without replacement, m = |support| reproduces the state exactly
        for n in (2, 3, 4):
            rho = ghz_density(n)
            dist = build_distribution(n, "d1")
            params = LearnParams(
                epsilon=0.05, gamma=0.1, delta=0.1, i_max=10, m_cap=len(dist)
            )
            got = estimate_min_m(TrialCache(rho, dist, (4, n), replacement=False), params)
            assert got <= len(dist)

    def test_cap_error_carries_trajectory(self):
        rho = ghz_density(2)
        dist = build_distribution(2, "d1")
        params = LearnParams(
            epsilon=0.01, gamma=0.01, delta=0.01, i_max=5, m_cap=3
        )
        noise = NoiseModel.gaussian(0.4)
        with pytest.raises(SampleSizeCapError) as err:
            estimate_min_m(TrialCache(rho, dist, (5,), noise=noise), params)
        assert err.value.m_cap == 3
        assert len(err.value.delta_trajectory) == 3

    def test_stopping_rule_is_exact(self):
        """failures/i_max == delta must NOT stop (strict <), even where
        binary floats would blur the comparison (0.2 * 5 != 1 exactly)."""

        class StubCache:
            def __init__(self):
                self.calls = []

            def fill(self, m, count):
                pass

            def epsilon_estimate(self, m, i, gamma):
                self.calls.append((m, i))
                if m == 1:
                    # exactly 1 failure out of 5: delta_est == 0.2 == delta
                    return Fraction(1, 1) if i == 0 else Fraction(0, 1)
                return Fraction(0, 1)

        params = LearnParams(epsilon=0.5, gamma=0.3, delta=0.2, i_max=5)
        got = estimate_min_m(StubCache(), params)
        assert got == 2  # m=1 ties delta exactly and must be rejected

    def test_monotone_under_relaxation_with_shared_cache(self):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        cache = TrialCache(rho, dist, seed=(7,), k_max=300)

        def m_for(**kw):
            base = dict(epsilon=0.05, gamma=0.1, delta=0.1, i_max=30)
            base.update(kw)
            return estimate_min_m(cache, LearnParams(**base))

        for name, grid in (
            ("epsilon", [0.05, 0.1, 0.2, 0.5]),
            ("gamma", [0.1, 0.2, 0.4, 0.6]),
            ("delta", [0.1, 0.2, 0.4, 0.9]),
        ):
            ms = [m_for(**{name: v}) for v in grid]
            assert ms == sorted(ms, reverse=True), f"{name} sweep not monotone: {ms}"

    def test_trial_records_emitted(self):
        rho = ghz_density(2)
        dist = build_distribution(2, "d1")
        params = LearnParams(epsilon=0.15, gamma=0.2, delta=0.2, i_max=5)
        rows = []
        estimate_min_m(
            TrialCache(rho, dist, (8,)), params,
            record=lambda m, i, eps, failed: rows.append((m, i, eps, failed)),
        )
        ms = {m for m, *_ in rows}
        assert all(len({i for m2, i, *_ in rows if m2 == m}) == 5 for m in ms)
        assert all(0.0 <= eps <= 1.0 for _, _, eps, _ in rows)


class TestBatchFill:
    """``TrialCache.fill`` stores, for every trial, the bytes of the
    residuals that learning that trial alone gives."""

    I_MAX = 7  # three chunks of 3 trials, the last one short

    @pytest.fixture
    def optimizations(self, monkeypatch):
        monkeypatch.setattr(complexity, "_FILL_CHUNK_ENTRIES", 3 * 8 * 8)
        calls = []
        real = complexity.hazan_optimize

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(complexity, "hazan_optimize", counted)
        return calls

    @staticmethod
    def _alone(rho, dist, m, seed, k_max, noise, replacement):
        training = sample_training_set(dist, rho, m, noise=noise, seed=seed,
                                       replacement=replacement)
        hyp = hazan_optimize(Objective(training), k_max=k_max)
        return support_residuals(hyp.sigma, rho, dist)

    @pytest.mark.parametrize("replacement", [True, False])
    @pytest.mark.parametrize("label", ["d1", "d2"])
    @pytest.mark.parametrize("noise", [
        NoiseModel.exact(), NoiseModel.with_shots(20), NoiseModel.gaussian(0.05),
    ])
    def test_same_bytes_as_lone_trials(self, noise, label, replacement, optimizations):
        # exact GHZ values are all 1, so shot noise needs the mixed target
        rho = maximally_mixed(3) if noise.kind == "shots" else ghz_density(3)
        dist = build_distribution(3, label)
        cache = TrialCache(rho, dist, seed=(5,), k_max=10, noise=noise,
                           replacement=replacement)
        sizes = (1, 2, 4)  # d2 at n = 3 has 4 effects to draw without replacement
        for m in sizes:
            cache.fill(m, self.I_MAX)
        assert len(optimizations) == len(sizes) * self.I_MAX
        for m in sizes:
            for i in range(self.I_MAX):
                want = self._alone(rho, dist, m, (5, m, i), 10, noise, replacement)
                got = cache.residuals(m, i)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the lookups above were all answered by the fill, and a lookup
        # of a trial no fill reached learns nothing
        with pytest.raises(KeyError):
            cache.epsilon_estimate(1, self.I_MAX, 0.1)
        assert len(optimizations) == len(sizes) * self.I_MAX

    def test_each_first_gradient_solved_in_its_chunk(self, optimizations, monkeypatch):
        stacks = []
        real = complexity.smallest_eigenvectors

        def counted(hs, tol):
            stacks.append([h.tobytes() for h in hs])
            return real(hs, tol=tol)

        monkeypatch.setattr(complexity, "smallest_eigenvectors", counted)
        # set-based d2 draws at n = 3 pick among 4 effects, so subsets repeat
        rho, dist = ghz_density(3), build_distribution(3, "d2")
        cache = TrialCache(rho, dist, seed=(5,), k_max=1, replacement=False)
        mixed = maximally_mixed(3).matrix
        for m in (1, 2, 3):
            stacks.clear()
            cache.fill(m, self.I_MAX)
            firsts = [
                Objective(sample_training_set(dist, rho, m, seed=(5, m, i),
                                              replacement=False)).gradient(mixed).tobytes()
                for i in range(self.I_MAX)
            ]
            assert stacks == [firsts[lo:lo + 3] for lo in range(0, self.I_MAX, 3)]

    @pytest.mark.parametrize("target,noise", [
        ("ghz", NoiseModel.exact()),
        ("ghz", NoiseModel.gaussian(0.05)),
        ("mixed", NoiseModel.exact()),  # zero first gradients
    ])
    def test_gradient_builds_match_lone_trials(self, target, noise, optimizations,
                                               monkeypatch):
        builds = []
        real = Objective.gradient

        def counted(obj, sigma):
            builds.append(None)
            return real(obj, sigma)

        monkeypatch.setattr(Objective, "gradient", counted)
        rho = ghz_density(3) if target == "ghz" else maximally_mixed(3)
        dist = build_distribution(3, "d1")
        sizes = (1, 2, 4)
        for m in sizes:
            for i in range(self.I_MAX):
                self._alone(rho, dist, m, (5, m, i), 10, noise, True)
        lone = len(builds)
        builds.clear()
        cache = TrialCache(rho, dist, seed=(5,), k_max=10, noise=noise)
        for m in sizes:
            cache.fill(m, self.I_MAX)
        assert len(builds) == lone

    def test_cache_shared_across_gamma_grid(self, optimizations):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        cache = TrialCache(rho, dist, seed=(7,), k_max=300)
        found = [
            estimate_min_m(cache, LearnParams(epsilon=0.05, gamma=g, delta=0.1, i_max=self.I_MAX))
            for g in (0.1, 0.3, 0.6)
        ]
        top = max(found)
        # each trial is learned once, by the first search that reaches its m
        assert len(optimizations) == top * self.I_MAX
        for m in range(1, top + 1):
            for i in range(self.I_MAX):
                want = self._alone(rho, dist, m, (7, m, i), 300, NoiseModel.exact(), True)
                assert cache.residuals(m, i).tobytes() == want.tobytes()
        assert len(optimizations) == top * self.I_MAX


class TestTheoremBound:
    def params(self, eps=0.15, gam=0.2, delt=0.2):
        return LearnParams(epsilon=eps, gamma=gam, delta=delt)

    def test_affine_in_n(self):
        p = self.params()
        b = lambda n: theorem_bound(n, p, 2.5)
        assert b(4) - b(2) == pytest.approx(b(6) - b(4), rel=1e-12)

    def test_proportional_in_k(self):
        p = self.params()
        assert theorem_bound(3, p, 2.0) == pytest.approx(2 * theorem_bound(3, p, 1.0), rel=1e-12)

    def test_log_term_vanishes(self):
        p = self.params(eps=1.0, gam=1.0, delt=0.25)
        assert theorem_bound(5, p, 3.0) == pytest.approx(3.0 * math.log(4.0), rel=1e-12)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            theorem_bound(3, self.params(), -1.0)


class TestLinearFit:
    def test_recovers_exact_line(self):
        pts = [(n, 1.19 * n - 0.34) for n in range(2, 7)]
        slope, intercept, r2 = linear_fit(pts)
        assert slope == pytest.approx(1.19, abs=1e-9)
        assert intercept == pytest.approx(-0.34, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        extrap = slope * 20 + intercept
        assert extrap == pytest.approx(23.46, abs=1e-9)
        assert round(extrap) == 23

    def test_constant_points(self):
        slope, intercept, r2 = linear_fit([(2, 5.0), (3, 5.0), (4, 5.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(5.0, abs=1e-12)
        assert r2 == 1.0

    def test_groups_means_per_n(self):
        slope, intercept, _ = linear_fit([(2, 1.0), (2, 3.0), (4, 5.0)])
        # means: (2, 2.0), (4, 5.0)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert intercept == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([(2, 1.0), (2, 2.0)])
