"""Minimum-m search against exhaustive enumeration, the reference
bound, and the linear fit."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    DensityMatrix,
    LearnParams,
    NoiseModel,
    Objective,
    SampleSizeCapError,
    TrialCache,
    build_distribution,
    estimate_min_m,
    fill_trials,
    ghz_density,
    ghz_generators,
    hazan_optimize,
    linear_fit,
    maximally_mixed,
    sample_training_set,
    support_residuals,
    theorem_bound,
)
from qpac import PauliString, complexity, distribution_from_generators, learner, sampling
from qpac.experiments import ExperimentConfig, run_command
from qpac.repro import load_manifest
from qpac.sampling import draw_training_sets

from conftest import random_density


# every delta a manifest scenario searches with
_MANIFEST_DELTAS = sorted({value for entry in load_manifest().values()
                           for value in [entry["config"].get("delta")]
                           + (entry["config"]["sweep_values"]
                              if entry["config"].get("sweep_param") == "delta" else [])
                           if value is not None})


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
            TrialCache(rho, dist, k_max=0)


class TestEstimateMinM:
    def exhaustive_failure_rate(self, m, dist, rho, gamma, epsilon):
        """Exact failure probability over all |support|^m equally likely
        training sequences (sampling with replacement)."""
        failures = 0
        sequences = list(product(range(len(dist)), repeat=m))
        for seq in sequences:
            hyp = hazan_optimize(Objective(dist.batch, np.array(seq), np.ones(m)), k_max=300)
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
        [got] = estimate_min_m(TrialCache(rho, dist), params, [(1,)])
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
            assert estimate_min_m(TrialCache(rho, dist), params, [(2,)]) == [1]

    def test_vacuous_epsilon_gives_one(self):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        params = LearnParams(epsilon=1.0, gamma=0.1, delta=0.9, i_max=10)
        assert estimate_min_m(TrialCache(rho, dist), params, [(3,)]) == [1]

    def test_full_support_always_reachable(self):
        # without replacement, m = |support| reproduces the state exactly
        for n in (2, 3, 4):
            rho = ghz_density(n)
            dist = build_distribution(n, "d1")
            params = LearnParams(
                epsilon=0.05, gamma=0.1, delta=0.1, i_max=10, m_cap=len(dist)
            )
            [got] = estimate_min_m(TrialCache(rho, dist, replacement=False), params, [(4, n)])
            assert got <= len(dist)

    def test_cap_error_carries_trajectory(self):
        rho = ghz_density(2)
        dist = build_distribution(2, "d1")
        params = LearnParams(
            epsilon=0.01, gamma=0.01, delta=0.01, i_max=5, m_cap=3
        )
        noise = NoiseModel.gaussian(0.4)
        with pytest.raises(SampleSizeCapError) as err:
            estimate_min_m(TrialCache(rho, dist, noise=noise), params, [(5,)])
        assert err.value.m_cap == 3
        assert len(err.value.delta_trajectory) == 3

    def test_stopping_rule_is_exact(self):
        """failures/i_max == delta must NOT stop (strict <), even where
        binary floats would blur the comparison (0.2 * 5 != 1 exactly)."""

        class StubCache(TrialCache):
            """Fills real trials, but reads fixed error counts."""

            def __init__(self):
                super().__init__(ghz_density(2), build_distribution(2, "d1"), k_max=1)
                self.calls = []

            def error_counts(self, root, m, count, gamma):
                self.calls.append((m, count))
                counts = np.zeros(count, dtype=np.int64)
                if m == 1:
                    # exactly 1 failure out of 5: delta_est == 0.2 == delta
                    counts[0] = len(self.dist)
                return counts

        params = LearnParams(epsilon=0.5, gamma=0.3, delta=0.2, i_max=5)
        cache = StubCache()
        got = estimate_min_m(cache, params, [(1,)])
        assert got == [2]  # m=1 ties delta exactly and must be rejected
        assert cache.calls == [(1, 5), (2, 5)]

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.15, 0.2, 0.25, 1 / 3, 0.5, 0.9, 1.0])
    def test_error_counts_decide_as_fractions(self, epsilon, monkeypatch):
        # every count up to the support size: a trial fails exactly where
        # the Fraction comparison fails it, and its error rate is float
        # of the Fraction
        class EveryCount(TrialCache):
            def error_counts(self, root, m, count, gamma):
                return np.arange(count)

        monkeypatch.setattr(complexity, "fill_trials", lambda *args: None)
        eps = Fraction(str(epsilon))
        for n, label in product(range(2, 9), ("d1", "d2")):
            dist = build_distribution(n, label)
            size = len(dist)
            rows = []
            # a count of 0 never fails, so delta 1 stops the search at m = 1
            params = LearnParams(epsilon=epsilon, gamma=0.5, delta=1.0, i_max=size + 1)
            found = estimate_min_m(EveryCount(ghz_density(n), dist), params, [(0,)],
                                   record=lambda *row: rows.append(row))
            assert found == [1]
            [(_, _, rates, failed)] = rows
            assert rates.tolist() == [float(Fraction(c, size)) for c in range(size + 1)]
            assert failed.tolist() == [Fraction(c, size) > eps for c in range(size + 1)]

    @pytest.mark.parametrize("delta", _MANIFEST_DELTAS)
    def test_delta_rule_decides_as_fractions(self, delta, monkeypatch):
        # every failure count f <= i_max <= 200: a (root, m) passes
        # exactly where Fraction(f, i_max) < delta, and the trajectory
        # holds float of that Fraction
        class Failures(TrialCache):
            # root (f, top): f failing trials at m = 1, then top - m + 1
            def error_counts(self, root, m, count, gamma):
                counts = np.zeros(count, dtype=np.intp)
                counts[:root[0] if m == 1 else root[1] - m + 1] = len(self.dist)
                return counts

        monkeypatch.setattr(complexity, "fill_trials", lambda *args: None)
        cache = Failures(ghz_density(2), build_distribution(2, "d1"))
        exact = Fraction(str(delta))
        for i_max in range(1, 201):
            rates = [Fraction(f, i_max) for f in range(i_max + 1)]
            # each root holds its count at m = 1 and passes at m = 2
            params = LearnParams(epsilon=0.5, gamma=0.5, delta=delta, i_max=i_max, m_cap=2)
            found = estimate_min_m(cache, params, [(f, 1) for f in range(i_max + 1)])
            assert found == [1 if rate < exact else 2 for rate in rates]
            # counting down from i_max failures, the cap falls just before
            # the first passing count, so the trajectory is every failing one
            passing = max(f for f, rate in enumerate(rates) if rate < exact)
            params = LearnParams(epsilon=0.5, gamma=0.5, delta=delta, i_max=i_max,
                                 m_cap=i_max - passing)
            with pytest.raises(SampleSizeCapError) as err:
                estimate_min_m(cache, params, [(i_max, i_max)])
            assert err.value.delta_trajectory == [float(r) for r in rates[:passing:-1]]
            assert [f / i_max for f in range(i_max + 1)] == [float(r) for r in rates]

    def test_monotone_under_relaxation_with_shared_cache(self):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        cache = TrialCache(rho, dist, k_max=300)

        def m_for(**kw):
            base = dict(epsilon=0.05, gamma=0.1, delta=0.1, i_max=30)
            base.update(kw)
            [m] = estimate_min_m(cache, LearnParams(**base), [(7,)])
            return m

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
        cache = TrialCache(rho, dist)
        estimate_min_m(cache, params, [(8,)], record=lambda *row: rows.append(row))
        assert {root for root, *_ in rows} == {(8,)}
        # one call per m read, in order, with the arrays of its 5 trials
        assert [m for _, m, _, _ in rows] == list(range(1, len(rows) + 1))
        for root, m, eps, failed in rows:
            assert eps.shape == failed.shape == (5,)
            want = [cache.epsilon_estimate((*root, m, i), 0.2) for i in range(5)]
            assert eps.tolist() == [float(e) for e in want]
            assert failed.tolist() == [e > Fraction("0.15") for e in want]


class TestBatchFill:
    """``fill_trials`` stores, for every trial, the bytes of the
    residuals that learning that trial alone gives."""

    I_MAX = 7  # three chunks of 3 trials, the last one short

    @pytest.fixture
    def optimizations(self, monkeypatch):
        monkeypatch.setattr(learner, "_STACK_ENTRIES", 3 * 8 * 8)
        calls = []
        real = learner.hazan_optimize

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(learner, "hazan_optimize", counted)
        return calls

    @staticmethod
    def _alone(rho, dist, m, seed, k_max, noise, replacement):
        training = sample_training_set(dist, rho, m, noise=noise, seed=seed,
                                       replacement=replacement)
        hyp = hazan_optimize(Objective(dist.batch, *training), k_max=k_max)
        return support_residuals(hyp.sigma, rho, dist)

    @staticmethod
    def _by_rule(rho, dist, m, seed, replacement):
        idx, vals = sample_training_set(dist, rho, m, seed=seed, replacement=replacement)
        [vertex] = learner.code_space_atoms(dist.batch, idx[None], vals[None])
        assert vertex is not None  # every GHZ d2 string has sign +1
        return support_residuals(DensityMatrix(vertex.matrix()), rho, dist)

    @pytest.mark.parametrize("replacement", [True, False])
    @pytest.mark.parametrize("label", ["d1", "d2"])
    @pytest.mark.parametrize("noise", [
        NoiseModel.exact(), NoiseModel.with_shots(20), NoiseModel.gaussian(0.05),
    ])
    def test_same_bytes_as_lone_trials(self, noise, label, replacement, optimizations):
        # exact GHZ values are all 1, so shot noise needs the mixed target
        rho = maximally_mixed(3) if noise.kind == "shots" else ghz_density(3)
        dist = build_distribution(3, label)
        cache = TrialCache(rho, dist, k_max=10, noise=noise, replacement=replacement)
        sizes = (1, 2, 4)  # d2 at n = 3 has 4 effects to draw without replacement
        for m in sizes:
            fill_trials(cache, [(5,)], m, self.I_MAX)
        assert len(optimizations) == len(sizes) * self.I_MAX
        for m in sizes:
            for i in range(self.I_MAX):
                got = cache.residuals((5, m, i))
                if noise.kind == "exact" and label == "d2":
                    # exact Y-free trials stop on the closed-form first step
                    want = self._by_rule(rho, dist, m, (5, m, i), replacement)
                    assert set(got.tolist()) <= {0.0, 0.5, 1.0}
                else:
                    want = self._alone(rho, dist, m, (5, m, i), 10, noise, replacement)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the lookups above were all answered by the fill, and a lookup
        # of a trial no fill reached learns nothing
        with pytest.raises(KeyError):
            cache.epsilon_estimate((5, 1, self.I_MAX), 0.1)
        assert len(optimizations) == len(sizes) * self.I_MAX

    def test_each_first_gradient_solved_in_its_chunk(self, optimizations, monkeypatch):
        stacks = []
        real = learner._smallest_built

        def counted(hs, tol):
            stacks.append([h.tobytes() for h in hs])
            return real(hs, tol=tol)

        monkeypatch.setattr(learner, "_smallest_built", counted)
        # set-based d1 draws at n = 3 pick among 7 effects
        rho, dist = ghz_density(3), build_distribution(3, "d1")
        cache = TrialCache(rho, dist, k_max=1, replacement=False)
        mixed = maximally_mixed(3).matrix
        for m in (1, 2, 3):
            stacks.clear()
            fill_trials(cache, [(5,)], m, self.I_MAX)
            firsts = []
            for i in range(self.I_MAX):
                training = sample_training_set(dist, rho, m, seed=(5, m, i), replacement=False)
                obj = Objective(dist.batch, *training)
                firsts.append(obj.gradient(obj.residuals(mixed)).tobytes())
            assert stacks == [firsts[lo:lo + 3] for lo in range(0, self.I_MAX, 3)]

    @pytest.mark.parametrize("replacement", [True, False])
    def test_exact_d2_steps_once_without_an_eigen_step(self, replacement, monkeypatch):
        steps = []
        real = learner.hazan_optimize

        def counted(*args, **kwargs):
            hyp = real(*args, **kwargs)
            steps.append(hyp.iterations_used)
            return hyp

        monkeypatch.setattr(learner, "hazan_optimize", counted)
        eigen_steps = []
        # an empty stack solves nothing; the learner's first and later
        # steps share this entry
        monkeypatch.setattr(learner, "_smallest_built",
                            lambda hs, **k: eigen_steps.extend(hs) or [])
        cache = TrialCache(ghz_density(4), build_distribution(4, "d2"), replacement=replacement)
        for m in (1, 3, 8):
            fill_trials(cache, [(3,)], m, self.I_MAX)
        assert steps == [1] * (3 * self.I_MAX)
        assert eigen_steps == []

    def test_orthogonal_uniform_vector_takes_the_eigen_step(self):
        # the d2 support of this target holds -XXX, and (I - XXX)/2 |+++> = 0
        gens = [PauliString.from_text(t) for t in ("-XXX", "ZZI", "IZZ")]
        dist = distribution_from_generators(gens, "d2")
        rho = ExperimentConfig(n=3, m=1, generators=[str(p) for p in gens]).target_state(3)
        cache = TrialCache(rho, dist, k_max=10, replacement=False)
        fill_trials(cache, [(5,)], 2, self.I_MAX)
        fell_back = 0
        for i in range(self.I_MAX):
            idx, vals = sample_training_set(dist, rho, 2, seed=(5, 2, i), replacement=False)
            if gens[0] not in [dist.effects[j] for j in idx.tolist()]:
                continue
            fell_back += 1
            assert learner.code_space_atoms(dist.batch, idx[None], vals[None])[0] is None
            want = self._alone(rho, dist, 2, (5, 2, i), 10, NoiseModel.exact(), False)
            assert cache.residuals((5, 2, i)).tobytes() == want.tobytes()
        assert fell_back > 0

    @pytest.mark.parametrize("target,noise", [
        ("ghz", NoiseModel.exact()),
        ("ghz", NoiseModel.gaussian(0.05)),
        ("mixed", NoiseModel.exact()),  # zero first gradients
    ])
    def test_gradient_builds_match_lone_trials(self, target, noise, optimizations,
                                               monkeypatch):
        builds = []
        real = Objective.gradient

        def counted(obj, residuals):
            # one built gradient per residual row: a chunk's (T, m)
            # residuals build T in one call
            builds.extend([None] * len(np.atleast_2d(residuals)))
            return real(obj, residuals)

        monkeypatch.setattr(Objective, "gradient", counted)
        rho = ghz_density(3) if target == "ghz" else maximally_mixed(3)
        dist = build_distribution(3, "d1")
        sizes = (1, 2, 4)
        for m in sizes:
            for i in range(self.I_MAX):
                self._alone(rho, dist, m, (5, m, i), 10, noise, True)
        lone = len(builds)
        builds.clear()
        cache = TrialCache(rho, dist, k_max=10, noise=noise)
        for m in sizes:
            fill_trials(cache, [(5,)], m, self.I_MAX)
        # exact values of the mixed target leave residuals of exactly 0 at
        # I / d: neither the fill nor a lone optimization builds a gradient
        assert len(builds) == lone
        if target == "mixed":
            assert lone == 0

    def test_cache_shared_across_gamma_grid(self, optimizations):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        cache = TrialCache(rho, dist, k_max=300)
        found = [
            estimate_min_m(cache, LearnParams(epsilon=0.05, gamma=g, delta=0.1, i_max=self.I_MAX),
                           [(7,)])[0]
            for g in (0.1, 0.3, 0.6)
        ]
        top = max(found)
        # each trial is learned once, by the first search that reaches its m
        assert len(optimizations) == top * self.I_MAX
        for m in range(1, top + 1):
            for i in range(self.I_MAX):
                want = self._alone(rho, dist, m, (7, m, i), 300, NoiseModel.exact(), True)
                assert cache.residuals((7, m, i)).tobytes() == want.tobytes()
        assert len(optimizations) == top * self.I_MAX


class TestSupportIndexedTrials:
    """A ``TrialCache`` samples through its support's tables; every
    trial it fills learns the training set that ``draw_training_sets``
    draws alone with the trial's seed."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fill_learns_the_sampled_training_sets(self, data):
        # a stabilizer target's exact values are all 1; a random state's
        # differ from effect to effect
        target = data.draw(st.sampled_from(["ghz3", "ghz4", "cluster3", "random3"]))
        label = data.draw(st.sampled_from(["d1", "d2"]))
        replacement = data.draw(st.booleans())
        noise = data.draw(st.one_of(
            st.just(NoiseModel.exact()),
            st.integers(1, 30).map(NoiseModel.with_shots),
            st.floats(0.01, 0.3).map(NoiseModel.gaussian),
        ))
        if target == "cluster3":
            config = ExperimentConfig(n=3, m=1, dist=label, generators=["XZI", "ZXZ", "IZX"])
            rho, dist = config.target_state(3), config.distribution(3)
        elif target == "random3":
            rng = np.random.default_rng(data.draw(st.integers(0, 99)))
            rho, dist = DensityMatrix(random_density(rng, 8)), build_distribution(3, label)
        else:
            n = int(target[-1])
            rho, dist = ghz_density(n), build_distribution(n, label)
        m_top = len(dist) if not replacement else len(dist) + 2
        m = data.draw(st.integers(1, min(m_top, 6)))
        count = data.draw(st.integers(1, 4))
        root = (data.draw(st.integers(0, 99)),)
        cache = TrialCache(rho, dist, k_max=3, noise=noise, replacement=replacement)
        fill_trials(cache, [root], m, count)
        for i in range(count):
            seed = (*root, m, i)
            indices, values = draw_training_sets(dist, rho, m, [seed], noise, replacement)
            [hyp] = learner.learn_each(dist, indices, values, noise, 3)
            alone = support_residuals(hyp.sigma, rho, dist)
            assert cache.residuals(seed).tobytes() == alone.tobytes()

    def test_one_support_batch_per_support(self, monkeypatch):
        builds = []
        real = learner.EffectBatch.__init__

        def counted(batch, effects):
            builds.append(len(effects))
            real(batch, effects)

        monkeypatch.setattr(learner.EffectBatch, "__init__", counted)
        # a support not built before in this process, so its batch is not either
        sampling._generator_distribution.cache_clear()
        dist = distribution_from_generators(ghz_generators(3))
        rho = ghz_density(3)
        caches = [TrialCache(rho, dist, k_max=5) for _ in range(4)]
        for r, cache in enumerate(caches):
            fill_trials(cache, [(r,)], 3, 4)
        sample_training_set(dist, rho, 3, seed=0)
        list(learner.learn_each(dist, *draw_training_sets(dist, rho, 3, [0, 1, 2]),
                                NoiseModel.exact(), 5))
        support_residuals(maximally_mixed(3), rho, dist)
        # every trial objective is a row slice of the one support batch
        assert builds == [len(dist)]
        assert dist.batch is caches[0].dist.batch
        assert build_distribution(3, "d1") is build_distribution(3, "d1")
        assert build_distribution(3, "d1").batch is build_distribution(3, "d1").batch


def _lone_search(cache, params, root):
    """The minimum m of a search of ``root`` alone on ``cache`` (or its
    cap error), with the calls it makes to ``record``."""
    rows = []
    try:
        [found] = estimate_min_m(cache, params, [root], record=lambda *row: rows.append(row))
    except SampleSizeCapError as exc:
        found = exc
    return found, rows


class TestSearchGroups:
    """Several roots searched in one cache, in lock-step, each get what
    a lone-root search gives them: the minimum m, the residual bytes of
    every trial read, and the same ``record`` calls in the same order."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_group_matches_lone_searches(self, data):
        n = data.draw(st.integers(2, 3))
        label = data.draw(st.sampled_from(["d1", "d2"]))
        replacement = data.draw(st.booleans())
        noise = data.draw(st.one_of(
            st.just(NoiseModel.exact()),
            st.integers(1, 30).map(NoiseModel.with_shots),
            st.floats(0.01, 0.3).map(NoiseModel.gaussian),
        ))
        # exact GHZ values are all 1, so shot noise needs the mixed target
        rho = maximally_mixed(n) if noise.kind == "shots" else ghz_density(n)
        dist = build_distribution(n, label)
        params = LearnParams(
            epsilon=data.draw(st.sampled_from([0.05, 0.15, 0.3])),
            gamma=data.draw(st.sampled_from([0.1, 0.2, 0.5])),
            delta=data.draw(st.sampled_from([0.1, 0.3, 0.5])),
            i_max=data.draw(st.integers(1, 5)), m_cap=data.draw(st.integers(1, 6)),
        )
        seed = data.draw(st.integers(0, 99))
        roots = [(seed, r) for r in range(data.draw(st.integers(1, 4)))]

        def cache():
            return TrialCache(rho, dist, k_max=3, noise=noise, replacement=replacement)

        lone = [cache() for _ in roots]
        want = [_lone_search(alone, params, root) for alone, root in zip(lone, roots)]
        group = cache()
        rows = []
        record = lambda *row: rows.append(row)
        failed = [found for found, _ in want if isinstance(found, SampleSizeCapError)]
        if failed:
            with pytest.raises(SampleSizeCapError) as err:
                estimate_min_m(group, params, roots, record=record)
            # the first failing root in order is reported
            assert str(err.value) == str(failed[0])
        else:
            assert estimate_min_m(group, params, roots, record=record) == [m for m, _ in want]
        for root, alone, (_, want_rows) in zip(roots, lone, want):
            got = [row for row in rows if row[0] == root]
            assert [(m, eps.tobytes(), failed.tobytes()) for _, m, eps, failed in got] == [
                (m, eps.tobytes(), failed.tobytes()) for _, m, eps, failed in want_rows]
            for _, m, eps, _ in want_rows:
                for i in range(len(eps)):
                    trial = (*root, m, i)
                    assert group.residuals(trial).tobytes() == alone.residuals(trial).tobytes()

    def test_repeats_stop_at_different_m(self, monkeypatch):
        fills = []
        real = complexity.learn_each

        def counted(support, indices, *args):
            fills.append(len(indices))
            return real(support, indices, *args)

        monkeypatch.setattr(complexity, "learn_each", counted)
        rho, dist = ghz_density(3), build_distribution(3, "d1")
        params = LearnParams(epsilon=0.05, gamma=0.5, delta=0.1, i_max=6)
        roots = [(17, r) for r in range(2)]
        found = estimate_min_m(TrialCache(rho, dist), params, roots)
        # the pinned sweep_errors_n3 row at gamma 0.5: repeats stop at 1 and 2
        assert sorted(found) == [1, 2]
        # one fill per m, of every root still searching
        assert fills == [12, 6]
        assert found == [_lone_search(TrialCache(rho, dist), params, root)[0] for root in roots]

    def test_fill_skips_cached_trials(self, monkeypatch):
        fills = []
        real = complexity.learn_each
        monkeypatch.setattr(complexity, "learn_each",
                            lambda support, indices, *args:
                            fills.append(len(indices)) or real(support, indices, *args))
        rho, dist = ghz_density(2), build_distribution(2, "d1")
        cache = TrialCache(rho, dist, k_max=5)
        fill_trials(cache, [(0,)], 2, 3)
        first = cache.residuals((0, 2, 0))
        fill_trials(cache, [(0,), (1,)], 2, 4)
        # root (0,)'s cached trials are not learned again
        assert cache.residuals((0, 2, 0)) is first
        assert fills == [3, 1 + 4]
        for root in ((0,), (1,)):
            alone = TrialCache(rho, dist, k_max=5)
            fill_trials(alone, [root], 2, 4)
            for i in range(4):
                seed = (*root, 2, i)
                assert cache.residuals(seed).tobytes() == alone.residuals(seed).tobytes()


class TestCapErrorOrder:
    """``sweep-errors`` searches its repeats in lock-step once per swept
    value, so the cap error it raises is that of the first failing
    search in (value, repeat) order."""

    # gamma 0.3 is searched first, then the stricter 0.1
    CONFIG = dict(command="sweep-errors", n=2, dist="d1", sweep_param="gamma",
                  sweep_values=[0.3, 0.1], epsilon=0.05, delta=0.2, i_max=5, m_cap=3,
                  gauss_std=0.1, k_max=20, repeats=2)

    def _lone(self, seed, r, gamma):
        cache = TrialCache(ghz_density(2), build_distribution(2, "d1"), k_max=20,
                           noise=NoiseModel.gaussian(0.1))
        params = LearnParams(epsilon=0.05, gamma=gamma, delta=0.2, i_max=5, m_cap=3)
        return _lone_search(cache, params, (seed, r))[0]

    def _raised(self, seed, tmp_path):
        with pytest.raises(SampleSizeCapError) as err:
            run_command(ExperimentConfig(**self.CONFIG, seed=seed, out=str(tmp_path / "t.csv")))
        assert not (tmp_path / "t.csv").exists()
        return err.value

    def test_only_repeat_1_hits_the_cap(self, tmp_path):
        # repeat 0 stops at m = 2 on both values; repeat 1 at m = 3 on
        # gamma 0.3 and at no m <= 3 on gamma 0.1
        assert [self._lone(29, 0, g) for g in (0.3, 0.1)] == [2, 2]
        assert self._lone(29, 1, 0.3) == 3
        want = self._lone(29, 1, 0.1)
        assert isinstance(want, SampleSizeCapError)
        got = self._raised(29, tmp_path)
        assert got.delta_trajectory == want.delta_trajectory and str(got) == str(want)

    def test_value_order_comes_before_repeat_order(self, tmp_path):
        # repeat 0 fails only on gamma 0.1, repeat 1 on both values: the
        # error is repeat 1's on gamma 0.3, not repeat 0's on gamma 0.1
        assert self._lone(45, 0, 0.3) == 2
        first, later = self._lone(45, 1, 0.3), self._lone(45, 0, 0.1)
        assert isinstance(first, SampleSizeCapError) and isinstance(later, SampleSizeCapError)
        assert first.delta_trajectory != later.delta_trajectory
        got = self._raised(45, tmp_path)
        assert got.delta_trajectory == first.delta_trajectory


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
