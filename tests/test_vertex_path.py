"""The array path of a one-step hypothesis: a learned vertex's step-1
residuals, support scores and lazily built sigma against the dense
matrix they stand for, byte for byte, and the residual bound that stops
a step before its gradient is built."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    DensityMatrix,
    LearnParams,
    NoiseModel,
    Objective,
    TrialCache,
    build_distribution,
    estimate_min_m,
    fill_trials,
    ghz_density,
    maximally_mixed,
    support_residuals,
)
from qpac import learner
from qpac.sampling import draw_training_sets
from qpac.states import EffectBatch

from conftest import random_density

NOISES = {
    "exact": NoiseModel.exact(),
    "gauss": NoiseModel.gaussian(0.05),
    "shots": NoiseModel.with_shots(20),
}

# a drawn chunk of training sets: n = 2..8 on either support, every
# noise model, both sampling modes, and m = 1 among the sizes
chunks = st.fixed_dictionaries(dict(
    n=st.integers(2, 8),
    label=st.sampled_from(["d1", "d2"]),
    noise=st.sampled_from(sorted(NOISES)),
    replacement=st.booleans(),
    m=st.one_of(st.just(1), st.integers(1, 12)),
    sets=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
))


def _target(n, noise):
    # exact GHZ values are all 1, so shots need a state whose values are not
    if noise != "shots":
        return ghz_density(n)
    return maximally_mixed(n) if n > 3 else DensityMatrix(
        random_density(np.random.default_rng(n), 1 << n))


def _draw(case):
    n, noise = case["n"], NOISES[case["noise"]]
    dist, rho = build_distribution(n, case["label"]), _target(n, case["noise"])
    m = case["m"] if case["replacement"] else min(case["m"], len(dist))
    seeds = [(case["seed"], t) for t in range(case["sets"])]
    indices, values = draw_training_sets(dist, rho, m, seeds, noise, case["replacement"])
    return dist, rho, noise, indices, values


def _handed_in(monkeypatch) -> list:
    """The (objective, vertex, step-1 residuals) that learn_each hands to
    each hazan_optimize call, in order."""
    calls = []
    real = learner.hazan_optimize

    def spy(obj, k_max=300, **kwargs):
        calls.append((obj, kwargs.get("first_vertex"), kwargs.get("first_residuals")))
        return real(obj, k_max=k_max, **kwargs)

    monkeypatch.setattr(learner, "hazan_optimize", spy)
    return calls


def _closed_form_atom(vertex):
    """The closed form's step-1 atom as a stacked d x d build makes it:
    w w^dag scaled by complex factors, then + 0.0."""
    w = vertex.v[None]
    outer = w[:, :, None] * w.conj()[:, None, :]
    outer *= np.array([vertex.scale]).astype(np.complex128)[:, None, None]
    return outer[0] + 0.0


class TestStepOneResiduals:
    @settings(max_examples=40, deadline=None)
    @given(case=chunks)
    def test_stacked_residuals_are_the_lone_sigmas(self, case):
        dist, _, noise, indices, values = _draw(case)
        with pytest.MonkeyPatch.context() as mp:
            calls = _handed_in(mp)
            hyps = list(learner.learn_each(dist, indices, values, noise, 1))
        assert len(calls) == len(hyps) == len(indices)
        for (obj, vertex, r), hyp in zip(calls, hyps):
            if vertex is None:
                # a zero-step run, at I / d
                assert r is None and hyp.iterations_used == 0
                continue
            want = obj.residuals(vertex.matrix())
            assert r.tobytes() == want.tobytes()
            assert obj.vertex_residuals(vertex).tobytes() == want.tobytes()
            assert hyp.vertex is vertex
            assert hyp.final_objective == float(np.dot(want, want))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_eigen_step_vertices_of_random_vectors(self, n):
        # unit vectors with every entry nonzero, on every row of a d1 support
        rng = np.random.default_rng(n)
        batch = build_distribution(n, "d1").batch
        v = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
        v /= np.linalg.norm(v, axis=1)[:, None]
        got = batch.vertex_expectations(v, np.ones(5))
        for t in range(5):
            want = batch.expectations(np.outer(v[t], v[t].conj()) + 0.0)
            assert got[t].tobytes() == want.tobytes()


class TestSupportScores:
    @settings(max_examples=40, deadline=None)
    @given(case=chunks)
    def test_stacked_scores_are_the_lone_scores(self, case):
        dist, rho, noise, indices, values = _draw(case)
        hyps = [h for h in learner.learn_each(dist, indices, values, noise, 1) if h.vertex]
        if not hyps:
            return
        found = learner.vertex_support_residuals([h.vertex for h in hyps], rho, dist)
        assert found.shape == (len(hyps), len(dist))
        for hyp, row in zip(hyps, found):
            want = support_residuals(hyp.sigma, rho, dist)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("label,noise", [("d2", "exact"), ("d1", "exact"), ("d1", "gauss")])
    def test_fill_scores_in_chunks(self, label, noise, monkeypatch):
        monkeypatch.setattr(learner, "_STACK_ENTRIES", 2 * 7 * 8)
        rho, dist = ghz_density(3), build_distribution(3, label)
        scored = []
        real = EffectBatch.vertex_expectations

        def spy(batch, v, scale, rows=None):
            if rows is None:
                scored.append(len(v))
            return real(batch, v, scale, rows)

        monkeypatch.setattr(EffectBatch, "vertex_expectations", spy)
        cache = TrialCache(rho, dist, k_max=1, noise=NOISES[noise])
        fill_trials(cache, [(3,)], 2, 5)
        # k_max = 1: every trial is one vertex, scored in chunks of
        # 2 * 7 * 8 product entries, 2 trials on d1 (7 effects), 3 on d2 (4)
        assert scored == ([2, 2, 1] if label == "d1" else [3, 2])
        indices, values = draw_training_sets(dist, rho, 2, [(3, 2, i) for i in range(5)],
                                             NOISES[noise])
        for i, hyp in enumerate(learner.learn_each(dist, indices, values, NOISES[noise], 1)):
            want = support_residuals(hyp.sigma, rho, dist)
            assert cache.residuals((3, 2, i)).tobytes() == want.tobytes()
            assert not cache.residuals((3, 2, i)).flags.writeable


class TestLazySigma:
    @settings(max_examples=40, deadline=None)
    @given(case=chunks)
    def test_built_sigma_has_the_bytes_of_step_one(self, case):
        dist, _, noise, indices, values = _draw(case)
        for hyp in learner.learn_each(dist, indices, values, noise, 1):
            if hyp.vertex is None:
                continue
            vertex = hyp.vertex
            # the eigen-step's atom np.outer(v, v^dag), or the closed form's
            # scaled stack, each + 0.0
            want = (np.outer(vertex.v, vertex.v.conj()) + 0.0 if vertex.scale == 1.0
                    else _closed_form_atom(vertex))
            assert hyp.sigma.matrix.tobytes() == want.tobytes()
            # built once
            assert hyp.sigma is hyp.sigma

    @pytest.mark.parametrize("label,noise", [("d1", "exact"), ("d1", "gauss"), ("d2", "gauss")])
    def test_same_sigma_as_a_run_without_a_vertex(self, label, noise):
        rho, dist = ghz_density(4), build_distribution(4, label)
        indices, values = draw_training_sets(dist, rho, 6, list(range(6)), NOISES[noise])
        hyps = learner.learn_each(dist, indices, values, NOISES[noise], 5)
        for idx, vals, hyp in zip(indices, values, hyps):
            want = learner.hazan_optimize(Objective(dist.batch, idx, vals), k_max=5)
            assert hyp.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()
            assert (hyp.iterations_used, hyp.final_objective) == (
                want.iterations_used, want.final_objective)


class TestNoMatrixForExactD2:
    @pytest.mark.parametrize("replacement", [True, False])
    def test_fill_builds_no_square_array(self, replacement, monkeypatch):
        def forbid(owner, name):
            def fail(*args, **kwargs):
                pytest.fail(f"{name} builds a d x d array")
            monkeypatch.setattr(owner, name, fail)

        rho, dist = ghz_density(5), build_distribution(5, "d2")
        # the target's tables are made before the fill
        dist.batch.expected(rho)
        forbid(np, "outer")
        forbid(learner.Vertex, "matrix")
        forbid(EffectBatch, "expectations")
        forbid(EffectBatch, "weighted_sum")
        forbid(learner, "maximally_mixed")
        forbid(DensityMatrix, "_built")
        cache = TrialCache(rho, dist, replacement=replacement)
        params = LearnParams(epsilon=0.15, gamma=0.2, delta=0.2, i_max=20)
        [found] = estimate_min_m(cache, params, [(0,)])
        assert found >= 1


class TestResidualBound:
    """4 sum |r_i| <= the zero threshold stops a step only where the
    built gradient vanishes too."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), label=st.sampled_from(["d1", "d2"]),
           m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e-12, 2.5e-13, 1e-13, 1e-15, 0.0]))
    def test_a_bounded_step_has_a_vanishing_gradient(self, n, label, m, seed, scale):
        rng = np.random.default_rng(seed)
        dist = build_distribution(n, label)
        idx = rng.integers(len(dist), size=m)
        obj = Objective(dist.batch, idx, np.zeros(m))
        r = rng.uniform(-1.0, 1.0, size=m)
        # scaled onto the threshold, and 1 ulp either side of it
        r *= scale / (4.0 * np.abs(r).sum()) if scale != 1.0 else 1.0
        for case in (r, np.nextafter(r, 0.0), np.nextafter(r, 2 * r)):
            if learner._stationary(case):
                assert learner._vanishes(obj.gradient(case))

    def test_all_zero_residuals_are_bounded(self):
        assert learner._stationary(np.zeros(5))
        assert learner._stationary(np.array([-0.0, 0.0]))
        assert not learner._stationary(np.array([1e-12, 0.0]))
        # one row per set
        rows = np.array([[0.0, 0.0], [2.5e-13, 0.0], [2.5e-13, 1e-20]])
        assert learner._stationary(rows).tolist() == [True, True, False]

    def test_step_two_builds_no_gradient_on_exact_d1(self, monkeypatch):
        # the eigen-step's vertex fits exact d1 data up to rounding: the
        # residuals at step 2 are not all 0, but bound the gradient
        rho, dist = ghz_density(4), build_distribution(4, "d1")
        indices, values = draw_training_sets(dist, rho, 8, list(range(10)))
        builds = []
        real = Objective.gradient
        # one built gradient per residual row: a chunk's (T, m) residuals
        # build T in one call
        monkeypatch.setattr(Objective, "gradient",
                            lambda obj, r: builds.extend(np.atleast_2d(r)) or real(obj, r))
        hyps = list(learner.learn_each(dist, indices, values, NoiseModel.exact(), 300))
        assert [h.iterations_used for h in hyps] == [1] * 10
        # one gradient per set, at I / d
        assert len(builds) == 10
        assert any(h.final_objective > 0.0 for h in hyps)
