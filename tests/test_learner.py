"""Objective, gradient, Frank-Wolfe loop, and the prediction-error
evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    DensityMatrix,
    NoiseModel,
    Objective,
    PauliString,
    build_distribution,
    distribution_from_generators,
    evaluate_epsilon,
    ghz_generators,
    group_closure,
    ghz_density,
    hazan_optimize,
    maximally_mixed,
    sample_training_set,
    support_residuals,
    fidelity,
)
from qpac import learner
from qpac.sampling import draw_training_sets

from conftest import (dense_first_step, fw_iterates, index_rows, kron_dense, objective,
                      pauli_action, random_density, record_vertices)
from test_acceptance import per_shot_outcomes, shot_objective_value


def P(text):
    return PauliString.from_text(text)


def full_support_objective(n, dist_label="d1"):
    """The objective of every support effect of GHZ_n, each drawn once."""
    dist = build_distribution(n, dist_label)
    rho = ghz_density(n)
    return Objective(dist.batch, *sample_training_set(dist, rho, len(dist), seed=0,
                                                      replacement=False)), dist, rho


class TestObjectiveValue:
    def test_zero_at_target(self):
        obj, _, rho = full_support_objective(3)
        assert obj.value(rho.matrix) == pytest.approx(0.0, abs=1e-20)

    def test_mixed_state_quarter_per_item(self):
        obj, dist, _ = full_support_objective(3)
        got = obj.value(maximally_mixed(3).matrix)
        assert got == pytest.approx(len(dist) / 4.0, abs=1e-12)

    def test_single_consistent_item(self):
        obj = objective(((P("ZZ"), 0.5),))
        assert obj.value(maximally_mixed(2).matrix) == pytest.approx(0.0, abs=1e-18)


class TestGradient:
    def test_zero_at_target(self):
        obj, _, rho = full_support_objective(3)
        g = obj.gradient(obj.residuals(rho.matrix))
        assert np.max(np.abs(g)) < 1e-12

    def test_single_item_at_mixed_is_minus_effect(self):
        eff = P("ZIZ")
        obj = objective(((eff, 1.0),))
        g = obj.gradient(obj.residuals(maximally_mixed(3).matrix))
        dense_e = (np.eye(8) + kron_dense(eff)) / 2
        assert np.allclose(g, -dense_e, atol=1e-12)

    def test_hermitian(self, rng):
        dist = build_distribution(3, "d1")
        obj = Objective(dist.batch, *sample_training_set(dist, ghz_density(3), 12, seed=8))
        g = obj.gradient(obj.residuals(DensityMatrix(random_density(rng, 8)).matrix))
        assert np.max(np.abs(g - g.conj().T)) < 1e-12

    def test_odd_y_effect_assembly(self, rng):
        # custom targets can carry odd-Y strings whose dense matrices
        # are complex; the assembly must not transpose them
        eff = P("XY")
        sigma = random_density(rng, 4)
        obj = objective(((eff, 0.9),))
        g = obj.gradient(obj.residuals(sigma))
        dense_e = (np.eye(4) + kron_dense(eff)) / 2
        w = 2 * (np.trace(dense_e @ sigma).real - 0.9)
        assert np.allclose(g, w * dense_e, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_central_differences(self, n):
        """f is quadratic, so central differences are exact up to
        rounding; the directional derivative must match to 1e-5
        relative."""
        rng = np.random.default_rng(100 + n)
        dist = build_distribution(n, "d1")
        rho = ghz_density(n)
        obj = Objective(dist.batch, *sample_training_set(
            dist, rho, 2 * n, noise=NoiseModel.gaussian(0.1), seed=(n, 1)
        ))
        dim = 2**n
        for _ in range(20):
            sigma = random_density(rng, dim)
            delta = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            delta = (delta + delta.conj().T) / 2
            delta = delta / np.trace(delta).real  # unit-trace direction
            step = 1e-6
            fd = (obj.value(sigma + step * delta) - obj.value(sigma - step * delta)) / (2 * step)
            analytic = float(np.real(np.trace(obj.gradient(obj.residuals(sigma)) @ delta)))
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-9)


class TestEffectBatchRows:
    """A training set drawn from a support reads its rows of the
    support's batch, ``expectations(sigma, rows)``; they are the bytes
    of a batch built fresh."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_a_fresh_batch(self, data):
        gens = data.draw(st.sampled_from(RULE_TARGETS))
        label = data.draw(st.sampled_from(["d1", "d2"]))
        dist = distribution_from_generators(gens, label)
        picks = data.draw(st.lists(st.integers(0, len(dist) - 1), min_size=1, max_size=10))
        # duplicates, as draws with replacement give them
        picks = picks + picks[: data.draw(st.integers(0, len(picks)))]
        batch = learner.EffectBatch(dist.effects)
        fresh = learner.EffectBatch([dist.effects[i] for i in picks])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sigma = random_density(rng, batch.dim)
        got = batch.expectations(sigma, np.array(picks))
        want = fresh.expectations(sigma)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_empty_selection(self):
        with pytest.raises(ValueError):
            learner.EffectBatch(())
        # no rows, no expectations
        batch = learner.EffectBatch(build_distribution(2, "d1").effects)
        got = batch.expectations(maximally_mixed(2).matrix, np.array([], dtype=np.int64))
        assert got.shape == (0,)

    def test_integer_array_selection(self, rng):
        # an index row of a drawn fill is an integer array; each row is
        # summed alone, so it has the bytes of the whole batch's row
        batch = learner.EffectBatch(build_distribution(3, "d1").effects)
        sigma = random_density(rng, 8)
        got = batch.expectations(sigma, np.array([4, 0, 4]))
        assert got.tobytes() == batch.expectations(sigma)[[4, 0, 4]].tobytes()


class TestHazanOptimize:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_support_exact(self, n):
        obj, dist, rho = full_support_objective(n)
        hyp = hazan_optimize(obj, k_max=300)
        assert hyp.final_objective <= 1e-3
        assert fidelity(hyp.sigma, rho) >= 0.99

    def test_single_item_one_iteration(self):
        eff = P("XX")
        hyp = hazan_optimize(objective(((eff, 1.0),)), k_max=1)
        sigma = hyp.sigma.matrix
        # first step replaces sigma entirely by the rank-1 projector
        assert hyp.sigma.purity() == pytest.approx(1.0, abs=1e-10)
        dense_e = (np.eye(4) + kron_dense(eff)) / 2
        assert np.trace(dense_e @ sigma).real == pytest.approx(1.0, abs=1e-9)
        assert hyp.final_objective == pytest.approx(0.0, abs=1e-15)

    def test_zero_gradient_stays_at_start(self):
        dist = build_distribution(2, "d1")
        items = tuple((e, 0.5) for e in dist.effects)
        hyp = hazan_optimize(objective(items), k_max=300)
        assert np.allclose(hyp.sigma.matrix, maximally_mixed(2).matrix, atol=1e-14)
        assert hyp.final_objective == pytest.approx(0.0, abs=1e-18)
        assert hyp.iterations_used == 0

    def test_iterate_invariants_under_noise(self, monkeypatch):
        # shot-sampled mixed-state values are genuinely noisy, so the
        # optimum is not reachable in a few steps and the loop runs
        dist = build_distribution(3, "d1")
        obj = Objective(dist.batch, *sample_training_set(
            dist, maximally_mixed(3), 10, noise=NoiseModel.with_shots(10), seed=11
        ))
        vertices = record_vertices(monkeypatch)
        hyp = hazan_optimize(obj, k_max=120)
        iterates = fw_iterates(vertices, hyp)
        assert len(iterates) >= 50
        assert max(abs(np.trace(s).real - 1.0) for s in iterates) <= 1e-12
        assert min(float(np.linalg.eigvalsh(s)[0]) for s in iterates) >= -1e-10
        assert hyp.iterations_used == len(iterates)

    def test_deterministic(self):
        dist = build_distribution(3, "d2")
        t = sample_training_set(dist, ghz_density(3), 6, seed=21)
        a = hazan_optimize(Objective(dist.batch, *t), k_max=80)
        b = hazan_optimize(Objective(dist.batch, *t), k_max=80)
        assert np.array_equal(a.sigma.matrix, b.sigma.matrix)
        assert a.final_objective == b.final_objective
        assert a.iterations_used == b.iterations_used

    def test_final_never_worse_than_start(self):
        dist = build_distribution(4, "d1")
        rho = ghz_density(4)
        for seed in range(5):
            obj = Objective(dist.batch, *sample_training_set(
                dist, rho, 8, noise=NoiseModel.gaussian(0.15), seed=seed))
            hyp = hazan_optimize(obj, k_max=60)
            assert hyp.final_objective <= obj.value(maximally_mixed(4).matrix) + 1e-12

    def test_early_stop_flag(self):
        obj, _, _ = full_support_objective(3)
        hyp = hazan_optimize(obj, k_max=300, stop_objective=1e-2)
        assert hyp.final_objective <= 1e-2
        assert hyp.iterations_used < 300

    def test_bad_kmax(self):
        obj, _, _ = full_support_objective(2)
        with pytest.raises(ValueError):
            hazan_optimize(obj, k_max=0)

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        builds = []
        real = Objective.gradient

        def counted(obj, *args, **kwargs):
            builds.append(None)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(Objective, "gradient", counted)
        monkeypatch.setattr(learner, "_smallest_built",
                            lambda *a, **k: pytest.fail("eigen-step on a zero gradient"))
        return builds

    def test_zero_residuals_at_start_build_no_gradient(self, monkeypatch):
        # exact values of I / d are 1/2, so every residual at I / d is 0
        dist = build_distribution(3, "d1")
        obj = Objective(dist.batch, *sample_training_set(dist, maximally_mixed(3), 6, seed=4))
        builds = self._count_builds(monkeypatch)
        hyp = hazan_optimize(obj, k_max=300)
        assert builds == []
        assert hyp.iterations_used == 0
        assert hyp.final_objective == 0.0
        assert hyp.sigma.matrix.tobytes() == maximally_mixed(3).matrix.tobytes()

    @pytest.mark.parametrize("replacement", [True, False])
    def test_zero_residuals_after_step_one_build_no_gradient(self, replacement, monkeypatch):
        # exact GHZ d2 data: the closed-form first vertex fits every value
        dist = build_distribution(4, "d2")
        builds = self._count_builds(monkeypatch)
        for seed in range(6):
            indices, values = draw_training_sets(dist, ghz_density(4), 5, [seed],
                                                 replacement=replacement)
            obj = Objective(dist.batch, indices[0], values[0])
            [vertex] = learner.code_space_atoms(dist.batch, indices, values)
            first = (vertex, obj.residuals(vertex.matrix()))
            hyp = hazan_optimize(obj, k_max=300, first=first)
            assert hyp.iterations_used == 1
            assert hyp.final_objective == 0.0
            # the run stops on residuals of 0 and keeps its vertex
            assert hyp.vertex is vertex
            assert hyp.sigma.matrix.tobytes() == vertex.matrix().tobytes()
        assert builds == []

    def test_final_objective_reuses_the_stopping_residuals(self):
        # sigma does not move after the stop, so recomputing agrees bit for bit
        dist = build_distribution(3, "d1")
        for noise, k_max in ((NoiseModel.exact(), 300), (NoiseModel.gaussian(0.05), 7)):
            obj = Objective(dist.batch, *sample_training_set(dist, ghz_density(3), 5,
                                                             noise=noise, seed=1))
            hyp = hazan_optimize(obj, k_max=k_max)
            assert hyp.final_objective == obj.value(hyp.sigma.matrix)


class TestFirstStep:
    """``hazan_optimize(obj, first=(vertex, residuals))`` takes step 1 to
    the vertex it is handed; without it, the run takes its own step 1,
    with the bytes of the dense step (``conftest.dense_first_step``)."""

    @staticmethod
    def _first(obj):
        # the dense step 1 as a handed-in first step: the vertex, or None
        # where the gradient at I / d vanishes, and the residuals there
        v, r, _ = dense_first_step(obj)
        return (None if v is None else learner.Vertex(v)), r

    @staticmethod
    def _assert_dense_step_one(dist, indices, values, noise):
        # every set's step 1, in a lone run, in a learn_each chunk and as
        # a row of an eigen-step chunk, has the bytes of the dense step
        hyps = list(learner.learn_each(dist, indices, values, noise, 1))
        closed = noise.kind == "exact" and not any(p.x & p.z for p in dist.effects)
        atoms = (learner.code_space_atoms(dist.batch, indices, values) if closed
                 else [None] * len(indices))
        # above dim 256 a chunk holds one set
        chunk = 1 if dist.batch.dim > 256 else len(indices)
        rows = [first for t in range(0, len(indices), chunk) for first in learner._first_steps(
            dist.batch, indices[t:t + chunk], values[t:t + chunk], False)]
        for idx, vals, hyp, atom, (vertex, r) in zip(indices, values, hyps, atoms, rows):
            obj = Objective(dist.batch, idx, vals)
            v, want, sigma = dense_first_step(obj)
            assert (vertex is None) == (v is None)
            if v is not None:
                assert vertex.v.tobytes() == v.tobytes() and vertex.scale == 1.0
            assert r.tobytes() == want.tobytes()
            # a closed-form set takes another vertex
            for got in [hazan_optimize(obj, k_max=1)] + ([hyp] if atom is None else []):
                assert got.iterations_used == (v is not None)
                assert got.sigma.matrix.tobytes() == sigma.tobytes()
                assert got.final_objective == float(np.dot(want, want))
        return hyps

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), label=st.sampled_from(["d1", "d2"]),
           noise=st.sampled_from([NoiseModel.exact(), NoiseModel.with_shots(20),
                                  NoiseModel.gaussian(0.05)]),
           replacement=st.booleans(), m=st.integers(1, 12), sets=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_step_one_is_the_dense_step(self, n, label, noise, replacement, m, sets, seed):
        dist = build_distribution(n, label)
        # exact GHZ values are all 1, so shots need a state whose values are not
        rho = ghz_density(n) if noise.kind != "shots" else (
            maximally_mixed(n) if n > 3 else DensityMatrix(
                random_density(np.random.default_rng(n), 1 << n)))
        m = m if replacement else min(m, len(dist))
        indices, values = draw_training_sets(dist, rho, m, [(seed, t) for t in range(sets)],
                                             noise, replacement)
        self._assert_dense_step_one(dist, indices, values, noise)

    def test_operator_step_one_is_the_dense_step(self):
        # n = 9: the gradient is an EffectSum, whose GHZ products round as
        # the dense zgemv's; one effect drawn twice with shot values that
        # sum to 1 gives a gradient that vanishes, though its residuals
        # at I / d are not stationary
        dist, noise = build_distribution(9, "d1"), NoiseModel.gaussian(0.05)
        indices, values = draw_training_sets(dist, ghz_density(9), 20, [(7, 0), (7, 1)], noise)
        self._assert_dense_step_one(dist, indices, values, noise)
        k = next(i for i, p in enumerate(dist.effects) if p.x or p.z)
        [hyp] = self._assert_dense_step_one(dist, np.array([[k, k]]), np.array([[0.45, 0.55]]),
                                            NoiseModel.with_shots(20))
        assert hyp.iterations_used == 0

    @staticmethod
    def _shots_objective():
        # shot-sampled values of I / 8: noisy, so every step moves
        dist = build_distribution(3, "d1")
        return Objective(dist.batch, *sample_training_set(
            dist, maximally_mixed(3), 10, noise=NoiseModel.with_shots(10), seed=11))

    @staticmethod
    def _count(monkeypatch, owner, name) -> list:
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(1, 12),
        k_max=st.integers(1, 20),
        noise=st.one_of(
            st.just(NoiseModel.exact()),
            st.integers(1, 50).map(NoiseModel.with_shots),
            st.floats(0.01, 0.3).map(NoiseModel.gaussian),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_with_and_without_first_step(self, n, m, k_max, noise, seed):
        # exact GHZ values are all 1, so shot noise needs the mixed target
        target = maximally_mixed(n) if noise.kind == "shots" else ghz_density(n)
        dist = build_distribution(n, "d1")
        training = sample_training_set(dist, target, m, noise=noise, seed=seed)
        want = hazan_optimize(Objective(dist.batch, *training), k_max=k_max)
        obj = Objective(dist.batch, *training)
        got = hazan_optimize(obj, k_max=k_max, first=self._first(obj))
        assert got.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()
        assert got.iterations_used == want.iterations_used
        assert got.final_objective == want.final_objective

    def test_later_steps_solve_their_own(self, monkeypatch):
        obj = self._shots_objective()
        first = self._first(obj)
        assert first[0] is not None
        eigen_steps = self._count(monkeypatch, learner, "_smallest_built")
        gradients = self._count(monkeypatch, Objective, "gradient")
        hyp = hazan_optimize(obj, k_max=10, first=first)
        assert hyp.iterations_used == 10
        # steps 2..10 build and solve their gradients; step 1 builds none
        assert len(eigen_steps) == 9
        assert len(gradients) == 9

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 0.5, 2.0**-7, 1.0 / 3.0]))
    def test_step_one_bytes(self, n, seed, scale):
        # real and imaginary parts from both signed zeros and a few
        # values, set part by part so that every -0.0 stays
        rng = np.random.default_rng(seed)
        parts = np.array([0.0, -0.0, 0.5, -0.25, 1.0 / 3.0, -2.0 / 7.0])
        v = np.empty(1 << n, dtype=np.complex128)
        v.real = rng.choice(parts, v.shape)
        v.imag = rng.choice(parts, v.shape)
        obj = objective(((P("Z" * n), 0.25),))
        vertex = learner.Vertex(v, scale)
        hyp = hazan_optimize(obj, k_max=1, first=(vertex, obj.residuals(vertex.matrix())))
        # the atom as the closed form builds it: complex factors
        atom = np.outer(v, v.conj()) * np.complex128(scale)
        want = (1.0 - 1.0) * maximally_mixed(n).matrix + 1.0 * atom
        assert hyp.sigma.matrix.tobytes() == want.tobytes()
        assert hyp.iterations_used == 1

    def test_stop_objective_stops_after_step_one(self):
        obj = self._shots_objective()
        first = self._first(obj)
        assert hazan_optimize(obj, k_max=10, first=first).iterations_used == 10
        hyp = hazan_optimize(obj, k_max=10, first=first, stop_objective=float("inf"))
        assert hyp.iterations_used == 1
        assert hyp.final_objective == obj.value(first[0].matrix())

    def test_handed_step_one_builds_no_mixed_state(self, monkeypatch):
        obj = self._shots_objective()
        first = self._first(obj)
        built = self._count(monkeypatch, learner, "maximally_mixed")
        hazan_optimize(obj, k_max=3, first=first)
        assert built == []
        # step 1 reads I / d to find its own vertex
        hazan_optimize(obj, k_max=3)
        assert len(built) == 1
        # a chunk of closed-form trials builds none either
        dist = build_distribution(4, "d2")
        indices, values = draw_training_sets(dist, ghz_density(4), 3, list(range(5)))
        built.clear()
        hyps = learner.learn_each(dist, indices, values, NoiseModel.exact(), 10)
        assert [h.iterations_used for h in hyps] == [1] * 5
        assert built == []

    def test_zero_gradient_stops_before_any_step(self, monkeypatch):
        # exact values of I / d are 1/2, which make a zero gradient
        dist = build_distribution(3, "d1")
        indices, values = draw_training_sets(dist, maximally_mixed(3), 6, [0, 1, 2])
        assert all(self._first(Objective(dist.batch, idx, vals))[0] is None
                   for idx, vals in zip(indices, values))
        # the one eigen-step entry of learn_each and of the later steps
        stacks = []
        real = learner._smallest_built
        monkeypatch.setattr(learner, "_smallest_built",
                            lambda hs, tol: stacks.append(len(hs)) or real(hs, tol=tol))
        gradients = self._count(monkeypatch, Objective, "gradient")
        hyps = list(learner.learn_each(dist, indices, values, NoiseModel.exact(), 10))
        assert [h.iterations_used for h in hyps] == [0, 0, 0]
        assert sum(stacks) == 0
        # their residuals at I / d are exactly 0: no gradient is built
        assert gradients == []
        for h in hyps:
            assert np.array_equal(h.sigma.matrix, maximally_mixed(3).matrix)


class TestLearnEach:
    """One hypothesis per training set, in order, from one first-step
    rule: exact data on a Y-free support takes the closed form, every
    other training set the eigen-step."""

    @pytest.mark.parametrize("label", ["d1", "d2"])
    @pytest.mark.parametrize("noise", [NoiseModel.exact(), NoiseModel.gaussian(0.05)])
    def test_rule(self, label, noise):
        rho, dist = ghz_density(3), build_distribution(3, label)
        for m in (1, 2, 3, 5, 8):
            seeds = [(9, m), (9, m, 1)]
            indices, values = draw_training_sets(dist, rho, m, seeds, noise)
            hyps = list(learner.learn_each(dist, indices, values, noise, 10))
            assert len(hyps) == len(seeds)
            for seed, hyp in zip(seeds, hyps):
                idx, vals = sample_training_set(dist, rho, m, noise=noise, seed=seed)
                if label == "d2" and noise.kind == "exact":
                    [vertex] = learner.code_space_atoms(dist.batch, idx[None], vals[None])
                    assert hyp.iterations_used == 1
                    assert hyp.vertex.v.tobytes() == vertex.v.tobytes()
                    assert hyp.vertex.scale == vertex.scale
                    assert hyp.sigma.matrix.tobytes() == vertex.matrix().tobytes()
                else:
                    want = hazan_optimize(Objective(dist.batch, idx, vals), k_max=10)
                    assert hyp.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()
                    assert hyp.iterations_used == want.iterations_used

    def test_y_free_training_set_on_d1_takes_the_eigen_step(self):
        # the rule reads the support, not the drawn strings
        dist = build_distribution(3, "d1")
        effects = [P(s) for s in ("XXX", "ZZI")]
        indices = np.array([[dist.effects.index(e) for e in effects]])
        [hyp] = learner.learn_each(dist, indices, np.ones((1, 2)), NoiseModel.exact(), 5)
        want = hazan_optimize(Objective(dist.batch, indices[0], np.ones(2)), k_max=5)
        assert hyp.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()


def _cluster_generators(n):
    gens = []
    for q in range(n):
        factors = ["I"] * n
        factors[q] = "X"
        for nb in (q - 1, q + 1):
            if 0 <= nb < n:
                factors[nb] = "Z"
        gens.append(PauliString(tuple(factors), 1))
    return tuple(gens)


RULE_TARGETS = (
    *(tuple(ghz_generators(n)) for n in range(2, 7)),
    # sign-flipped GHZ twins, and one whose X-type stabilizer has sign -1
    tuple(P(t) for t in ("XXX", "-ZZI", "IZZ")),
    tuple(P(t) for t in ("XXXX", "ZZII", "-IZZI", "IIZZ")),
    tuple(P(t) for t in ("-XXX", "ZZI", "IZZ")),
    *(_cluster_generators(n) for n in range(3, 7)),
)


def _generator_target(gens) -> np.ndarray:
    # group average of the dense oracle matrices: the target's projector
    group = group_closure(gens)
    return sum(kron_dense(p) for p in group) / len(group)


def _loop_atom(strings, idx, vals):
    # the reference: the closed form of one set, one factor per distinct
    # string in the order of first draw, applied in a Python loop to the
    # action read from the string's masks; its w and 1 / <w|w>
    if not np.all(vals == 1.0):
        return None
    w = np.ones(1 << strings[0].n, dtype=np.complex128)
    for i in dict.fromkeys(idx.tolist()):
        perm, coeff = pauli_action(strings[i])
        w = (w + (coeff * w)[perm]) / 2.0
    norm2 = float(np.vdot(w, w).real)
    return None if norm2 == 0.0 else (w, 1.0 / norm2)


class TestCodeSpaceAtom:
    """The closed-form first step of exact data: the projector onto the
    component of the uniform vector in the bottom eigenspace of the
    first gradient."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_projects_uniform_vector_onto_bottom_eigenspace(self, data):
        gens = data.draw(st.sampled_from(RULE_TARGETS))
        replacement = data.draw(st.booleans())
        dist = distribution_from_generators(gens, "d2")
        m = data.draw(st.integers(1, len(dist)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rho = DensityMatrix(_generator_target(gens))
        indices, values = draw_training_sets(dist, rho, m, [seed], replacement=replacement)
        atom = learner.code_space_atoms(dist.batch, indices, values)[0]

        dim = rho.dim
        obj = Objective(dist.batch, indices[0], values[0])
        g = obj.gradient(obj.residuals(np.eye(dim, dtype=np.complex128) / dim))
        vals, vecs = np.linalg.eigh(g)
        # the eigenvalues of -sum_i E_i are integers
        bottom = vecs[:, vals < vals[0] + 0.5]
        u = np.full(dim, 1 / np.sqrt(dim), dtype=np.complex128)
        proj = bottom @ (bottom.conj().T @ u)
        norm2 = float(np.vdot(proj, proj).real)
        assert (atom is None) == (norm2 < 1e-12)
        if atom is None:
            return
        want = np.outer(proj, proj.conj()) / norm2
        assert np.max(np.abs(atom.matrix() - want)) <= 1e-12
        residuals = support_residuals(DensityMatrix(atom.matrix()), rho, dist)
        assert set(residuals.tolist()) <= {0.0, 0.5, 1.0}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_chunk_gives_each_set_its_lone_bytes(self, data):
        gens = data.draw(st.sampled_from(RULE_TARGETS))
        dist = distribution_from_generators(gens, "d2")
        rho = DensityMatrix(_generator_target(gens))
        # a chunk holds sets of one width, m draws and r repeats of them
        m = data.draw(st.integers(1, len(dist)))
        width = m + data.draw(st.integers(0, m))
        if data.draw(st.booleans()):
            # sets drawn from the support, each with or without replacement
            batch, rows = dist.batch, []
            strings = list(dist.effects)
            for _ in range(data.draw(st.integers(1, 8))):
                [idx], _ = draw_training_sets(dist, rho, m, [data.draw(st.integers(0, 2**32 - 1))],
                                              replacement=data.draw(st.booleans()))
                # repeat some draws, as draws with replacement do
                rows.append(np.resize(idx, width))
            indices = np.array(rows)
        else:
            # any distinct strings, Y and non-commuting ones too
            texts = st.text("IXYZ", min_size=dist.n, max_size=dist.n)
            strings = data.draw(st.lists(st.tuples(texts, st.sampled_from([1, -1])),
                                         min_size=1, max_size=6, unique=True))
            strings = [PauliString(t, sign) for t, sign in strings]
            batch = learner.EffectBatch(strings)
            row = st.lists(st.integers(0, len(strings) - 1), min_size=width, max_size=width)
            indices = np.array(data.draw(st.lists(row, min_size=1, max_size=8)))
        # exact values on the target's stabilizers are all 1; some sets
        # get one value that is not exactly 1
        values = np.ones(indices.shape)
        for t in range(len(values)):
            if data.draw(st.booleans()):
                values[t, data.draw(st.integers(0, width - 1))] = 1.0 - 2**-52
        got = learner.code_space_atoms(batch, indices, values)
        assert len(got) == len(indices)
        for idx, vals, atom in zip(indices, values, got):
            [lone] = learner.code_space_atoms(batch, idx[None], vals[None])
            assert (atom is None) == (lone is None)
            if atom is not None:
                assert (atom.v.tobytes(), atom.scale) == (lone.v.tobytes(), lone.scale)
            want = _loop_atom(strings, idx, vals)
            assert (atom is None) == (want is None)
            if atom is not None:
                assert (atom.v.tobytes(), atom.scale) == (want[0].tobytes(), want[1])

    def test_uniform_vector_orthogonal_to_code_space(self):
        items = ((P("-XXX"), 1.0), (P("ZZI"), 1.0))
        assert learner.code_space_atoms(*index_rows(items))[0] is None

    def test_needs_every_value_exactly_one(self):
        effects = [P(t) for t in ("XX", "ZZ")]
        exact = tuple((e, 1.0) for e in effects)
        assert learner.code_space_atoms(*index_rows(exact))[0] is not None
        for values in ((1.0, 0.5), (1.0, 1.0 - 2**-52)):
            off = tuple(zip(effects, values))
            assert learner.code_space_atoms(*index_rows(off))[0] is None


class TestShotObjective:
    def _random_sigma(self, rng, dim):
        return random_density(rng, dim)

    @pytest.mark.parametrize("shots", [1, 10, 100])
    def test_difference_is_sigma_independent(self, shots, rng):
        dist = build_distribution(3, "d1")
        mixed = maximally_mixed(3)
        outcomes = per_shot_outcomes(dist, mixed, 6, shots=shots, seed=13)
        items = tuple(
            (eff, float(bits.mean())) for eff, bits in outcomes
        )
        averaged = objective(items)
        diffs = []
        for _ in range(10):
            sigma = self._random_sigma(rng, 8)
            f = shot_objective_value(outcomes, sigma)
            f_avg = averaged.value(sigma)
            diffs.append(f - shots * f_avg)
        spread = max(diffs) - min(diffs)
        scale = max(1.0, max(abs(d) for d in diffs))
        assert spread <= 1e-9 * scale
        # the constant is the per-effect Bernoulli variance mass
        want = shots * sum(b.mean() * (1 - b.mean()) for _, b in outcomes)
        assert diffs[0] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_all_ones_outcomes_scale_exactly(self, rng):
        dist = build_distribution(2, "d1")
        outcomes = per_shot_outcomes(dist, ghz_density(2), 4, shots=7, seed=14)
        assert all(np.all(bits == 1) for _, bits in outcomes)
        items = tuple((eff, 1.0) for eff, _ in outcomes)
        averaged = objective(items)
        sigma = self._random_sigma(rng, 4)
        assert shot_objective_value(outcomes, sigma) == pytest.approx(
            7 * averaged.value(sigma), rel=1e-12, abs=1e-12
        )

    def test_single_shot_equals_averaged(self, rng):
        dist = build_distribution(2, "d1")
        outcomes = per_shot_outcomes(dist, maximally_mixed(2), 5, shots=1, seed=15)
        items = tuple((eff, float(bits[0])) for eff, bits in outcomes)
        averaged = objective(items)
        sigma = self._random_sigma(rng, 4)
        assert shot_objective_value(outcomes, sigma) == pytest.approx(
            averaged.value(sigma), rel=1e-12, abs=1e-12
        )


class TestEvaluateEpsilon:
    def test_zero_on_itself(self):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        assert evaluate_epsilon(rho, rho, dist, 0.1) == 0.0

    def test_mixed_baseline_is_one(self):
        rho = ghz_density(4)
        dist = build_distribution(4, "d1")
        assert evaluate_epsilon(maximally_mixed(4), rho, dist, 0.1) == 1.0

    def test_mixed_passes_loose_gamma(self):
        rho = ghz_density(4)
        dist = build_distribution(4, "d1")
        # every residual is exactly 0.5, and the test is strictly greater
        assert evaluate_epsilon(maximally_mixed(4), rho, dist, 0.5) == 0.0
        assert evaluate_epsilon(maximally_mixed(4), rho, dist, 0.6) == 0.0

    def test_gamma_range(self):
        rho = ghz_density(2)
        dist = build_distribution(2, "d1")
        for bad in (0.0, np.nextafter(1.0, 2.0), -0.2):
            with pytest.raises(ValueError):
                evaluate_epsilon(rho, rho, dist, bad)
        # (0, 1], the range LearnParams and the config admit; no residual
        # exceeds 1
        assert evaluate_epsilon(maximally_mixed(2), rho, dist, 1.0) == 0.0

    def test_target_values_computed_once_per_state(self, monkeypatch):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        batch = dist.batch
        [hyp] = learner.learn_each(dist, *draw_training_sets(dist, rho, 4, [0]),
                                   NoiseModel.exact(), 2)
        sigma = hyp.sigma
        first = support_residuals(sigma, rho, dist)
        calls = []
        real = learner.EffectBatch.expectations
        monkeypatch.setattr(learner.EffectBatch, "expectations",
                            lambda self, m: calls.append(None) or real(self, m))
        again = support_residuals(sigma, rho, dist)
        assert again.tobytes() == first.tobytes()
        # one for sigma; Tr(E rho) is read from the batch's table
        assert len(calls) == 1
        want = real(batch, rho.matrix)
        assert batch.expected(rho).tobytes() == want.tobytes()
        assert not batch.expected(rho).flags.writeable

    def test_mixed_baseline_reads_its_table(self, monkeypatch):
        rho = ghz_density(3)
        dist = build_distribution(3, "d1")
        mixed = maximally_mixed(3)
        want = np.abs(dist.batch.expectations(mixed.matrix) - dist.batch.expected(rho))
        calls = []
        real = learner.EffectBatch.expectations
        monkeypatch.setattr(learner.EffectBatch, "expectations",
                            lambda self, m: calls.append(None) or real(self, m))
        assert support_residuals(mixed, rho, dist).tobytes() == want.tobytes()
        # Tr(E I/d) is read from the batch's table of I/d, as Tr(E rho) is
        assert calls == []
        # an equal state that is not the package's I/d computes its own
        assert support_residuals(DensityMatrix(mixed.matrix), rho, dist).tobytes() == want.tobytes()
        assert len(calls) == 1

    @pytest.mark.parametrize("label", ["d1", "d2"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_mixed_baseline_table_has_the_bytes_of_its_pass(self, n, label):
        # every Tr(E I/d) is exactly 1/2, so the table's checks and clamp
        # keep the bytes of the expectations pass
        batch = build_distribution(n, label).batch
        mixed = maximally_mixed(n)
        table = batch.expected(mixed)
        assert table.tobytes() == batch.expectations(mixed.matrix).tobytes()
        assert (table == 0.5).all()

    def test_support_residuals_values(self):
        rho = ghz_density(2)
        dist = build_distribution(2, "d1")
        r = support_residuals(maximally_mixed(2), rho, dist)
        assert np.allclose(r, 0.5, atol=1e-14)
