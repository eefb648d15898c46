"""Objective, gradient, Frank-Wolfe loop, and the prediction-error
evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    DensityMatrix,
    MeasurementEffect,
    NoiseModel,
    Objective,
    PauliString,
    TrainingSet,
    build_distribution,
    evaluate_epsilon,
    ghz_density,
    gradient,
    hazan_optimize,
    maximally_mixed,
    objective_value,
    per_shot_outcomes,
    sample_training_set,
    shot_objective_value,
    support_residuals,
    fidelity,
)
from qpac import learner
from qpac.learner import IterationTrace

from conftest import kron_dense, random_density


def P(text):
    return PauliString.from_text(text)


def full_support_training(n, dist_label="d1"):
    dist = build_distribution(n, dist_label)
    rho = ghz_density(n)
    return sample_training_set(dist, rho, len(dist), seed=0, replacement=False), dist, rho


class TestObjectiveValue:
    def test_zero_at_target(self):
        training, _, rho = full_support_training(3)
        assert objective_value(Objective(training), rho) == pytest.approx(0.0, abs=1e-20)

    def test_mixed_state_quarter_per_item(self):
        training, _, _ = full_support_training(3)
        got = objective_value(Objective(training), maximally_mixed(3))
        assert got == pytest.approx(len(training) / 4.0, abs=1e-12)

    def test_single_consistent_item(self):
        e = MeasurementEffect(P("ZZ"))
        t = TrainingSet(((e, 0.5),))
        assert objective_value(Objective(t), maximally_mixed(2)) == pytest.approx(0.0, abs=1e-18)

    def test_dimension_mismatch(self):
        training, _, _ = full_support_training(2)
        with pytest.raises(ValueError):
            objective_value(Objective(training), maximally_mixed(3))


class TestGradient:
    def test_zero_at_target(self):
        training, _, rho = full_support_training(3)
        g = gradient(Objective(training), rho)
        assert np.max(np.abs(g)) < 1e-12

    def test_single_item_at_mixed_is_minus_effect(self):
        eff = MeasurementEffect(P("ZIZ"))
        t = TrainingSet(((eff, 1.0),))
        g = gradient(Objective(t), maximally_mixed(3))
        dense_e = (np.eye(8) + kron_dense(eff.pauli)) / 2
        assert np.allclose(g, -dense_e, atol=1e-12)

    def test_hermitian(self, rng):
        dist = build_distribution(3, "d1")
        t = sample_training_set(dist, ghz_density(3), 12, seed=8)
        g = gradient(Objective(t), DensityMatrix(random_density(rng, 8)))
        assert np.max(np.abs(g - g.conj().T)) < 1e-12

    def test_odd_y_effect_assembly(self, rng):
        # custom targets can carry odd-Y strings whose dense matrices
        # are complex; the assembly must not transpose them
        eff = MeasurementEffect(P("XY"))
        t = TrainingSet(((eff, 0.9),))
        sigma = random_density(rng, 4)
        g = gradient(Objective(t), sigma)
        dense_e = (np.eye(4) + kron_dense(eff.pauli)) / 2
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
        t = sample_training_set(
            dist, rho, 2 * n, noise=NoiseModel.gaussian(0.1), seed=(n, 1)
        )
        obj = Objective(t)
        dim = 2**n
        for _ in range(20):
            sigma = random_density(rng, dim)
            delta = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            delta = (delta + delta.conj().T) / 2
            delta = delta / np.trace(delta).real  # unit-trace direction
            step = 1e-6
            fd = (obj.value(sigma + step * delta) - obj.value(sigma - step * delta)) / (2 * step)
            analytic = float(np.real(np.trace(obj.gradient(sigma) @ delta)))
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-9)


class TestHazanOptimize:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_support_exact(self, n):
        training, dist, rho = full_support_training(n)
        hyp = hazan_optimize(Objective(training), k_max=300)
        assert hyp.final_objective <= 1e-3
        assert fidelity(hyp.sigma, rho) >= 0.99

    def test_single_item_one_iteration(self):
        eff = MeasurementEffect(P("XX"))
        t = TrainingSet(((eff, 1.0),))
        hyp = hazan_optimize(Objective(t), k_max=1)
        sigma = hyp.sigma.matrix
        # first step replaces sigma entirely by the rank-1 projector
        assert hyp.sigma.purity() == pytest.approx(1.0, abs=1e-10)
        dense_e = (np.eye(4) + kron_dense(eff.pauli)) / 2
        assert np.trace(dense_e @ sigma).real == pytest.approx(1.0, abs=1e-9)
        assert hyp.final_objective == pytest.approx(0.0, abs=1e-15)

    def test_zero_gradient_stays_at_start(self):
        dist = build_distribution(2, "d1")
        items = tuple((e, 0.5) for e in dist.effects)
        hyp = hazan_optimize(Objective(TrainingSet(items)), k_max=300)
        assert np.allclose(hyp.sigma.matrix, maximally_mixed(2).matrix, atol=1e-14)
        assert hyp.final_objective == pytest.approx(0.0, abs=1e-18)
        assert hyp.iterations_used == 0

    def test_iterate_invariants_under_noise(self):
        # shot-sampled mixed-state values are genuinely noisy, so the
        # optimum is not reachable in a few steps and the loop runs
        dist = build_distribution(3, "d1")
        t = sample_training_set(
            dist, maximally_mixed(3), 10, noise=NoiseModel.with_shots(10), seed=11
        )
        traces, mineigs = [], []

        def watch(k, f, glam, sigma):
            traces.append(abs(np.trace(sigma).real - 1.0))
            mineigs.append(float(np.linalg.eigvalsh(sigma)[0]))

        hyp = hazan_optimize(Objective(t), k_max=120, on_iterate=watch)
        assert len(traces) >= 50
        assert max(traces) <= 1e-12
        assert min(mineigs) >= -1e-10
        assert hyp.iterations_used == len(traces)

    def test_deterministic(self):
        dist = build_distribution(3, "d2")
        t = sample_training_set(dist, ghz_density(3), 6, seed=21)
        a = hazan_optimize(Objective(t), k_max=80)
        b = hazan_optimize(Objective(t), k_max=80)
        assert np.array_equal(a.sigma.matrix, b.sigma.matrix)
        assert a.final_objective == b.final_objective
        assert a.iterations_used == b.iterations_used

    def test_final_never_worse_than_start(self):
        dist = build_distribution(4, "d1")
        rho = ghz_density(4)
        for seed in range(5):
            t = sample_training_set(dist, rho, 8, noise=NoiseModel.gaussian(0.15), seed=seed)
            obj = Objective(t)
            hyp = hazan_optimize(obj, k_max=60)
            assert hyp.final_objective <= objective_value(obj, maximally_mixed(4)) + 1e-12

    def test_early_stop_flag(self):
        training, _, _ = full_support_training(3)
        hyp = hazan_optimize(Objective(training), k_max=300, stop_objective=1e-2)
        assert hyp.final_objective <= 1e-2
        assert hyp.iterations_used < 300

    def test_iteration_trace_csv(self, tmp_path):
        training, _, _ = full_support_training(2)
        trace = IterationTrace()
        hazan_optimize(Objective(training), k_max=5, on_iterate=trace)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,objective,gradient_min_eigenvalue"
        assert len(lines) >= 2

    def test_bad_kmax(self):
        training, _, _ = full_support_training(2)
        with pytest.raises(ValueError):
            hazan_optimize(Objective(training), k_max=0)


class TestBottomVectorMemo:
    """The ``bottom_vectors`` memo of :func:`hazan_optimize` changes no
    bit of its result and keys what decides the eigen-step."""

    @staticmethod
    def _count_eigen_steps(monkeypatch) -> list:
        calls = []
        real = learner.smallest_eigenvector

        def counted(h, tol):
            calls.append(tol)
            return real(h, tol=tol)

        monkeypatch.setattr(learner, "smallest_eigenvector", counted)
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
    def test_same_bytes_with_and_without_memo(self, n, m, k_max, noise, seed):
        # exact GHZ values are all 1, so shot noise needs the mixed target
        target = maximally_mixed(n) if noise.kind == "shots" else ghz_density(n)
        training = sample_training_set(build_distribution(n, "d1"), target, m,
                                       noise=noise, seed=seed)
        want = hazan_optimize(Objective(training), k_max=k_max)
        memo = {}
        for _ in range(2):  # a cold memo, then one holding the first step's vector
            got = hazan_optimize(Objective(training), k_max=k_max, bottom_vectors=memo)
            assert got.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()
            assert got.iterations_used == want.iterations_used
            assert got.final_objective == want.final_objective

    def test_permuted_draws_share_one_eigen_step(self, monkeypatch):
        calls = self._count_eigen_steps(monkeypatch)
        training = sample_training_set(build_distribution(4, "d2"), ghz_density(4), 5,
                                       seed=3, replacement=False)
        rng = np.random.default_rng(0)
        memo, orders, sigmas = {}, set(), set()
        for _ in range(6):
            order = tuple(int(i) for i in rng.permutation(len(training)))
            orders.add(order)
            items = tuple(training.items[i] for i in order)
            hyp = hazan_optimize(Objective(TrainingSet(items)), bottom_vectors=memo)
            sigmas.add(hyp.sigma.matrix.tobytes())
        assert len(orders) > 1
        assert len(calls) == 1
        assert len(sigmas) == 1

    def test_only_the_first_step_is_memoized(self, monkeypatch):
        calls = self._count_eigen_steps(monkeypatch)
        t = sample_training_set(build_distribution(3, "d1"), maximally_mixed(3), 10,
                                noise=NoiseModel.with_shots(10), seed=11)
        memo = {}
        for _ in range(2):
            hyp = hazan_optimize(Objective(t), k_max=10, bottom_vectors=memo)
        assert hyp.iterations_used == 10
        assert len(memo) == 1
        # 10 eigen-steps cold, 9 on the rerun: only step 1 comes from the memo
        assert len(calls) == 19

    def test_stored_vectors_read_only(self):
        t = sample_training_set(build_distribution(3, "d1"), maximally_mixed(3), 10,
                                noise=NoiseModel.with_shots(10), seed=11)
        memo = {}
        hazan_optimize(Objective(t), k_max=10, bottom_vectors=memo)
        (v,) = memo.values()
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0

    def test_tolerance_is_part_of_the_key(self, monkeypatch):
        calls = self._count_eigen_steps(monkeypatch)
        training, _, _ = full_support_training(3)
        memo = {}
        for tol in (1e-9, 1e-6, 1e-9, 1e-6):
            hazan_optimize(Objective(training), k_max=1, eig_tol=tol, bottom_vectors=memo)
        assert calls == [1e-9, 1e-6]
        assert sorted(tol for tol, _ in memo) == [1e-9, 1e-6]
        assert len({digest for _, digest in memo}) == 1


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
        averaged = Objective(TrainingSet(items))
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
        averaged = Objective(TrainingSet(items))
        sigma = self._random_sigma(rng, 4)
        assert shot_objective_value(outcomes, sigma) == pytest.approx(
            7 * averaged.value(sigma), rel=1e-12, abs=1e-12
        )

    def test_single_shot_equals_averaged(self, rng):
        dist = build_distribution(2, "d1")
        outcomes = per_shot_outcomes(dist, maximally_mixed(2), 5, shots=1, seed=15)
        items = tuple((eff, float(bits[0])) for eff, bits in outcomes)
        averaged = Objective(TrainingSet(items))
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
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                evaluate_epsilon(rho, rho, dist, bad)

    def test_support_residuals_values(self):
        rho = ghz_density(2)
        dist = build_distribution(2, "d1")
        r = support_residuals(maximally_mixed(2), rho, dist)
        assert np.allclose(r, 0.5, atol=1e-14)
