"""The matrix-free eigen-step above dim 256: ``EffectSum`` against the
dense gradient it stands for, and the learn path at n = 9 and 10
against the dense kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    ConvergenceError,
    MeasurementEffect,
    NoiseModel,
    PauliString,
    build_distribution,
    ghz_density,
    linalg,
)
from qpac import learner
from qpac.experiments import ExperimentConfig, run_learn
from qpac.sampling import draw_training_sets
from qpac.states import EffectBatch, EffectSum

# any signed strings, Y factors allowed: an odd count of Y gives
# imaginary entries, which no GHZ stabilizer has
any_strings = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.builds(PauliString, st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n).map(tuple),
              st.sampled_from([1, -1])),
    min_size=12, max_size=12))

# real weights: exact data gives 2 (1/2 - y) in {-1, 0, 1}, noisy data
# anything in [-1, 1]; the scale spans the zero-gradient threshold 1e-12
weighted_rows = st.fixed_dictionaries(dict(
    n=st.integers(2, 8),
    label=st.sampled_from(["d1", "d2", "any"]),
    strings=any_strings,
    # picks from a small pool repeat rows, as draws with replacement do
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=40),
    weights=st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
                     min_size=40, max_size=40),
    scale=st.sampled_from([1.0, 1e-3, 1e-8, 1e-12, 3e-13, 1e-15]),
    seed=st.integers(0, 2**32 - 1),
))


def _batch_and_weights(case):
    if case["label"] == "any":
        batch = EffectBatch([MeasurementEffect(p) for p in case["strings"]])
    else:
        batch = build_distribution(case["n"], case["label"]).batch
    # pick k names a pseudo-random row, spread over the whole batch
    rows = [(k * 7919 + case["seed"]) % len(batch) for k in case["picks"]]
    weights = case["scale"] * np.array(case["weights"][: len(rows)])
    return batch.rows(np.array(rows)), weights


class TestWeightedSum:
    @settings(max_examples=60, deadline=None)
    @given(case=weighted_rows)
    def test_bytewise_hermitian(self, case):
        # the premise of the learner's eigen-step entry, which skips the
        # h - h^dag check
        batch, weights = _batch_and_weights(case)
        g = batch.weighted_sum(weights)
        assert np.array_equal(g, g.conj().T)

    def test_only_the_learner_skips_the_check(self, monkeypatch):
        # at dim <= 256 the learner's dense gradients reach the eigen-step
        # without the h - h^dag pass; a public call keeps it
        seen = []
        real = linalg._hermitian_stack
        monkeypatch.setattr(linalg, "_hermitian_stack",
                            lambda hs, built=False: seen.append(built) or real(hs, built))
        support, noise = build_distribution(3, "d1"), NoiseModel.gaussian(0.05)
        indices, values = draw_training_sets(support, ghz_density(3), 6, [(1, 0), (1, 1)], noise)
        hyps = learner.learn_each(support, indices, values, noise, 4)
        assert [h.iterations_used for h in hyps] == [4, 4]
        assert seen and all(seen)
        seen.clear()
        linalg.smallest_eigenvector(np.eye(2))
        assert seen == [False]


class TestEffectSum:
    @settings(max_examples=60, deadline=None)
    @given(case=weighted_rows)
    def test_matches_the_dense_sum(self, case):
        batch, weights = _batch_and_weights(case)
        g = batch.weighted_sum(weights)
        op = batch.weighted_operator(weights)
        assert isinstance(op, EffectSum) and op.dim == g.shape[0]
        # the fields the certificate and the zero test read: the same bytes
        assert op.max_entry == float(np.max(np.abs(g)))
        assert op.diagonal.tobytes() == g.diagonal().real.tobytes()
        assert learner._vanishes(op) == learner._vanishes(g)
        one_norm = float(np.max(np.sum(np.abs(g), axis=0)))
        assert abs(op.one_norm - one_norm) <= 1e-12 * one_norm
        rng = np.random.default_rng(case["seed"])
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        want = g @ v
        # relative to the bound sum_c |h_rc| |v_c| on every entry
        bound = one_norm * float(np.max(np.abs(v)))
        assert np.max(np.abs(op.dot(v) - want), initial=0.0) <= 1e-12 * bound
        out = np.empty_like(v)
        assert op.dot(v, out) is out and out.tobytes() == op.dot(v).tobytes()

    def test_diagonals_grouped_by_x_mask(self):
        # GHZ strings carry X-mask 0 or 1...1; the identity's Sum w / 2
        # lands on the main diagonal even where no Z-only row is drawn
        support = build_distribution(4, "d1")
        x_rows = [i for i, e in enumerate(support.effects) if e.pauli.x]
        op = support.batch.rows(np.array(x_rows[:3])).weighted_operator(np.ones(3))
        assert op._cols.shape == (2, 16)
        assert op.diagonal.tolist() == [1.5] * 16


class TestLearnPath:
    N10_CONFIG = dict(command="learn", n=10, dist="d1", m=20, threads=1)

    @staticmethod
    def _refuse_dense(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense gradient on the learn path above dim 256")

        monkeypatch.setattr(EffectBatch, "weighted_sum", refuse)
        monkeypatch.setattr(linalg, "_hermitian_stack", refuse)
        solved = []
        real = learner._smallest_built

        def counted(hs, tol):
            solved.extend(type(h) for h in hs)
            return real(hs, tol=tol)

        monkeypatch.setattr(learner, "_smallest_built", counted)
        return solved

    def test_exact_learn_at_n10_forms_no_gradient(self, monkeypatch, tmp_path):
        solved = self._refuse_dense(monkeypatch)
        table = run_learn(ExperimentConfig(**self.N10_CONFIG, seed=3,
                                           out=str(tmp_path / "learn.csv")))
        assert table.rows[0][4] == 1
        assert solved == [EffectSum]

    def test_noisy_steps_at_n10_form_no_gradient(self, monkeypatch):
        support = build_distribution(10, "d1")
        noise = NoiseModel.gaussian(0.05)
        indices, values = draw_training_sets(support, ghz_density(10), 20, [(5, 0)], noise)
        solved = self._refuse_dense(monkeypatch)
        [hyp] = learner.learn_each(support, indices, values, noise, 3)
        assert hyp.iterations_used == 3
        # the first step and both later ones
        assert solved == [EffectSum] * 3

    @pytest.mark.parametrize("config", [
        dict(seed=100, m=5), dict(seed=101, m=20), dict(seed=102, m=40),
        dict(seed=200, m=20, gauss_std=0.05, k_max=4),
        dict(seed=201, m=20, dist="d2", gauss_std=0.05, k_max=4),
    ])
    def test_n9_tables_match_the_dense_kernel(self, config, monkeypatch, tmp_path):
        # GHZ strings carry X-mask 0 or 1...1, so a gradient row holds at
        # most two nonzero entries, and its product rounds as zgemv's
        kwargs = {**dict(command="learn", n=9, dist="d1", threads=1,
                         out=str(tmp_path / "learn.csv")), **config}
        got = run_learn(ExperimentConfig(**kwargs)).rows
        # the dense kernel: every step hands the dense gradient to the
        # eigen-step, as up to dim 256
        monkeypatch.setattr(learner, "_step_gradient",
                            lambda obj, sigma, r: obj.gradient(sigma, residuals=r))
        want = run_learn(ExperimentConfig(**kwargs)).rows
        assert got == want
        assert [type(x) for x in got[0]] == [type(x) for x in want[0]]

    # strict: once the eigen-step certifies this gradient within its
    # sweep budget, this passes, fails the marker, and the marker goes
    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="above dim 256 the eigen-step has no eigh fallback")
    def test_noisy_cluster_learn_at_n9_completes(self, tmp_path):
        # the gradient of step 2 has 4 eigenvalues within 4e-15 of 0 and
        # the next at 9.1e-4, and its shift equals its top eigenvalue:
        # the power iteration contracts by about 0.998 per sweep and needs
        # more than the 10 * dim = 5120 sweeps of each start
        cluster = ["XZIIIIIII", "ZXZIIIIII", "IZXZIIIII", "IIZXZIIII", "IIIZXZIII",
                   "IIIIZXZII", "IIIIIZXZI", "IIIIIIZXZ", "IIIIIIIZX"]
        config = ExperimentConfig(command="learn", n=9, dist="d1", m=20, generators=cluster,
                                  gauss_std=0.05, k_max=2, seed=401,
                                  out=str(tmp_path / "learn.csv"))
        assert run_learn(config).rows[0][4] == 2
