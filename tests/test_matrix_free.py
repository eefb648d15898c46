"""The matrix-free eigen-step above dim 256: ``EffectSum`` against the
dense gradient it stands for, and the learn path at n = 9 and 10
against the dense kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    NoiseModel,
    Objective,
    PauliString,
    build_distribution,
    ghz_density,
    linalg,
)
from qpac import learner
from qpac.experiments import ExperimentConfig, run_learn
from qpac.sampling import draw_training_sets
from qpac.states import EffectBatch, EffectSum

from conftest import scattered_sum

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
    """A case's batch, the rows it picks from it, their weights, and
    their strings."""
    if case["label"] == "any":
        strings = case["strings"]
        batch = EffectBatch(strings)
    else:
        support = build_distribution(case["n"], case["label"])
        strings, batch = support.effects, support.batch
    # pick k names a pseudo-random row, spread over the whole batch
    rows = [(k * 7919 + case["seed"]) % len(batch) for k in case["picks"]]
    weights = case["scale"] * np.array(case["weights"][: len(rows)])
    return batch, np.array(rows), weights, [strings[i] for i in rows]


class TestWeightedSum:
    @settings(max_examples=60, deadline=None)
    @given(case=weighted_rows)
    def test_bytewise_hermitian(self, case):
        # the premise of the learner's eigen-step entry, which skips the
        # h - h^dag check
        batch, rows, weights, _ = _batch_and_weights(case)
        g = batch.weighted_sum(weights, rows)
        assert np.array_equal(g, g.conj().T)

    @settings(max_examples=100, deadline=None)
    @given(case=weighted_rows, scale=st.sampled_from([1.0, 1e4, 1e8]), negative_zero=st.booleans())
    def test_bytes_of_the_scatter_reference(self, case, scale, negative_zero):
        # the sum added at the gather positions, conjugated, against the
        # scatter positions [k ^ x, k] read from the masks
        batch, rows, weights, strings = _batch_and_weights(case)
        weights = scale * weights
        if negative_zero:
            weights[weights == 0.0] = -0.0
        want = scattered_sum(strings, weights / 2.0)
        want[np.diag_indices(batch.dim)] += np.sum(weights) / 2.0
        assert batch.weighted_sum(weights, rows).tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=weighted_rows, scale=st.sampled_from([1.0, 1e4, 1e8]), negative_zero=st.booleans())
    def test_dense_operator_has_the_bytes_of_the_dense_sum(self, case, scale, negative_zero):
        # the matrix the eigh fallback decomposes above dim 256; strings
        # with an odd count of Y put imaginary entries off the diagonal,
        # so a transposed matrix would not pass
        batch, rows, weights, _ = _batch_and_weights(case)
        weights = scale * weights
        if negative_zero:
            weights[weights == 0.0] = -0.0
        want = batch.weighted_sum(weights, rows)
        assert batch.weighted_operator(weights, rows).dense().tobytes() == want.tobytes()

    def test_only_the_learner_skips_the_check(self, monkeypatch):
        # at dim <= 256 the learner's dense gradients reach the eigen-step
        # without the h - h^dag check; the public entries run it first
        checked, stacked = [], []
        check, stack = linalg._hermitian, linalg._hermitian_stack
        monkeypatch.setattr(linalg, "_hermitian", lambda h: checked.append(np.shape(h)) or check(h))
        monkeypatch.setattr(linalg, "_hermitian_stack", lambda hs: stacked.append(len(hs)) or stack(hs))
        support, noise = build_distribution(3, "d1"), NoiseModel.gaussian(0.05)
        indices, values = draw_training_sets(support, ghz_density(3), 6, [(1, 0), (1, 1)], noise)
        hyps = learner.learn_each(support, indices, values, noise, 4)
        assert [h.iterations_used for h in hyps] == [4, 4]
        assert stacked and not checked
        linalg.smallest_eigenvector(np.eye(2))
        linalg.eigendecompose(np.eye(3))
        assert checked == [(2, 2), (3, 3)]


class TestEffectSum:
    @settings(max_examples=60, deadline=None)
    @given(case=weighted_rows)
    def test_matches_the_dense_sum(self, case):
        batch, rows, weights, _ = _batch_and_weights(case)
        g = batch.weighted_sum(weights, rows)
        op = batch.weighted_operator(weights, rows)
        assert isinstance(op, EffectSum) and op.dim == g.shape[0]
        # the fields the certificate and the zero rule read: the same bytes
        assert op.max_entry == float(np.max(np.abs(g)))
        assert op.diagonal.tobytes() == g.diagonal().real.tobytes()
        if op.max_entry <= 1e-12:
            # so both vanish, and neither is solved
            assert linalg._smallest_built(op) == linalg._smallest_built(g) == [None]
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
        x_rows = [i for i, p in enumerate(support.effects) if p.x]
        op = support.batch.weighted_operator(np.ones(3), np.array(x_rows[:3]))
        assert op._cols.shape == (2, 16)
        assert op.diagonal.tolist() == [1.5] * 16


class TestLearnPath:
    N10_CONFIG = dict(command="learn", n=10, dist="d1", m=20, threads=1)

    @staticmethod
    def _refuse_dense(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense gradient on the learn path above dim 256")

        monkeypatch.setattr(EffectBatch, "weighted_sum", refuse)
        monkeypatch.setattr(EffectSum, "dense", refuse)
        monkeypatch.setattr(linalg, "_hermitian_stack", refuse)
        solved = []
        real = learner._smallest_built

        def counted(hs, tol):
            # the type of each gradient that is solved, not vanishing
            pairs = real(hs, tol=tol)
            solved.extend(type(hs) for pair in pairs if pair is not None)
            return pairs

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

    def test_vanishing_operator_is_not_solved(self, monkeypatch):
        # one effect drawn twice with shot outcomes that sum to 1: the
        # residuals at I / d are not stationary, but the gradient's terms
        # cancel, so the eigen-step leaves it unsolved and the hypothesis
        # is I / d
        support = build_distribution(9, "d1")
        k = next(i for i, p in enumerate(support.effects) if p.x or p.z)
        solved = self._refuse_dense(monkeypatch)
        [hyp] = learner.learn_each(support, np.array([[k, k]]), np.array([[0.45, 0.55]]),
                                   NoiseModel.with_shots(20), 1)
        assert hyp.iterations_used == 0 and solved == []
        assert hyp.final_objective == pytest.approx(2 * 0.05**2)

    def test_operator_gradient_reads_one_set(self):
        # above dim 256 the gradient is one set's EffectSum; a chunk of
        # two would sum both sets, so it is refused
        support = build_distribution(9, "d1")
        indices, values = np.array([[1, 2], [3, 4]]), np.array([[0.5, 0.0], [1.0, 0.5]])
        r = np.full((2, 2), 0.25)
        assert isinstance(Objective(support.batch, indices[:1], values[:1]).gradient(r[:1]),
                          EffectSum)
        with pytest.raises(ValueError):
            Objective(support.batch, indices, values).gradient(r)

    def test_chunk_above_dim_256_holds_one_training_set(self, monkeypatch):
        # _STACK_ENTRIES is the square of the largest dense dim, so each
        # first-step stack at n = 9 holds one training set's EffectSum
        support = build_distribution(9, "d1")
        noise = NoiseModel.gaussian(0.05)
        indices, values = draw_training_sets(support, ghz_density(9), 20, [0, 1, 2], noise)
        stacks = []
        real = learner._smallest_built

        def counted(hs, tol):
            stacks.append(type(hs))
            return real(hs, tol=tol)

        monkeypatch.setattr(learner, "_smallest_built", counted)
        hyps = list(learner.learn_each(support, indices, values, noise, 1))
        assert [h.iterations_used for h in hyps] == [1, 1, 1]
        # each handed to the eigen-step as it is
        assert stacks == [EffectSum] * 3

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
        monkeypatch.setattr(learner, "_DENSE_GRADIENT_MAX_DIM", 512)
        want = run_learn(ExperimentConfig(**kwargs)).rows
        assert got == want
        assert [type(x) for x in got[0]] == [type(x) for x in want[0]]

    def test_noisy_cluster_learn_at_n9_completes(self, tmp_path):
        # the gradient of step 2 has 4 eigenvalues within 4e-15 of 0 and
        # the next at 9.1e-4, and its shift equals its top eigenvalue:
        # the power iteration contracts by about 0.998 per sweep and needs
        # more than the 10 * dim = 5120 sweeps of each start, so the step
        # takes the eigh fallback of the densified EffectSum. No cell is
        # pinned: the fallback's bytes move with the BLAS kernel
        cluster = ["XZIIIIIII", "ZXZIIIIII", "IZXZIIIII", "IIZXZIIII", "IIIZXZIII",
                   "IIIIZXZII", "IIIIIZXZI", "IIIIIIZXZ", "IIIIIIIZX"]
        config = ExperimentConfig(command="learn", n=9, dist="d1", m=20, generators=cluster,
                                  gauss_std=0.05, k_max=2, seed=401,
                                  out=str(tmp_path / "learn.csv"))
        assert run_learn(config).rows[0][4] == 2
