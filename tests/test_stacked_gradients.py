"""A chunk's first-step gradients as one (T, d, d) array: the stacked
assembly against the lone dense sum, the eigen-step on the array
against lone calls, and the stacked certificate and phase step
against the lone rotation, byte for byte. None of these makes a BLAS
call, so their bytes hold under every kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    DensityMatrix,
    NoiseModel,
    Objective,
    build_distribution,
    ghz_density,
    maximally_mixed,
)
from qpac import learner, linalg
from qpac.sampling import draw_training_sets

from conftest import random_density

NOISES = {
    "exact": NoiseModel.exact(),
    "gauss": NoiseModel.gaussian(0.05),
    "shots": NoiseModel.with_shots(20),
}

# a drawn chunk of training sets with its residuals at I / d: n = 2..8
# on either support, every noise model, repeated rows (draws with
# replacement) and residuals of either signed zero
chunks = st.fixed_dictionaries(dict(
    n=st.integers(2, 8),
    label=st.sampled_from(["d1", "d2"]),
    noise=st.sampled_from(sorted(NOISES)),
    replacement=st.booleans(),
    m=st.integers(1, 12),
    sets=st.integers(1, 6),
    zeros=st.sampled_from([None, 0.0, -0.0]),
    seed=st.integers(0, 2**32 - 1),
))


def _target(n, noise):
    # exact GHZ values are all 1, so shots need a state whose values are not
    if noise != "shots":
        return ghz_density(n)
    return maximally_mixed(n) if n > 3 else DensityMatrix(
        random_density(np.random.default_rng(n), 1 << n))


def _chunk(case):
    """A support, (T, m) index rows and their residuals at I / d, with
    T no larger than a chunk of learn_each."""
    n = case["n"]
    dist = build_distribution(n, case["label"])
    m = case["m"] if case["replacement"] else min(case["m"], len(dist))
    sets = max(1, min(case["sets"], learner._STACK_ENTRIES // ((1 << n) * max(1 << n, m))))
    seeds = [(case["seed"], t) for t in range(sets)]
    indices, values = draw_training_sets(dist, _target(n, case["noise"]), m, seeds,
                                         NOISES[case["noise"]], case["replacement"])
    r = dist.batch.expected(maximally_mixed(n))[indices] - values
    if case["zeros"] is not None:
        r[:, ::2] = case["zeros"]
    return dist, indices, values, r


def _lone_sum(batch, rows, weights):
    """Dense sum_i w_i E_i over the batch rows ``rows``, one weighted
    row after another: the lone assembly, as the byte reference of the
    stack."""
    vals = (weights / 2.0)[:, None] * batch._coeff[rows]
    np.conjugate(vals, out=vals)
    g = np.zeros(batch.dim * batch.dim, dtype=np.complex128)
    np.add.at(g, batch._gather_idx[rows].ravel(), vals.ravel())
    g[batch._diag_idx] += np.sum(weights) / 2.0
    return g.reshape(batch.dim, batch.dim)


class TestStackedAssembly:
    @settings(max_examples=80, deadline=None)
    @given(case=chunks)
    def test_each_gradient_has_its_lone_bytes(self, case):
        dist, indices, values, r = _chunk(case)
        stack = Objective(dist.batch, indices, values).gradient(r)
        assert stack.shape == (len(indices), dist.batch.dim, dist.batch.dim)
        for g, idx, v, res in zip(stack, indices, values, r):
            want = _lone_sum(dist.batch, idx, 2.0 * res)
            assert g.tobytes() == want.tobytes()
            # a lone objective is the T = 1 case of the same call
            lone = Objective(dist.batch, idx, v).gradient(res)
            assert lone.shape == want.shape and lone.tobytes() == want.tobytes()
            # the operator of the same set adds the same entries
            op = dist.batch.weighted_operator(2.0 * res, idx)
            assert op.dense().tobytes() == want.tobytes()

    def test_repeated_rows_add_up_in_draw_order(self):
        # one string drawn three times with other weights: its entries sum
        # its three terms in row order, as the lone sum does
        dist = build_distribution(3, "d1")
        indices = np.array([[2, 5, 2, 2], [5, 5, 1, 5]])
        r = np.array([[0.1, -0.3, 0.7, -0.0], [1e-17, 0.25, -0.0, 0.3]])
        stack = dist.batch.weighted_sum(2.0 * r, indices)
        for g, idx, res in zip(stack, indices, r):
            assert g.tobytes() == _lone_sum(dist.batch, idx, 2.0 * res).tobytes()

    def test_scaling_in_place_keeps_the_bytes(self):
        # coeff *= w / 2 multiplies as (w / 2) * coeff does, for the
        # coefficients a batch holds (+-1, +-i) and any weight sign
        coeff = np.tile([1, -1, 1j, -1j, 1 + 0j, -1 + 0j, 0.0, -0.0], (8, 1))
        weights = np.array([0.3, -0.3, 0.0, -0.0, 1e-300, -5e-324, np.pi, -1.0])
        got = coeff.copy()
        got *= (weights / 2.0)[:, None]
        assert got.tobytes() == ((weights / 2.0)[:, None] * coeff).tobytes()


class TestStackedEigenStep:
    @settings(max_examples=40, deadline=None)
    @given(case=chunks, repeats=st.lists(st.integers(0, 5), min_size=1, max_size=8))
    def test_array_gives_the_pairs_of_lone_calls(self, case, repeats):
        dist, indices, values, r = _chunk(case)
        if dist.batch.dim > 64:
            r, indices, values = r[:1], indices[:1], values[:1]
        grads = Objective(dist.batch, indices, values).gradient(r)
        # repeats of some items, in the order given
        stack = grads[[k % len(grads) for k in repeats]]
        got = linalg._smallest_built(stack)
        assert len(got) == len(stack)
        for h, pair in zip(stack, got):
            # the zero rule; residuals of 0 make a zero gradient
            assert (pair is None) == (np.max(np.abs(h)) <= 1e-12)
            if pair is None:
                continue
            v, lam = pair
            w, mu = linalg.smallest_eigenvector(h)
            assert v.tobytes() == w.tobytes()
            assert lam == mu and type(lam) is type(mu)
        vectors = [pair[0] for pair in got if pair is not None]
        assert not any(np.shares_memory(a, b)
                       for k, a in enumerate(vectors) for b in vectors[k + 1:])

    def test_array_is_read_as_it_is(self, monkeypatch):
        # a stack with no repeats reaches the rule as the same array
        seen = []
        real = linalg._smallest
        monkeypatch.setattr(linalg, "_smallest",
                            lambda h, tol, max_sweeps: seen.append(h) or real(h, tol, max_sweeps))
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        stack = a + a.conj().transpose(0, 2, 1)
        linalg._smallest_built(stack)
        assert seen[0] is stack

    def test_vanishing_test_reads_the_stack(self):
        # one verdict per item, each the verdict of the item alone
        dist = build_distribution(3, "d1")
        indices = np.array([[1, 2], [3, 4], [1, 1]])
        r = np.array([[0.5, -0.5], [0.0, -0.0], [1e-14, 0.0]])
        stack = dist.batch.weighted_sum(2.0 * r, indices)
        got = [pair is None for pair in linalg._smallest_built(stack)]
        assert got == [linalg._smallest_built(g) == [None] for g in stack]
        assert got == [False, True, True]


def _at_threshold(top: float) -> np.ndarray:
    """A Hermitian 4 x 4 matrix whose largest entry modulus is ``top``."""
    h = np.diag([0.0, 0.5 * top, -0.25 * top, 0.0]).astype(np.complex128)
    h[0, 3], h[3, 0] = 1j * top, -1j * top
    return h


class TestZeroRule:
    """The eigen-step leaves a gradient whose largest entry modulus is at
    most 1e-12 unsolved, and solves one an ulp above it: on a stack, on
    a stack with repeats, and on an operator."""

    TOL = 1e-12
    ABOVE, BELOW = np.nextafter(TOL, 1.0), np.nextafter(TOL, 0.0)

    def _assert_verdicts(self, tops, got):
        assert [pair is None for pair in got] == [top <= self.TOL for top in tops]
        for top, pair in zip(tops, got):
            if pair is not None:
                v, lam = pair
                want_v, want_lam = linalg.smallest_eigenvector(_at_threshold(top))
                assert v.tobytes() == want_v.tobytes() and lam == want_lam

    def test_dense_stack(self):
        tops = [self.ABOVE, self.TOL, self.BELOW, 0.0]
        stack = np.array([_at_threshold(t) for t in tops])
        assert [np.max(np.abs(h)) for h in stack] == tops
        self._assert_verdicts(tops, linalg._smallest_built(stack))
        # a lone matrix, a stack of one
        for top in tops:
            self._assert_verdicts([top], linalg._smallest_built(_at_threshold(top)))

    def test_stack_with_repeats(self):
        tops = [self.TOL, self.ABOVE, self.TOL, self.BELOW, self.ABOVE, self.BELOW]
        got = linalg._smallest_built(np.array([_at_threshold(t) for t in tops]))
        self._assert_verdicts(tops, got)
        # repeats still get pairs of their own
        assert not np.shares_memory(got[1][0], got[4][0])

    def test_operator(self):
        # one X-type row with weight 2t: its diagonal holds t times the
        # row's coefficients, and the identity's t lands on the main
        # diagonal, so the largest entry modulus is t
        support = build_distribution(4, "d1")
        row = np.array([next(i for i, p in enumerate(support.effects) if p.x)])
        for top in (self.ABOVE, self.TOL, self.BELOW):
            op = support.batch.weighted_operator(np.array([2.0 * top]), row)
            assert op.max_entry == top
            got = linalg._smallest_built(op)
            assert [pair is None for pair in got] == [top <= self.TOL]
            assert got == [None] or got[0][0].tobytes() == linalg.smallest_eigenvector(
                op.dense())[0].tobytes()

    def test_public_entry_keeps_the_zero_pair(self):
        # smallest_eigenvector solves a matrix below the threshold, and
        # gives a zero matrix the pair (e_0, 0.0)
        v, lam = linalg.smallest_eigenvector(_at_threshold(self.BELOW))
        assert lam < 0.0
        v, lam = linalg.smallest_eigenvector(np.zeros((3, 3)))
        assert v.tolist() == [1.0, 0.0, 0.0] and lam == 0.0 and v.dtype == np.complex128


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    """The lone rotation: the largest-magnitude component made real and
    positive, one vector at a time."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if pivot != 0:
        v = v * (abs(pivot) / pivot)
        v[k] = v[k].real
    return v


def _assert_phases_match(stack):
    want = [_normalize_phase(v.copy()) for v in stack]
    got = linalg._normalize_phases(stack.copy())
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


class TestStackedPhase:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 64), count=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_random_rows(self, dim, count, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-8, 3, size=(count, dim))
        v = scale * (rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim)))
        _assert_phases_match(v)

    def test_edge_pivots(self):
        stack = np.array([
            [0.1 + 0.1j, -0.9 - 0.0j, 0.2j],       # negative real pivot, -0.0 imaginary part
            [0.6 + 0.0j, -0.0 - 0.8j, 0.0],         # imaginary pivot
            [0.6 + 0.8j, 0.8 - 0.6j, 0.1],          # a tie in |v|: the first one leads
            [-0.6 - 0.8j, 0.8 + 0.6j, -1.0 + 0.0j],  # a tie of three
            [0.0, 0.0, 0.0],                        # a zero row stays as it is
            [3e-300 - 4e-300j, 1e-301, 0.0],        # tiny moduli
            [np.sqrt(0.5) - np.sqrt(0.5) * 1j, 0.5, -0.5j],
        ])
        _assert_phases_match(stack)

    def test_certificate_and_phase_over_the_stack(self, rng):
        # items that pass the min-diagonal test at once, a converged pair
        # that fails it and restarts, a zero item and the eigh fallback,
        # each with the pair of a lone call
        dist = build_distribution(2, "d2")
        hs = np.array([
            np.diag([3.0, 1.0, 2.0, 5.0]).astype(np.complex128),
            np.zeros((4, 4), dtype=np.complex128),
            dist.batch.weighted_sum(np.array([1.0]), np.array([0])),
            dist.batch.weighted_sum(np.array([-1.0, -1.0]), np.array([0, 1])),
            -np.eye(4, dtype=np.complex128),
        ])
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hs = np.concatenate([hs, (a + a.conj().T)[None]])
        got = linalg._smallest_built(hs)
        # the zero item vanishes, so it has no pair
        assert got[1] is None
        for h, pair in zip(hs, got):
            if pair is not None:
                want_v, want_lam = linalg.smallest_eigenvector(h)
                assert pair[0].tobytes() == want_v.tobytes() and pair[1] == want_lam


@pytest.mark.parametrize("noise", [NoiseModel.exact(), NoiseModel.gaussian(0.05)])
def test_chunk_builds_one_gradient_call(noise, monkeypatch):
    # a chunk's moving training sets get their gradients from one call
    calls = []
    real = Objective.gradient
    monkeypatch.setattr(Objective, "gradient",
                        lambda obj, r: calls.append(r.shape) or real(obj, r))
    dist = build_distribution(6, "d1")
    indices, values = draw_training_sets(dist, ghz_density(6), 5, list(range(40)), noise)
    hyps = list(learner.learn_each(dist, indices, values, noise, 1))
    assert [h.iterations_used for h in hyps] == [1] * 40
    # 16 sets per chunk at dim 64
    assert calls == [(16, 5), (16, 5), (8, 5)]
