"""Eigen-routines: residual contracts, determinism, and the
wrong-eigenpair traps of fixed-start power iteration."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    NonHermitianError,
    PauliString,
    build_distribution,
    eigendecompose,
    ghz_density,
    maximally_mixed,
    smallest_eigenvector,
    sqrt_psd,
)
from qpac import linalg
from qpac.learner import EffectBatch

from conftest import kron_dense, objective, random_hermitian


class TestEigendecompose:
    def test_pauli_z(self):
        vals, _ = eigendecompose(np.diag([1.0, -1.0]))
        assert np.allclose(vals, [-1, 1])

    def test_ghz2_spectrum(self):
        vals, _ = eigendecompose(ghz_density(2).matrix)
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)

    def test_reconstruction(self, rng):
        h = random_hermitian(rng, 8)
        vals, vecs = eigendecompose(h)
        scale = np.linalg.norm(h, 2)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.conj().T - h, 2) <= 1e-8 * scale
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) <= 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSqrtPsd:
    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_zero(self):
        assert np.allclose(sqrt_psd(np.zeros((3, 3))), 0)

    def test_squares_back(self, rng):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = a @ a.conj().T
        s = sqrt_psd(h)
        assert np.max(np.abs(s @ s - h)) <= 1e-7 * max(1.0, np.max(np.abs(h)))

    def test_negative_clipped_vs_rejected(self):
        sqrt_psd(np.diag([1.0, -5e-10]))  # rounding-level: clipped
        with pytest.raises(ValueError):
            sqrt_psd(np.diag([1.0, -1e-3]))


class TestSmallestEigenvector:
    def test_simple_diagonal(self):
        v, lam = smallest_eigenvector(np.diag([3.0, 1.0, 2.0]))
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert abs(v[1]) == pytest.approx(1.0, abs=1e-9)
        assert v[1].real > 0  # phase normalization

    def test_negated_effect_returns_plus_one_eigenvector(self):
        for text in ("XX", "ZZ", "-YY", "ZIZ"):
            p = PauliString.from_text(text)
            h = -(np.eye(2**p.n) + kron_dense(p)) / 2
            v, lam = smallest_eigenvector(h)
            assert lam == pytest.approx(-1.0, abs=1e-9)
            assert np.allclose(kron_dense(p) @ v, v, atol=1e-7)

    def test_fully_degenerate_identity(self):
        v, lam = smallest_eigenvector(np.eye(5))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        v, lam = smallest_eigenvector(np.zeros((4, 4)))
        assert lam == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_positive_effect_trap(self):
        """The uniform start is an exact eigenvector of the *top*
        eigenvalue here; the certificate must reject it and still find
        the bottom eigenspace."""
        p = PauliString.from_text("XXXX")
        h = 0.3 * (np.eye(16) + kron_dense(p)) / 2
        v, lam = smallest_eigenvector(h)
        assert lam == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(h @ v, 0, atol=1e-8)

    def test_hidden_bottom_subspace(self):
        """Bottom eigenspace orthogonal to the uniform start still gets
        found: the restart from e_0 reaches it, without the eigh
        fallback."""
        u1 = np.zeros(4); u1[0], u1[3] = 1, -1; u1 /= np.sqrt(2)
        u2 = np.zeros(4); u2[1], u2[2] = 1, -1; u2 /= np.sqrt(2)
        h = -np.outer(u1, u1) - np.outer(u2, u2)
        v, lam = smallest_eigenvector(h)
        assert lam == pytest.approx(-1.0, abs=1e-9)
        assert np.linalg.norm(h @ v - lam * v) <= 1e-7

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_residual_contract_random(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(100):
            h = random_hermitian(rng, dim)
            v, lam = smallest_eigenvector(h, tol=1e-9)
            norm2 = float(np.linalg.norm(h, 2))
            assert np.linalg.norm(h @ v - lam * v) <= 1e-9 * norm2
            vals, _ = eigendecompose(h)
            assert lam == pytest.approx(float(vals[0]), abs=1e-8 * max(1.0, norm2))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, rng):
        h = random_hermitian(rng, 12)
        v1, l1 = smallest_eigenvector(h)
        v2, l2 = smallest_eigenvector(h)
        assert np.array_equal(v1, v2)
        assert l1 == l2

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            smallest_eigenvector(np.array([[0.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "h",
        [
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.full((2, 2), np.nan),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.array([[0.0, np.inf], [np.inf, 0.0]]),
            # an inf entry must not scale the tolerance up to excuse its
            # finite transpose partner
            np.array([[0.0, np.inf], [1.0, 0.0]]),
        ],
    )
    def test_non_finite_rejected(self, h):
        with pytest.raises(NonHermitianError):
            smallest_eigenvector(h)
        with pytest.raises(NonHermitianError):
            eigendecompose(h)

    def test_empty_matrix_rejected(self):
        with pytest.raises(NonHermitianError, match="empty"):
            smallest_eigenvector(np.zeros((0, 0)))

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            smallest_eigenvector(np.eye(2), tol=0.0)

    @staticmethod
    def _hidden_bottom_gradient():
        # the gradient at I / 8 of the hand-built set -ZIZ, +YYX, +YXY, all
        # values 1: its bottom eigenvalue is -3, and the uniform start
        # vector has no component in that eigenspace
        items = tuple((PauliString.from_text(t), 1.0)
                      for t in ("-ZIZ", "+YYX", "+YXY"))
        obj = objective(items)
        return obj.gradient(obj.residuals(maximally_mixed(3).matrix))

    def test_certified_contract_without_bottom_eigenvalue(self):
        h = self._hidden_bottom_gradient()
        v, lam = smallest_eigenvector(h, tol=1e-9)
        max_entry = float(np.max(np.abs(h)))
        assert np.linalg.norm(h @ v - lam * v) <= 1e-9 * float(np.linalg.norm(h, 2))
        assert lam <= float(np.min(np.diag(h).real)) + 1e-9 * max(max_entry, abs(lam))

    # strict: once the eigen-step returns the bottom pair this passes,
    # fails the marker, and the marker goes
    @pytest.mark.xfail(strict=True, reason="the certificate admits an eigenpair above the bottom")
    def test_hidden_bottom_eigenvalue_is_found(self):
        h = self._hidden_bottom_gradient()
        _, lam = smallest_eigenvector(h, tol=1e-9)
        assert lam == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-8)

    def test_nonconvergence_falls_back_beyond_dim_256(self, rng):
        # a sweep budget of one cannot certify a pair, so even above dim
        # 256 the eigh fallback returns the bottom one
        h = np.asarray(random_hermitian(rng, 300))
        _, lam = smallest_eigenvector(h, tol=1e-15, max_sweeps=1)
        assert lam == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)


def _reference_power_iterate(h, v, c, tol, max_entry, max_sweeps):
    """The allocating form of the power sweep, with ``np.linalg.norm``:
    the float operations ``linalg._power_iterate`` must reproduce bit
    for bit."""
    lam = 0.0
    for _ in range(max_sweeps):
        hv = h @ v
        lam = float(np.real(np.vdot(v, hv)))
        resid = hv - lam * v
        denom = max(max_entry, abs(lam))
        if float(np.linalg.norm(resid)) <= tol * denom:
            return v, lam, True
        w = c * v - hv
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return v, lam, True
        v = w / nrm
    return v, lam, False


def _reference_smallest(h, tol=1e-9):
    """``smallest_eigenvector`` driven by the reference sweep; also
    returns how many sweep attempts ran and whether ``eigh`` decided."""
    attempts = []

    def sweep(*args):
        attempts.append(None)
        return _reference_power_iterate(*args)

    with mock.patch.object(linalg, "_power_iterate", sweep), \
            mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        v, lam = smallest_eigenvector(h, tol=tol)
    return v, lam, len(attempts), eigh.called


def _assert_same_bits(h, tol=1e-9):
    want_v, want_lam, attempts, fell_back = _reference_smallest(h, tol)
    v, lam = smallest_eigenvector(h, tol=tol)
    assert v.tobytes() == want_v.tobytes()
    assert lam == want_lam and type(lam) is type(want_lam)
    return attempts, fell_back


def _stabilizer_sum(n: int, label: str, picks: list, weights: list) -> np.ndarray:
    effects = build_distribution(n, label).effects
    chosen = [effects[i % len(effects)] for i in picks]
    # a repeated effect is a repeated draw: its weight adds up
    return EffectBatch(chosen).weighted_sum(np.array(weights[: len(chosen)]),
                                            np.arange(len(chosen)))


def _solve_built(hs, tol=1e-9):
    """The learner's stacked eigen-step, which skips the h - h^dag check:
    on bytewise Hermitian matrices, as the learner's gradients are, its
    pairs are those of ``smallest_eigenvector``."""
    assert all(np.array_equal(h, h.conj().T) for h in hs)
    return linalg._smallest_built(np.array(hs, dtype=np.complex128), tol=tol)


def _assert_stack_same_bits(hs, tol=1e-9):
    got = _solve_built(hs, tol=tol)
    assert len(got) == len(hs)
    runs = []
    for h, (v, lam) in zip(hs, got):
        want_v, want_lam, attempts, fell_back = _reference_smallest(h, tol)
        assert v.tobytes() == want_v.tobytes()
        assert lam == want_lam and type(lam) is type(want_lam)
        runs.append((attempts, fell_back))
    return runs


class TestSweepBitIdentity:
    """The buffer-reusing sweep returns the bytes of the allocating one,
    and so does each item of a stacked solve."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([1e-9, 1e-6]))
    def test_random_hermitian(self, dim, seed, tol):
        _assert_same_bits(random_hermitian(np.random.default_rng(seed), dim), tol)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        label=st.sampled_from(["d1", "d2"]),
        picks=st.lists(st.integers(0, 63), min_size=1, max_size=40),
        # exact data gives weights 2 (1/2 - y) in {-1, 0, 1}; noisy data
        # gives anything in [-1, 1]
        weights=st.lists(
            st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
            min_size=40, max_size=40,
        ),
    )
    def test_stabilizer_sums(self, n, label, picks, weights):
        _assert_same_bits(_stabilizer_sum(n, label, picks, weights))

    def test_restart(self):
        # first-step gradient of one +1 stabilizer draw with value 0: the
        # uniform start exhausts the sweep budget and e_0 converges
        attempts, fell_back = _assert_same_bits(_stabilizer_sum(2, "d2", [0], [1.0]))
        assert (attempts, fell_back) == (2, False)

    def test_eigh_fallback(self):
        # exact first-step gradient of both GHZ_2 XZ-stabilizers: neither
        # start converges within the budget, so eigh decides
        attempts, fell_back = _assert_same_bits(_stabilizer_sum(2, "d2", [0, 1], [-1.0, -1.0]))
        assert (attempts, fell_back) == (2, True)


    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(1, 64), count=st.integers(2, 64),
           seed=st.integers(0, 2**32 - 1), stabilizer_share=st.floats(0.0, 1.0),
           tol=st.sampled_from([1e-9, 1e-6]))
    def test_random_stacks(self, dim, count, seed, stabilizer_share, tol):
        rng = np.random.default_rng(seed)
        n = dim.bit_length() - 1
        hs = []
        # no larger than the stacks of a batch fill, 2^16 entries
        for _ in range(min(count, max(2, (1 << 16) // dim**2))):
            if dim == 1 << n and n >= 2 and rng.random() < stabilizer_share:
                # exact data gives weights in {-1, 0, 1}, noisy data any in [-1, 1]
                weights = (rng.integers(-1, 2, size=40) if rng.random() < 0.5
                           else rng.uniform(-1.0, 1.0, size=40))
                picks = rng.integers(0, 64, size=int(rng.integers(1, 41)))
                hs.append(_stabilizer_sum(n, str(rng.choice(["d1", "d2"])),
                                          list(picks), list(weights.astype(float))))
            else:
                hs.append(random_hermitian(rng, dim))
        _assert_stack_same_bits(hs, tol)

    def test_mixed_stack(self, rng):
        hs = [
            _stabilizer_sum(2, "d2", [0], [1.0]),            # restarts from e_0
            random_hermitian(rng, 4),
            _stabilizer_sum(2, "d2", [0, 1], [-1.0, -1.0]),  # falls back to eigh
            np.zeros((4, 4)),
            np.diag([3.0, 1.0, 2.0, 5.0]),
            _stabilizer_sum(2, "d1", [0, 1, 2], [-1.0, 1.0, 0.5]),
            -np.eye(4),                                      # converges at once
            random_hermitian(rng, 4),
        ]
        runs = _assert_stack_same_bits(hs)
        assert runs[0] == (2, False)
        assert runs[2] == (2, True)
        assert runs[3] == (0, False)

    def test_items_leave_at_their_own_sweep(self, monkeypatch):
        # only a one-item stack runs the scalar kernel
        scalar = []
        real = linalg._power_iterate

        def counted(h, v, c, tol, max_entry, max_sweeps):
            scalar.append(max_sweeps)
            return real(h, v, c, tol, max_entry, max_sweeps)

        monkeypatch.setattr(linalg, "_power_iterate", counted)
        # converged after 1, 2, 17 and 23 of their 40 sweeps
        hs = [-np.eye(4), np.diag([0.0, 1.0, 1.0, 1.0]),
              _stabilizer_sum(2, "d1", [0, 1, 2], [-1.0, 1.0, 0.5]), np.diag([-2.0, 1.0, 0.5, 1.0])]
        got = _solve_built(hs)
        # the slowest item runs its sweeps after the 17th in a stack of one
        assert scalar == []
        assert _solve_built(hs[3:])[0][0].tobytes() == got[3][0].tobytes()
        assert scalar == [40]
        monkeypatch.setattr(linalg, "_power_iterate", real)
        for h, (v, lam) in zip(hs, got):
            want_v, want_lam, _, _ = _reference_smallest(h)
            assert v.tobytes() == want_v.tobytes() and lam == want_lam

    def test_empty_stack(self):
        assert linalg._smallest_built([]) == []

    @pytest.mark.parametrize("bad", [
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
    ])
    def test_bad_item_rejected(self, bad, rng):
        # a built stack skips the h - h^dag check, not the finiteness check
        with pytest.raises(NonHermitianError):
            linalg._smallest_built(np.array([random_hermitian(rng, 2), bad, np.eye(2)],
                                            dtype=np.complex128))


class TestRepeatedItems:
    """A stack solves each distinct matrix once; every item still gets
    the pair of a lone call, in arrays of its own."""

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 16), distinct=st.integers(1, 5), count=st.integers(2, 24),
           seed=st.integers(0, 2**32 - 1))
    def test_repeats_match_lone_calls(self, dim, distinct, count, seed):
        rng = np.random.default_rng(seed)
        n = dim.bit_length() - 1
        pool = [np.zeros((dim, dim)), -np.eye(dim)]
        for _ in range(distinct):
            if dim == 1 << n and n >= 2 and rng.random() < 0.5:
                # exact first-step gradients: the restart and eigh paths
                picks = list(rng.integers(0, 64, size=int(rng.integers(1, 6))))
                pool.append(_stabilizer_sum(n, str(rng.choice(["d1", "d2"])), picks,
                                            [-1.0] * len(picks)))
            else:
                pool.append(random_hermitian(rng, dim))
        # equal bytes in distinct arrays
        hs = [pool[k].astype(np.complex128) for k in rng.integers(0, len(pool), size=count)]
        stacks, got = _stack_lengths(lambda: _solve_built(hs))
        assert stacks == [len({h.tobytes() for h in hs})]
        for h, (v, lam) in zip(hs, got):
            want_v, want_lam = smallest_eigenvector(h)
            assert v.tobytes() == want_v.tobytes()
            assert lam == want_lam and type(lam) is type(want_lam)
        vectors = [v for v, _ in got]
        assert not any(np.shares_memory(a, b)
                       for k, a in enumerate(vectors) for b in vectors[k + 1:])

    def test_signed_zero_is_another_matrix(self):
        # equal values with other bytes are solved apart, each as alone
        h = np.diag([-1.0, 0.0, 2.0]).astype(np.complex128)
        g = h.copy()
        g[0, 1] = g[1, 0] = -0.0
        stacks, got = _stack_lengths(lambda: _solve_built([h, g, h]))
        assert stacks == [2]
        for m, (v, lam) in zip([h, g, h], got):
            want_v, want_lam = smallest_eigenvector(m)
            assert v.tobytes() == want_v.tobytes() and lam == want_lam


def _stack_lengths(solve):
    """The length of every stack that reaches the eigen-step rule
    while ``solve()`` runs, and its result."""
    with mock.patch.object(linalg, "_smallest", wraps=linalg._smallest) as rule:
        got = solve()
    return [len(call.args[0]) for call in rule.call_args_list], got
