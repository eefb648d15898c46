"""Eigen-routines: residual contracts, determinism, and the
wrong-eigenpair traps of fixed-start power iteration."""

import numpy as np
import pytest

from qpac import (
    ConvergenceError,
    MeasurementEffect,
    NonHermitianError,
    PauliString,
    eigendecompose,
    ghz_density,
    smallest_eigenvector,
    sqrt_psd,
)

from conftest import kron_dense, random_hermitian


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
        """Bottom eigenspace orthogonal to both the uniform start and
        low-diagonal probes still gets found (via the fallback)."""
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

    def test_nonconvergence_raises_beyond_fallback_dim(self, rng):
        # a large-dim input with a sweep budget of one cannot converge
        # or fall back, so it must raise
        h = np.asarray(random_hermitian(rng, 300))
        with pytest.raises(ConvergenceError):
            smallest_eigenvector(h, tol=1e-15, max_sweeps=1)
