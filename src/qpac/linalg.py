"""Dense Hermitian eigen-routines: smallest eigenvector, full
eigendecomposition, PSD matrix square root.

The smallest-eigenvector routine is a shifted power iteration on
(c*I - h) with c the induced 1-norm bound on the spectrum. The start
vector is the exact uniform (all-ones) vector: a fixed, deterministic
choice that also preserves coordinate symmetries of structured inputs
bit-for-bit, which downstream accuracy checks at knife-edge thresholds
rely on.

A small residual only certifies nearness to *some* eigenvector, so a
converged candidate must also pass the min-diagonal test (lam <= min_k
h_kk, a necessary condition for the bottom eigenvalue). On failure the
iteration restarts once from the basis vector with the smallest
diagonal entry; if that is still not certifiable, or the sweep budget
runs out, the full decomposition is the fallback for dim <= 256 and
larger inputs raise.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NonHermitianError

_EIGH_FALLBACK_MAX_DIM = 256


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NonHermitianError(f"not square: {h.shape}")
    if h.size == 0:
        raise NonHermitianError("empty matrix")
    scale = 1.0 + float(np.max(np.abs(h)))
    # written so that NaN fails each comparison; an inf entry makes the
    # scale inf, which would otherwise excuse any asymmetry
    if not (scale < np.inf and np.max(np.abs(h - h.conj().T)) <= 1e-10 * scale):
        raise NonHermitianError("matrix is not finite and Hermitian within tolerance")
    return h


def eigendecompose(h: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a
    Hermitian matrix. Thin wrapper over LAPACK with a hermiticity check."""
    h = _check_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def sqrt_psd(h: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix.

    Eigenvalues in [-1e-9, 0) are clipped to zero; anything more
    negative raises.
    """
    vals, vecs = eigendecompose(h)
    if vals[0] < -1e-9:
        raise ValueError(f"matrix has significantly negative eigenvalue {vals[0]}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.conj().T


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude component is real and positive."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if pivot != 0:
        v = v * (abs(pivot) / pivot)
        v[k] = v[k].real
    return v


def _power_iterate(h, v, c, tol, max_entry, max_sweeps):
    """Power sweeps on (c*I - h) from start v; returns (v, lam, converged)."""
    lam = 0.0
    for _ in range(max_sweeps):
        hv = h @ v
        lam = float(np.real(np.vdot(v, hv)))
        resid = hv - lam * v
        # denom is a lower bound on ||h||_2, so stopping here implies
        # the tol * ||h||_2 contract
        denom = max(max_entry, abs(lam))
        if float(np.linalg.norm(resid)) <= tol * denom:
            return v, lam, True
        w = c * v - hv
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            # v is an exact eigenvector of the top eigenvalue c; the
            # caller's certificate will reject and restart
            return v, lam, True
        v = w / nrm
    return v, lam, False


def smallest_eigenvector(h: np.ndarray, tol: float = 1e-9, max_sweeps: int | None = None):
    """Unit eigenvector of the smallest eigenvalue of a Hermitian matrix.

    Returns ``(v, lam)`` with ``||h v - lam v|| <= tol * ||h||`` and lam
    the minimum eigenvalue. Deterministic for fixed input; in degenerate
    eigenspaces returns the vector the fixed-start iteration converges
    to. Raises :class:`ConvergenceError` only when dim > 256 and the
    sweep budget is exhausted without a certifiable bottom eigenpair.
    """
    h = _check_hermitian(h)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    dim = h.shape[0]
    if max_sweeps is None:
        max_sweeps = 10 * dim

    max_entry = float(np.max(np.abs(h)))
    if max_entry == 0.0:
        v = np.zeros(dim, dtype=np.complex128)
        v[0] = 1.0
        return v, 0.0

    c = float(np.max(np.sum(np.abs(h), axis=0)))
    diag = np.real(np.diag(h))
    min_diag = float(np.min(diag))

    start = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    for attempt in range(2):
        v, lam, ok = _power_iterate(h, start, c, tol, max_entry, max_sweeps)
        # necessary condition for the bottom eigenvalue: lam <= min h_kk
        if ok and lam <= min_diag + tol * max(max_entry, abs(lam)):
            return _normalize_phase(v), lam
        if attempt == 0:
            start = np.zeros(dim, dtype=np.complex128)
            start[int(np.argmin(diag))] = 1.0

    if dim <= _EIGH_FALLBACK_MAX_DIM:
        vals, vecs = np.linalg.eigh(h)
        v = _normalize_phase(vecs[:, 0].astype(np.complex128))
        return v, float(vals[0])
    raise ConvergenceError(
        f"power iteration did not reach a certified bottom eigenpair "
        f"in {max_sweeps} sweeps (dim {dim})"
    )
