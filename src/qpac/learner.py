"""Frank-Wolfe learning of a hypothesis state over the unit-trace PSD cone.

The objective is the sum of squared residuals between hypothesis
expectations and observed values. Each step moves toward the rank-1
projector on the smallest eigenvector of the gradient with step 1/k,
so every iterate is a convex combination of projectors: unit trace and
PSD by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .linalg import smallest_eigenvector
from .sampling import MeasurementDistribution, TrainingSet
from .states import DensityMatrix, MeasurementEffect, _pauli_action

_ZERO_GRADIENT_TOL = 1e-12


class EffectBatch:
    """Vectorized expectations of a fixed tuple of effects.

    Precomputes the signed-permutation gather for every Pauli string so
    all Tr(E_i sigma) evaluate as one fancy-indexed contraction.
    """

    def __init__(self, effects: Sequence[MeasurementEffect]):
        self.effects = tuple(effects)
        if not self.effects:
            raise ValueError("empty effect batch")
        n = self.effects[0].n
        if any(e.n != n for e in self.effects):
            raise ValueError("effect batch mixes qubit counts")
        self.dim = 1 << n
        rows = np.arange(self.dim, dtype=np.int64)
        gather = []
        scatter = []
        coeffs = []
        for e in self.effects:
            perm, coeff = _pauli_action(e.pauli)
            # Tr(P sigma) reads sigma[k, perm[k]]; the matrix of P has its
            # entries at [perm[k], k]
            gather.append(rows * self.dim + perm)
            scatter.append(perm * self.dim + rows)
            coeffs.append(coeff)
        self._gather_idx = np.array(gather)     # (m, dim) indices into sigma.flat
        self._scatter_idx = np.array(scatter)
        self._coeff = np.array(coeffs)          # (m, dim) signed coefficients
        self._diag_idx = rows * self.dim + rows

    def __len__(self) -> int:
        return len(self.effects)

    def expectations(self, sigma: np.ndarray) -> np.ndarray:
        """All Tr(E_i sigma) = (Tr(sigma) + Tr(P_i sigma)) / 2.

        Valid for any square matrix, not just unit-trace ones, so the
        objective stays an exact quadratic under off-plane probes.
        """
        flat = sigma.ravel()
        tr = np.real(np.sum(flat[self._diag_idx]))
        traces = np.real(np.sum(self._coeff * flat[self._gather_idx], axis=1))
        return (tr + traces) / 2.0

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """Dense sum_i w_i E_i, assembled from the symbolic actions."""
        g = np.zeros(self.dim * self.dim, dtype=np.complex128)
        vals = (weights[:, None] / 2.0) * self._coeff
        np.add.at(g, self._scatter_idx.ravel(), vals.ravel())
        g[self._diag_idx] += np.sum(weights) / 2.0
        return g.reshape(self.dim, self.dim)


@lru_cache(maxsize=256)
def _distribution_batch(effects: tuple) -> EffectBatch:
    return EffectBatch(effects)


@dataclass(frozen=True)
class Hypothesis:
    """Learner output: the hypothesis state and run diagnostics."""

    sigma: DensityMatrix
    iterations_used: int
    final_objective: float


class Objective:
    """f(sigma) = sum_i (Tr(E_i sigma) - y_i)^2 for a training set."""

    def __init__(self, training: TrainingSet):
        self.training = training
        self.batch = EffectBatch(training.effects())
        self.values = training.values()
        self.dim = self.batch.dim

    def residuals(self, sigma: np.ndarray) -> np.ndarray:
        return self.batch.expectations(sigma) - self.values

    def value(self, sigma: np.ndarray) -> float:
        r = self.residuals(sigma)
        return float(np.dot(r, r))

    def gradient(self, sigma: np.ndarray) -> np.ndarray:
        """2 sum_i (Tr(E_i sigma) - y_i) E_i as a dense Hermitian matrix."""
        return self.batch.weighted_sum(2.0 * self.residuals(sigma))


def _as_matrix(sigma) -> np.ndarray:
    return sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma)


def objective_value(obj: Objective, sigma) -> float:
    m = _as_matrix(sigma)
    if m.shape != (obj.dim, obj.dim):
        raise ValueError(f"dimension mismatch: {m.shape} vs {obj.dim}")
    return obj.value(m)


def gradient(obj: Objective, sigma) -> np.ndarray:
    m = _as_matrix(sigma)
    if m.shape != (obj.dim, obj.dim):
        raise ValueError(f"dimension mismatch: {m.shape} vs {obj.dim}")
    return obj.gradient(m)


def hazan_optimize(
    obj: Objective,
    k_max: int = 300,
    *,
    eig_tol: float = 1e-9,
    stop_objective: float | None = None,
    on_iterate: Callable[[int, float, float, np.ndarray], None] | None = None,
    bottom_vectors: dict[tuple[float, bytes], np.ndarray] | None = None,
) -> Hypothesis:
    """Minimize the quadratic objective over unit-trace PSD matrices.

    Starts from the maximally mixed state. At step k the iterate moves
    toward v v^dag with step 1/k, where v is the smallest eigenvector of
    the gradient; the first step therefore replaces sigma entirely. A
    gradient below the zero threshold means sigma is already optimal
    (convex objective), so the iteration stops moving.

    ``on_iterate(k, objective, gradient_min_eigenvalue, sigma)`` is
    called once per step before the update, e.g. for a diagnostic trace
    (see :class:`IterationTrace`). ``stop_objective`` enables an early
    objective-threshold stop for speed-sensitive loops; it is disabled
    by default to mirror the fixed iteration protocol.

    ``bottom_vectors`` memoizes the first step's eigen-step across
    calls: a dict from ``(eig_tol, sha1 of the gradient's bytes)`` to
    the read-only bottom eigenvector, so each call adds at most one
    entry. :func:`smallest_eigenvector` is a deterministic function of
    those bytes and the tolerance, so a hit returns the vector a fresh
    call would, and ``sigma`` is byte-identical with or without the
    dict. Later steps are neither looked up nor stored: their gradients
    depend on the path taken and rarely recur, so storing them would
    grow the dict by one vector per step for few hits. The owner
    decides the dict's lifetime (one
    :class:`~qpac.complexity.TrialCache` holds one); without it nothing
    is hashed.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    dim = obj.dim

    sigma = np.eye(dim, dtype=np.complex128) / dim
    iterations = 0
    for k in range(1, k_max + 1):
        g = obj.gradient(sigma)
        if on_iterate is not None:
            vals = np.linalg.eigvalsh(g)
            on_iterate(k, obj.value(sigma), float(vals[0]), sigma)
        if float(np.max(np.abs(g))) <= _ZERO_GRADIENT_TOL:
            # stationary point of a convex objective: optimal, no movement
            # this or any later step
            break
        if bottom_vectors is None or k > 1:
            v, _ = smallest_eigenvector(g, tol=eig_tol)
        else:
            # the first gradient, taken at I / d, is the one that repeats:
            # a redrawn exact training set gives it again in any order
            key = (eig_tol, hashlib.sha1(g).digest())
            v = bottom_vectors.get(key)
            if v is None:
                v, _ = smallest_eigenvector(g, tol=eig_tol)
                v.setflags(write=False)
                bottom_vectors[key] = v
        alpha = 1.0 / k
        sigma = (1.0 - alpha) * sigma + alpha * np.outer(v, v.conj())
        iterations = k
        if stop_objective is not None and obj.value(sigma) <= stop_objective:
            break

    return Hypothesis(
        # I / d or a convex combination of it and rank-1 projectors v v^dag
        sigma=DensityMatrix._built(sigma),
        iterations_used=iterations,
        final_objective=obj.value(sigma),
    )


class IterationTrace:
    """Collects (k, objective, gradient min eigenvalue) per step and
    writes them as a small CSV for diagnostics."""

    def __init__(self):
        self.rows: list[tuple[int, float, float]] = []

    def __call__(self, k, objective, grad_min_eig, sigma):
        self.rows.append((k, objective, grad_min_eig))

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("k,objective,gradient_min_eigenvalue\n")
            for k, f, lam in self.rows:
                fh.write(f"{k},{f!r},{lam!r}\n")


def shot_objective_value(outcomes, sigma) -> float:
    """Single-outcome objective sum_ij (Tr(E_i sigma) - b_ij)^2 over raw
    per-shot bits grouped per effect."""
    m = _as_matrix(sigma)
    total = 0.0
    for eff, bits in outcomes:
        batch = _distribution_batch((eff,))
        t = float(batch.expectations(m)[0])
        bits = np.asarray(bits, dtype=float)
        s = bits.size
        # sum over bits of (t - b)^2 with b^2 = b
        total += s * t * t - 2.0 * t * float(bits.sum()) + float(bits.sum())
    return total


def support_residuals(sigma, state: DensityMatrix, dist: MeasurementDistribution) -> np.ndarray:
    """|Tr(E sigma) - Tr(E rho)| for every effect in the support."""
    m = _as_matrix(sigma)
    batch = _distribution_batch(dist.effects)
    return np.abs(batch.expectations(m) - batch.expectations(state.matrix))


def evaluate_epsilon(sigma, state: DensityMatrix, dist: MeasurementDistribution, gamma: float) -> float:
    """Exact probability mass of support effects whose prediction misses
    by more than gamma (strict inequality).

    The distribution is uniform over a finite support, so this is a
    fraction, not a Monte Carlo estimate.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    resid = support_residuals(sigma, state, dist)
    return float(np.count_nonzero(resid > gamma)) / len(resid)
