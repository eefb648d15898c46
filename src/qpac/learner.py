"""Frank-Wolfe learning of a hypothesis state over the unit-trace PSD cone.

The objective is the sum of squared residuals between hypothesis
expectations and observed values. Each step moves toward the rank-1
projector on the smallest eigenvector of the gradient with step 1/k,
so every iterate is a convex combination of projectors: unit trace and
PSD by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .linalg import smallest_eigenvector
from .sampling import MeasurementDistribution, TrainingSet
from .states import DensityMatrix, MeasurementEffect, _pauli_action

_ZERO_GRADIENT_TOL = 1e-12
_EIG_TOL = 1e-9


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


def _maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128) / dim


def _vanishes(g: np.ndarray) -> bool:
    return float(np.max(np.abs(g))) <= _ZERO_GRADIENT_TOL


def hazan_optimize(
    obj: Objective,
    k_max: int = 300,
    *,
    eig_tol: float = _EIG_TOL,
    stop_objective: float | None = None,
    on_iterate: Callable[[int, float, float, np.ndarray], None] | None = None,
    first_step: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> Hypothesis:
    """Minimize the quadratic objective over unit-trace PSD matrices.

    Starts from the maximally mixed state. At step k the iterate moves
    toward v v^dag with step 1/k, where v is the smallest eigenvector of
    the gradient; the first step therefore replaces sigma entirely. A
    gradient below the zero threshold means sigma is already optimal
    (convex objective), so the iteration stops moving.

    ``on_iterate(k, objective, gradient_min_eigenvalue, sigma)`` is
    called once per step before the update, e.g. to check every
    iterate's invariants. ``stop_objective`` enables an early
    objective-threshold stop for speed-sensitive loops; it is disabled
    by default to mirror the fixed iteration protocol.

    ``first_step=(g, v)`` hands in the first step solved elsewhere, so
    a caller can solve many trials' first steps as one stack (see
    :meth:`~qpac.complexity.TrialCache.fill`): ``g`` is the gradient at
    I / d and ``v`` is what ``smallest_eigenvector(g, tol=eig_tol)``
    returns, or ``None`` when ``g`` is zero. Step 1 then takes the pair
    as its gradient and eigenvector, so ``sigma`` is byte-identical to
    a run without it; later steps solve their own.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    dim = obj.dim

    sigma = _maximally_mixed(dim)
    iterations = 0
    for k in range(1, k_max + 1):
        if k == 1 and first_step is not None:
            g, v = first_step
        else:
            g, v = obj.gradient(sigma), None
        if on_iterate is not None:
            vals = np.linalg.eigvalsh(g)
            on_iterate(k, obj.value(sigma), float(vals[0]), sigma)
        if _vanishes(g):
            # stationary point of a convex objective: optimal, no movement
            # this or any later step
            break
        if v is None:
            v, _ = smallest_eigenvector(g, tol=eig_tol)
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


def error_share(residuals: np.ndarray, gamma: float) -> Fraction:
    """Exact share of residuals above gamma (strict inequality): the
    error rate of a hypothesis, given its support residuals."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return Fraction(int(np.count_nonzero(residuals > gamma)), len(residuals))


def evaluate_epsilon(sigma, state: DensityMatrix, dist: MeasurementDistribution, gamma: float) -> float:
    """Exact probability mass of support effects whose prediction misses
    by more than gamma (strict inequality).

    The distribution is uniform over a finite support, so this is a
    fraction, not a Monte Carlo estimate.
    """
    return float(error_share(support_residuals(sigma, state, dist), gamma))
