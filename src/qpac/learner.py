"""Frank-Wolfe learning of a hypothesis state over the unit-trace PSD cone.

The objective is the sum of squared residuals between hypothesis
expectations and observed values. Each step moves toward the rank-1
projector on the smallest eigenvector of the gradient with step 1/k,
so every iterate is a convex combination of projectors: unit trace and
PSD by construction.

Every protocol learns through :func:`learn_each`, which owns the rule
for the first step: exact data on a Y-free support takes the closed
form :func:`code_space_atom`, and every other first step, and every
later step, is the eigen-step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .linalg import smallest_eigenvector, smallest_eigenvectors
from .sampling import MeasurementDistribution, TrainingSet
from .states import DensityMatrix, MeasurementEffect, _pauli_action

_ZERO_GRADIENT_TOL = 1e-12
_EIG_TOL = 1e-9
# matrix entries of the first-step gradients that learn_each solves as
# one stack (2^15 complex128 entries, 512 KB): 8 training sets at dim 64
_STACK_ENTRIES = 1 << 15


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


def code_space_atom(training: TrainingSet) -> np.ndarray | None:
    """The first Frank-Wolfe vertex of an exact-data training set in
    closed form, or ``None`` where the rule does not apply.

    The rule: when every observed value is exactly 1, the gradient at
    I / d is -sum_i E_i, and its bottom eigenspace is the joint +1
    space of the sampled Pauli strings (their code space). Any density
    matrix on that space solves the linear step (Jaggi 2013); the step
    takes the projector onto w = prod_i (I + P_i)/2 |1...1>, one factor
    per distinct string: the vector to which the power iteration from
    the uniform vector converges, when it does. Each factor is a signed
    permutation, so this costs O(m 2^n).

    Values of exactly 1 observed on one state imply that the strings
    commute, so the factors commute and w is the projection of
    |1...1> onto the code space. Every entry of w is dyadic and
    <w|w> is a power of two, so the returned w w^dag / <w|w> is exact;
    on a support of Y-free stabilizers of the target every residual it
    leaves is exactly 0, 1/2 or 1.

    Returns ``None`` when some value is not exactly 1, or when w = 0:
    |+^n> is orthogonal to the code space (a sampled X-type string with
    sign -1 does that), and the eigen-step has to choose.

    :func:`learn_each` takes this step only on Y-free supports (every
    ``d2`` support). The pinned ``d1`` tables hold trials whose power
    iteration did not converge to this vector, so ``d1`` keeps the
    eigen-step until those tables are re-pinned.
    """
    if not np.all(training.values() == 1.0):
        return None
    dim = 1 << training.items[0][0].n
    w = np.ones(dim, dtype=np.complex128)
    for p in dict.fromkeys(e.pauli for e in training.effects()):
        perm, coeff = _pauli_action(p)
        # P|k> = c_k |perm_k> and perm is an involution, so
        # (P w)[j] = c_perm_j w[perm_j]
        w = (w + (coeff * w)[perm]) / 2.0
    norm2 = float(np.vdot(w, w).real)
    if norm2 == 0.0:
        return None
    return np.outer(w, w.conj()) / norm2


def hazan_optimize(
    obj: Objective,
    k_max: int = 300,
    *,
    stop_objective: float | None = None,
    on_iterate: Callable[[int, float, float, np.ndarray], None] | None = None,
    first_atom: np.ndarray | None = None,
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

    ``first_atom`` hands in the Frank-Wolfe vertex of step 1, solved by
    :func:`learn_each`; the caller guarantees that the gradient at
    I / d does not vanish, so step 1 neither builds nor tests it (unless
    ``on_iterate`` needs it). Every step applies the same update
    ``(1 - alpha) sigma + alpha atom``, so handing in the eigen-step's
    ``np.outer(v, v.conj())`` gives the bytes of a run without it.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")

    sigma = _maximally_mixed(obj.dim)
    atom = first_atom
    iterations = 0
    for k in range(1, k_max + 1):
        g = obj.gradient(sigma) if atom is None or on_iterate is not None else None
        if on_iterate is not None:
            on_iterate(k, obj.value(sigma), float(np.linalg.eigvalsh(g)[0]), sigma)
        if atom is None:
            if _vanishes(g):
                # stationary point of a convex objective: optimal, no
                # movement this or any later step
                break
            v, _ = smallest_eigenvector(g, tol=_EIG_TOL)
            atom = np.outer(v, v.conj())
        # the spent gradient is one d x d matrix (16 MB at n = 10) that
        # the update need not hold
        del g
        alpha = 1.0 / k
        sigma = (1.0 - alpha) * sigma + alpha * atom
        atom = None
        iterations = k
        if stop_objective is not None and obj.value(sigma) <= stop_objective:
            break

    return Hypothesis(
        # I / d or a convex combination of it and rank-1 projectors v v^dag
        sigma=DensityMatrix._built(sigma),
        iterations_used=iterations,
        final_objective=obj.value(sigma),
    )


def learn_each(
    trainings: Iterable[TrainingSet], support: MeasurementDistribution, k_max: int
) -> Iterator[Hypothesis]:
    """One :func:`hazan_optimize` hypothesis per training set, in order:
    the learning path of every protocol.

    The first-step rule: on a Y-free support (every ``d2`` support), a
    training set of exact data takes :func:`code_space_atom` as its
    first vertex where that applies. Every other training set takes the
    eigen-step of its gradient at I / d. Those gradients are solved as
    one :func:`~qpac.linalg.smallest_eigenvectors` stack per chunk of at
    most ``_STACK_ENTRIES`` gradient entries, which gives each training
    set the bytes that learning it alone gives. A gradient that
    vanishes is not solved: its optimization stops at I / d.
    """
    y_free = not any(e.pauli.x & e.pauli.z for e in support.effects)
    dim = 1 << support.n
    chunk = max(1, _STACK_ENTRIES // (dim * dim))
    trainings = iter(trainings)
    while batch := list(islice(trainings, chunk)):
        objs = [Objective(t) for t in batch]
        atoms = [code_space_atom(t) if y_free and t.noise.kind == "exact" else None
                 for t in batch]
        mixed = _maximally_mixed(dim)
        grads = {j: obj.gradient(mixed) for j, obj in enumerate(objs) if atoms[j] is None}
        live = [j for j, g in grads.items() if not _vanishes(g)]
        solved = smallest_eigenvectors([grads[j] for j in live], tol=_EIG_TOL)
        # d x d matrices (16 MB each at n = 10) that the optimizer need not hold
        del mixed, grads
        for j, (v, _) in zip(live, solved):
            atoms[j] = np.outer(v, v.conj())
        for obj in objs:
            # popped, so that no atom outlives its optimization
            yield hazan_optimize(obj, k_max=k_max, first_atom=atoms.pop(0))


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
