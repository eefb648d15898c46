"""Frank-Wolfe learning of a hypothesis state over the unit-trace PSD cone.

The objective is the sum of squared residuals between hypothesis
expectations and observed values. Each step moves toward the rank-1
projector on the smallest eigenvector of the gradient with step 1/k,
so every iterate is a convex combination of projectors: unit trace and
PSD by construction.

Every protocol learns through :func:`learn_each`, from the index and
value rows of its drawn training sets; it owns the rule for the first
step: exact data on a Y-free support takes the closed form
:func:`code_space_atoms`, one stacked pass per chunk of training sets,
and every other first step, and every later step, is the eigen-step.
Step 1 replaces I / d by its vertex, so a vertex handed in by
:func:`learn_each` needs no I / d. Residuals that are all exactly 0
make the gradient exactly 0, so no step builds a gradient for them.
Up to dim 256 a gradient is a dense matrix; above it, where the
eigen-step has no dense fallback, it is an
:class:`~qpac.states.EffectSum` of the same entries, and no step forms
a d x d gradient unless ``on_iterate`` asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .linalg import _EIGH_FALLBACK_MAX_DIM, _smallest_built
from .sampling import MeasurementDistribution, NoiseModel
from .states import DensityMatrix, EffectBatch, EffectSum, maximally_mixed

_ZERO_GRADIENT_TOL = 1e-12
_EIG_TOL = 1e-9
# matrix entries of the first-step gradients that learn_each solves as
# one stack (2^16 complex128 entries, 1 MB): 16 training sets at dim 64,
# and at dim 16 the 200 trials of a search group of four repeats
_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Hypothesis:
    """Learner output: the hypothesis state and run diagnostics."""

    sigma: DensityMatrix
    iterations_used: int
    final_objective: float


class Objective:
    """f(sigma) = sum_i (Tr(E_i sigma) - y_i)^2 for a training set drawn
    from a support: its support indices and observed values (one row of
    :func:`~qpac.sampling.draw_training_sets`), read as rows of the
    support's ``batch`` (:meth:`EffectBatch.rows`). Drawn indices name
    the support's effects by construction, so no item is checked.
    """

    def __init__(self, batch: EffectBatch, indices: np.ndarray, values: np.ndarray):
        self.batch = batch.rows(indices)
        self.values = values
        self.dim = self.batch.dim

    def residuals(self, sigma: np.ndarray) -> np.ndarray:
        return self.batch.expectations(sigma) - self.values

    def value(self, sigma: np.ndarray) -> float:
        r = self.residuals(sigma)
        return float(np.dot(r, r))

    def gradient(self, sigma: np.ndarray, residuals: np.ndarray | None = None) -> np.ndarray:
        """2 sum_i (Tr(E_i sigma) - y_i) E_i as a dense Hermitian matrix,
        from ``residuals`` when the caller has computed them at sigma."""
        if residuals is None:
            residuals = self.residuals(sigma)
        return self.batch.weighted_sum(2.0 * residuals)


def _step_gradient(obj: Objective, sigma: np.ndarray, residuals: np.ndarray):
    """The gradient at sigma as the eigen-step reads it, from the
    residuals there: the dense matrix of :meth:`Objective.gradient` up
    to dim 256, and above it, where the eigen-step has no dense
    fallback, the same sum as an :class:`~qpac.states.EffectSum`, with
    no d x d matrix."""
    if obj.dim > _EIGH_FALLBACK_MAX_DIM:
        return obj.batch.weighted_operator(2.0 * residuals)
    return obj.gradient(sigma, residuals=residuals)


def _vanishes(g: np.ndarray | EffectSum) -> bool:
    top = g.max_entry if isinstance(g, EffectSum) else float(np.max(np.abs(g)))
    return top <= _ZERO_GRADIENT_TOL


def code_space_atoms(batch: EffectBatch, indices: np.ndarray,
                     values: np.ndarray) -> list[np.ndarray | None]:
    """The first Frank-Wolfe vertex of each exact-data training set in
    closed form, or ``None`` where the rule does not apply: one stacked
    pass over a chunk of training sets of one width.

    ``indices`` and ``values`` are (T, m) arrays, one training set per
    row (as :func:`~qpac.sampling.draw_training_sets` gives them): item
    k of set t is row ``indices[t, k]`` of ``batch``, observed with
    value ``values[t, k]``. The effects of ``batch`` must be distinct,
    as a support's are (:class:`~qpac.sampling.MeasurementDistribution`
    rejects duplicates), so equal indices are the same string.

    The rule: when every observed value is exactly 1, the gradient at
    I / d is -sum_i E_i, and its bottom eigenspace is the joint +1
    space of the sampled Pauli strings (their code space). Any density
    matrix on that space solves the linear step (Jaggi 2013); the step
    takes the projector onto w = prod_i (I + P_i)/2 |1...1>, one factor
    per distinct string in the order of first draw: the vector to which
    the power iteration from the uniform vector converges, when it
    does. Each factor is a signed permutation, so this costs O(m 2^n).

    Values of exactly 1 observed on one state imply that the strings
    commute, so the factors commute and w is the projection of
    |1...1> onto the code space. Every entry of w is dyadic and
    <w|w> is a power of two, so the returned w w^dag / <w|w> is exact;
    on a support of Y-free stabilizers of the target every residual it
    leaves is exactly 0, 1/2 or 1.

    Returns ``None`` for a set where some value is not exactly 1, or
    where w = 0: |+^n> is orthogonal to the code space (a sampled
    X-type string with sign -1 does that), and the eigen-step has to
    choose.

    The sets whose values are all 1 share one (T, d) stack of w, and
    factor k of every set is applied as one array step. Where item k
    repeats an earlier string of its set (a draw with replacement),
    ``np.where`` keeps that set's w as it was, so each set gets the
    bytes that its lone call gives.

    :func:`learn_each` takes this step only on Y-free supports (every
    ``d2`` support). The pinned ``d1`` tables hold trials whose power
    iteration did not converge to this vector, so ``d1`` keeps the
    eigen-step until those tables are re-pinned.
    """
    atoms: list[np.ndarray | None] = [None] * len(indices)
    live = np.flatnonzero((values == 1.0).all(axis=1))
    if not live.size:
        return atoms
    rows = indices[live]
    dim = batch.dim
    # item k of stacked set t at [k, t]. A gather row holds i * dim +
    # perm_i, and perm_i < dim; the offset t * dim reads set t's row of
    # the flattened stack
    perm = (batch._gather_idx[rows.T] & (dim - 1)) + (np.arange(len(live)) * dim)[:, None]
    coeff = batch._coeff[rows.T]
    # item k is fresh where its index first appears in its set; the
    # offset t * len(batch) keeps the sets apart in one np.unique
    keys = rows + (np.arange(len(live)) * len(batch))[:, None]
    fresh = np.zeros(rows.shape, dtype=bool)
    fresh.flat[np.unique(keys, return_index=True)[1]] = True
    fresh = fresh.T[:, :, None]
    w = np.ones((len(live), dim), dtype=np.complex128)
    for k in range(rows.shape[1]):
        # P|i> = c_i |perm_i> and perm is an involution, so
        # (P w)[i] = c_perm_i w[perm_i]
        step = (w + (coeff[k] * w).ravel()[perm[k]]) / 2.0
        # a repeated string keeps w as it is
        w = np.where(fresh[k], step, w)
    norm2 = (w * w.conj()).real.sum(axis=1)
    solved = norm2 != 0.0
    w = w[solved]
    outer = w[:, :, None] * w.conj()[:, None, :]
    # complex factors, as a Python float scalar would be cast: a float64
    # operand makes numpy cast it per entry through a buffer
    outer *= (1.0 / norm2[solved]).astype(np.complex128)[:, None, None]
    for j, atom in zip(live[solved].tolist(), outer):
        atoms[j] = atom
    return atoms


def hazan_optimize(
    obj: Objective,
    k_max: int = 300,
    *,
    stop_objective: float | None = None,
    on_iterate: Callable[[int, float, float, np.ndarray], None] | None = None,
    first_atom: np.ndarray | None = None,
) -> Hypothesis:
    """Minimize the quadratic objective over unit-trace PSD matrices.

    The iterate starts at the maximally mixed state I / d. At step k it
    moves toward v v^dag with step 1/k, where v is the smallest
    eigenvector of the gradient; step 1 therefore replaces I / d
    entirely, and is taken in one pass as ``atom + 0.0``, the bytes of
    ``(1 - 1.0) I / d + 1.0 atom``.

    The stop rule: each step computes the residuals r once. When every
    entry of r is exactly 0, the gradient 2 sum_i r_i E_i is exactly 0
    and is not built; otherwise it is assembled from that r, and a
    gradient below the zero threshold stops the loop too. Either way
    sigma is optimal (convex objective) and the iteration stops moving.
    ``final_objective`` reuses r when sigma has not moved since.

    ``on_iterate(k, objective, gradient_min_eigenvalue, sigma)`` is
    called once per step before the update, e.g. to check every
    iterate's invariants; it sees the gradient even where it vanishes.
    ``stop_objective`` stops the loop once the objective is at most its
    value. No protocol sets it; it stays because the benchmark's
    per-layer tracer (``perfbench/tracing.py``) reads it by name, to
    tell a zero-gradient stop from a threshold stop.

    ``first_atom`` hands in the Frank-Wolfe vertex of step 1, solved by
    :func:`learn_each`; the caller guarantees that the gradient at
    I / d does not vanish, so step 1 neither builds nor tests it, and
    I / d itself is not built (unless ``on_iterate`` needs them). Every
    step applies the same update ``(1 - alpha) sigma + alpha atom``, so
    handing in the eigen-step's ``np.outer(v, v.conj())`` gives the
    bytes of a run without it.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")

    # I / d, built only where step 1 reads its residuals or gradient there
    sigma = (maximally_mixed(obj.dim.bit_length() - 1).matrix
             if first_atom is None or on_iterate is not None else None)
    atom = first_atom
    iterations = 0
    r = None  # the residuals at sigma, once computed
    for k in range(1, k_max + 1):
        g = None
        if atom is None or on_iterate is not None:
            if r is None:
                r = obj.residuals(sigma)
            if r.any() or on_iterate is not None:
                g = _step_gradient(obj, sigma, r)
        if on_iterate is not None:
            # the hook reads a dense gradient at every dim
            dense = g if isinstance(g, np.ndarray) else obj.gradient(sigma, residuals=r)
            on_iterate(k, float(np.dot(r, r)), float(np.linalg.eigvalsh(dense)[0]), sigma)
        if atom is None:
            if g is None or _vanishes(g):
                # stationary point of a convex objective: optimal, no
                # movement this or any later step
                break
            [(v, _)] = _smallest_built([g], tol=_EIG_TOL)
            atom = np.outer(v, v.conj())
        # the spent gradient, a d x d matrix up to dim 256, that the
        # update need not hold
        del g
        alpha = 1.0 / k
        # step 1 (alpha = 1) in one pass: atom + 0.0 is the bytes of
        # (1 - 1.0) * sigma + 1.0 * atom, every nonzero kept and every
        # zero +0.0
        sigma = atom + 0.0 if k == 1 else (1.0 - alpha) * sigma + alpha * atom
        atom = r = None
        iterations = k
        if stop_objective is not None:
            r = obj.residuals(sigma)
            if float(np.dot(r, r)) <= stop_objective:
                break

    if r is None:
        r = obj.residuals(sigma)
    return Hypothesis(
        # I / d or a convex combination of it and rank-1 projectors v v^dag
        sigma=DensityMatrix._built(sigma),
        iterations_used=iterations,
        final_objective=float(np.dot(r, r)),
    )


def learn_each(
    support: MeasurementDistribution,
    indices: np.ndarray,
    values: np.ndarray,
    noise: NoiseModel,
    k_max: int,
) -> Iterator[Hypothesis]:
    """One :func:`hazan_optimize` hypothesis per training set, in order:
    the learning path of every protocol. The training sets are the rows
    of the (T, m) ``indices`` and ``values`` arrays that
    :func:`~qpac.sampling.draw_training_sets` draws from ``support``
    under ``noise``; each row's objective reads its rows of the
    support's batch (:class:`Objective`).

    The first-step rule: on a Y-free support (every ``d2`` support), a
    training set of exact data takes the closed form of
    :func:`code_space_atoms` as its first vertex where that applies.
    Every other training set takes the eigen-step of its gradient at
    I / d. Training sets are learned in chunks of at most
    ``_STACK_ENTRIES`` gradient entries: a chunk's closed forms are one
    :func:`code_space_atoms` call, and its gradients one eigen-step
    stack (``linalg._smallest_built``, each pair that of
    :func:`~qpac.linalg.smallest_eigenvector`), which solves a
    repeated gradient once; above dim 256 a chunk holds one training
    set, whose gradient is an :class:`~qpac.states.EffectSum`. Each
    training set gets the bytes that
    learning it alone gives. A chunk whose first vertices are all
    closed forms builds no I / d. A training set
    whose residuals at I / d are all exactly 0 has an exactly zero
    gradient: it is neither assembled nor solved, and its optimization
    stops at I / d. A gradient that vanishes within the threshold is not
    solved either.
    """
    closed = noise.kind == "exact" and not any(e.pauli.x & e.pauli.z for e in support.effects)
    dim = 1 << support.n
    chunk = max(1, _STACK_ENTRIES // (dim * dim))
    for lo in range(0, len(indices), chunk):
        rows, vals = indices[lo:lo + chunk], values[lo:lo + chunk]
        objs = [Objective(support.batch, idx, v) for idx, v in zip(rows, vals)]
        atoms = (code_space_atoms(support.batch, rows, vals) if closed
                 else [None] * len(objs))
        grads = {}
        if any(atom is None for atom in atoms):
            mixed = maximally_mixed(support.n).matrix
            for j, obj in enumerate(objs):
                if atoms[j] is None and (r := obj.residuals(mixed)).any():
                    grads[j] = _step_gradient(obj, mixed, r)
            # a d x d matrix (16 MB at n = 10) that the optimizer need not hold
            del mixed
        live = [j for j, g in grads.items() if not _vanishes(g)]
        solved = _smallest_built([grads[j] for j in live], tol=_EIG_TOL)
        # d x d matrices up to dim 256, that the optimizer need not hold either
        del grads
        for j, (v, _) in zip(live, solved):
            atoms[j] = np.outer(v, v.conj())
        for obj in objs:
            # popped, so that no atom outlives its optimization
            yield hazan_optimize(obj, k_max=k_max, first_atom=atoms.pop(0))


def support_residuals(sigma: DensityMatrix, state: DensityMatrix,
                      dist: MeasurementDistribution) -> np.ndarray:
    """|Tr(E sigma) - Tr(E rho)| for every effect in the support."""
    batch = dist.batch
    return np.abs(batch.expectations(sigma.matrix) - batch.expected(state))


def error_share(residuals: np.ndarray, gamma: float) -> Fraction:
    """Exact share of residuals above gamma (strict inequality): the
    error rate of a hypothesis, given its support residuals."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return Fraction(int(np.count_nonzero(residuals > gamma)), len(residuals))


def evaluate_epsilon(sigma: DensityMatrix, state: DensityMatrix, dist: MeasurementDistribution,
                     gamma: float) -> float:
    """Exact probability mass of support effects whose prediction misses
    by more than gamma (strict inequality).

    The distribution is uniform over a finite support, so this is a
    fraction, not a Monte Carlo estimate.
    """
    return float(error_share(support_residuals(sigma, state, dist), gamma))
