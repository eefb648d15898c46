"""Frank-Wolfe learning of a hypothesis state over the unit-trace PSD cone.

The objective is the sum of squared residuals between hypothesis
expectations and observed values. Each step moves toward the rank-1
projector on the smallest eigenvector of the gradient with step 1/k,
so every iterate is a convex combination of projectors: unit trace and
PSD by construction.

Every protocol learns through :func:`learn_each`, which owns the rule
for the first step: exact data on a Y-free support takes the closed
form :func:`code_space_atoms`, one stacked pass per chunk of training
sets, and every other first step, and every later step, is the
eigen-step. Step 1 replaces I / d by its vertex, so a vertex handed in
by :func:`learn_each` needs no I / d. Residuals that are all exactly 0
make the gradient exactly 0, so no step builds a gradient for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .linalg import smallest_eigenvector, smallest_eigenvectors
from .sampling import MeasurementDistribution, NoiseModel, TrainingSet
from .states import DensityMatrix, EffectBatch, maximally_mixed

_ZERO_GRADIENT_TOL = 1e-12
_EIG_TOL = 1e-9
# matrix entries of the first-step gradients that learn_each solves as
# one stack (2^15 complex128 entries, 512 KB): 8 training sets at dim 64
_STACK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class Hypothesis:
    """Learner output: the hypothesis state and run diagnostics."""

    sigma: DensityMatrix
    iterations_used: int
    final_objective: float


class Objective:
    """f(sigma) = sum_i (Tr(E_i sigma) - y_i)^2 for a training set.

    Given ``support``, the distribution a training set was drawn from,
    a set that records its draws' support ``indices`` takes its rows
    from the support's batch (:meth:`EffectBatch.rows`); any other set
    builds its own batch. Both give the same bytes. Raises
    ``ValueError`` when an indexed item is not the support's effect at
    its index. :meth:`drawn` builds the objective of a set from its
    indices and values alone.

    ``indices`` (the set's support positions, or ``None``) and
    ``noise`` are the set's, as :func:`code_space_atoms` and
    :func:`learn_each` read them.
    """

    def __init__(self, training: TrainingSet, support: MeasurementDistribution | None = None):
        if support is None or training.indices is None:
            self.batch = EffectBatch(training.effects())
        else:
            effects = support.effects
            for (e, _), i in zip(training.items, training.indices):
                if not 0 <= i < len(effects) or (e is not effects[i] and e != effects[i]):
                    raise ValueError(f"training item {e} is not effect {i} of the support")
            self.batch = support.batch.rows(training.indices)
        self.values = training.values()
        self.noise = training.noise
        self.indices = training.indices
        self.dim = self.batch.dim

    @classmethod
    def drawn(cls, support: MeasurementDistribution, indices: np.ndarray, values: np.ndarray,
              noise: NoiseModel) -> "Objective":
        """The objective of a training set drawn from ``support``, from
        its support indices and observed values (one row of
        :func:`~qpac.sampling.draw_training_sets`), with no per-item
        check: drawn indices name the support's effects by construction.
        The same bytes as the objective of its :class:`TrainingSet`."""
        obj = object.__new__(cls)
        obj.batch = support.batch.rows(indices)
        obj.values = values
        obj.noise = noise
        obj.indices = indices.tolist()
        obj.dim = obj.batch.dim
        return obj

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


def _as_matrix(sigma) -> np.ndarray:
    return sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma)


def _vanishes(g: np.ndarray) -> bool:
    return float(np.max(np.abs(g))) <= _ZERO_GRADIENT_TOL


def code_space_atoms(objs: Sequence[Objective]) -> list[np.ndarray | None]:
    """The first Frank-Wolfe vertex of each exact-data training set in
    closed form, or ``None`` where the rule does not apply: one stacked
    pass over a chunk of objectives on one qubit count (a lone objective
    is a list of one).

    Reads each set's observed values and each item's signed permutation
    from its objective, whose batch holds one row per item: the
    support's rows for a set with support ``indices``, which also tell
    the distinct strings apart, and a batch of its own otherwise, where
    equal effects are the same string.

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
    repeats an earlier string of its set (a draw with replacement), or
    lies past the end of a shorter set, ``np.where`` keeps that set's w
    as it was, so each set gets the bytes that its lone call gives.

    :func:`learn_each` takes this step only on Y-free supports (every
    ``d2`` support). The pinned ``d1`` tables hold trials whose power
    iteration did not converge to this vector, so ``d1`` keeps the
    eigen-step until those tables are re-pinned.
    """
    atoms: list[np.ndarray | None] = [None] * len(objs)
    live = [j for j, obj in enumerate(objs) if (obj.values == 1.0).all()]
    if not live:
        return atoms
    dim = objs[live[0]].dim
    width = max(len(objs[j].values) for j in live)
    # item k of stacked set t at [k, t]; padding rows stay 0 and masked
    gather = np.zeros((width, len(live), dim), dtype=np.int64)
    coeff = np.zeros((width, len(live), dim), dtype=np.complex128)
    fresh = np.zeros((width, len(live), 1), dtype=bool)
    for t, j in enumerate(live):
        batch, indices = objs[j].batch, objs[j].indices
        keys = batch.effects if indices is None else indices
        first: dict = {}
        for k, key in enumerate(keys):
            first.setdefault(key, k)
        fresh[list(first.values()), t] = True
        gather[:len(keys), t] = batch._gather_idx
        coeff[:len(keys), t] = batch._coeff
    # a gather row holds i * dim + perm_i, and perm_i < dim; the offset
    # t * dim reads set t's row of the flattened stack
    perm = (gather & (dim - 1)) + (np.arange(len(live)) * dim)[:, None]
    w = np.ones((len(live), dim), dtype=np.complex128)
    for k in range(width):
        # P|i> = c_i |perm_i> and perm is an involution, so
        # (P w)[i] = c_perm_i w[perm_i]
        step = (w + (coeff[k] * w).ravel()[perm[k]]) / 2.0
        # a repeated string, or no item, keeps w as it is
        w = np.where(fresh[k], step, w)
    norm2 = (w * w.conj()).real.sum(axis=1)
    solved = norm2 != 0.0
    w = w[solved]
    outer = w[:, :, None] * w.conj()[:, None, :]
    # complex factors, as a Python float scalar would be cast: a float64
    # operand makes numpy cast it per entry through a buffer
    outer *= (1.0 / norm2[solved]).astype(np.complex128)[:, None, None]
    for j, atom in zip(np.asarray(live)[solved], outer):
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
    ``stop_objective`` enables an early objective-threshold stop for
    speed-sensitive loops; it is disabled by default to mirror the
    fixed iteration protocol.

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
                g = obj.gradient(sigma, residuals=r)
        if on_iterate is not None:
            on_iterate(k, float(np.dot(r, r)), float(np.linalg.eigvalsh(g)[0]), sigma)
        if atom is None:
            if g is None or _vanishes(g):
                # stationary point of a convex objective: optimal, no
                # movement this or any later step
                break
            v, _ = smallest_eigenvector(g, tol=_EIG_TOL)
            atom = np.outer(v, v.conj())
        # the spent gradient is one d x d matrix (16 MB at n = 10) that
        # the update need not hold
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
    trainings: Iterable[TrainingSet | Objective],
    support: MeasurementDistribution,
    k_max: int,
) -> Iterator[Hypothesis]:
    """One :func:`hazan_optimize` hypothesis per training set, in order:
    the learning path of every protocol. A set comes as a
    :class:`TrainingSet` or as its objective (:meth:`Objective.drawn`).

    The first-step rule: on a Y-free support (every ``d2`` support), a
    training set of exact data takes the closed form of
    :func:`code_space_atoms` as its first vertex where that applies.
    Every other training set takes the eigen-step of its gradient at
    I / d. Training sets are learned in chunks of at most
    ``_STACK_ENTRIES`` gradient entries: a chunk's closed forms are one
    :func:`code_space_atoms` call, and its gradients one
    :func:`~qpac.linalg.smallest_eigenvectors` stack, which gives each
    training set the bytes that learning it alone gives. A chunk whose
    first vertices are all closed forms builds no I / d. A training set
    whose residuals at I / d are all exactly 0 has an exactly zero
    gradient: it is neither assembled nor solved, and its optimization
    stops at I / d. A gradient that vanishes within the threshold is not
    solved either.

    Each training set must be drawn from ``support``: its objective
    reads its rows from the support's batch (see :class:`Objective`),
    and the first-step rule reads the set's support indices and noise
    kind from that objective.
    """
    y_free = not any(e.pauli.x & e.pauli.z for e in support.effects)
    dim = 1 << support.n
    chunk = max(1, _STACK_ENTRIES // (dim * dim))
    trainings = iter(trainings)
    while part := list(islice(trainings, chunk)):
        objs = [t if isinstance(t, Objective) else Objective(t, support) for t in part]
        closed = [j for j, obj in enumerate(objs)
                  if y_free and obj.noise.kind == "exact"]
        atoms: list = [None] * len(objs)
        for j, atom in zip(closed, code_space_atoms([objs[j] for j in closed])):
            atoms[j] = atom
        grads = {}
        if any(atom is None for atom in atoms):
            mixed = maximally_mixed(support.n).matrix
            for j, obj in enumerate(objs):
                if atoms[j] is None and (r := obj.residuals(mixed)).any():
                    grads[j] = obj.gradient(mixed, residuals=r)
            # a d x d matrix (16 MB at n = 10) that the optimizer need not hold
            del mixed
        live = [j for j, g in grads.items() if not _vanishes(g)]
        solved = smallest_eigenvectors([grads[j] for j in live], tol=_EIG_TOL)
        # d x d matrices that the optimizer need not hold either
        del grads
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
        t = float(EffectBatch((eff,)).expectations(m)[0])
        bits = np.asarray(bits, dtype=float)
        s = bits.size
        # sum over bits of (t - b)^2 with b^2 = b
        total += s * t * t - 2.0 * t * float(bits.sum()) + float(bits.sum())
    return total


def support_residuals(sigma, state: DensityMatrix, dist: MeasurementDistribution) -> np.ndarray:
    """|Tr(E sigma) - Tr(E rho)| for every effect in the support."""
    batch = dist.batch
    return np.abs(batch.expectations(_as_matrix(sigma)) - batch.expected(state))


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
