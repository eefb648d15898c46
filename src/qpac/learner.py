"""Frank-Wolfe learning of a hypothesis state over the unit-trace PSD cone.

The objective is the sum of squared residuals between hypothesis
expectations and observed values. Each step moves toward the rank-1
projector on the smallest eigenvector of the gradient with step 1/k,
so every iterate is a convex combination of projectors: unit trace and
PSD by construction. Step 1 replaces I / d by its vertex, so a
hypothesis of one step is that vertex alone: a :class:`Vertex`, the
vector v of the projector scale * v v^dag, from which
:attr:`Hypothesis.sigma` builds the d x d matrix only when it is read.

Step 1 of every learn is :func:`_first_steps`, which takes it for a
chunk of training sets at once: exact data on a Y-free support takes
the closed form :func:`code_space_atoms`, and every other set the
eigen-step of its gradient at I / d, all of the chunk's gradients one
(T, d, d) array. Its step-1 residuals are one stacked pass over its
vertices (:meth:`EffectBatch.vertex_expectations`). Every protocol
learns through :func:`learn_each`, which hands each set its step 1 as
``first=``; a lone :func:`hazan_optimize` takes step 1 as a chunk of
one. Steps 2 onward are the eigen-step. A one-vertex hypothesis is
scored against its support the same way
(:func:`vertex_support_residuals`), so a trial that stops after step 1
builds no d x d matrix.

Residuals r bound the gradient 2 sum_i r_i E_i: every entry of an
effect has modulus at most 1, so no gradient entry exceeds
2 sum_i |r_i|. A step whose residuals give 4 sum_i |r_i| <= the zero
threshold therefore stops without building its gradient; that rule
covers residuals that are all exactly 0, and every stop it takes is
one that the built gradient would take too. Every step that builds
its gradient reads it from :meth:`Objective.gradient`: up to dim 256 a
dense matrix, or one (T, d, d) array for a chunk's first steps, above
it an :class:`~qpac.states.EffectSum` of the same entries, so no step
forms a d x d gradient unless the eigen-step's ``eigh`` fallback asks
for one. The eigen-step (``linalg._smallest_built``) takes that output
as it is and owns the zero-gradient rule: a gradient whose largest
entry modulus is at most the threshold vanishes, and is not solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .linalg import _ZERO_GRADIENT_TOL, _smallest_built
from .sampling import MeasurementDistribution, NoiseModel
from .states import DensityMatrix, EffectBatch, EffectSum, maximally_mixed

_EIG_TOL = 1e-9
# the largest dim whose gradients are dense matrices; above it they are
# EffectSums
_DENSE_GRADIENT_MAX_DIM = 256
# matrix entries of the stacks that _first_steps and fill_trials build
# for a chunk of training sets (2^16 complex128 entries, 1 MB): its
# first-step gradients, T x d x d, with their gathered positions and
# terms, T x m x d, and its vertex products, T x m x d or T x |S| x d.
# That is 16 training sets at dim 64, and at dim 16 the
# 200 trials of a search group of four repeats. It is the square of the
# largest dense dim, so that above it a chunk holds one training set,
# whose EffectSum _smallest_built must see alone
_STACK_ENTRIES = _DENSE_GRADIENT_MAX_DIM ** 2


@dataclass(frozen=True, eq=False)
class Vertex:
    """A Frank-Wolfe vertex scale * v v^dag, held as its vector: the
    eigen-step's unit v with scale 1, or a closed form's w with its
    exact scale 1 / <w|w> (:func:`code_space_atoms`)."""

    v: np.ndarray
    scale: float = 1.0

    def matrix(self) -> np.ndarray:
        """The first iterate at this vertex as a d x d matrix:
        ``np.outer(v, v.conj())``, scaled in place, then + 0.0. That is
        the bytes of step 1, ``(1 - 1.0) I / d + 1.0 atom``: every
        nonzero kept and every zero +0.0."""
        sigma = np.outer(self.v, self.v.conj())
        if self.scale != 1.0:
            sigma *= self.scale
        sigma += 0.0
        return sigma


def _stacked(vertices: Sequence[Vertex]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, d) vectors and (T,) scales of a sequence of vertices."""
    return np.array([x.v for x in vertices]), np.array([x.scale for x in vertices])


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """Learner output: the hypothesis state and run diagnostics.

    ``iterate`` is the :class:`Vertex` of a hypothesis that stopped
    after step 1 without building its matrix, and the d x d iterate of
    any other. :attr:`sigma` is the state either way, built from the
    vertex on first read (:meth:`Vertex.matrix`).
    """

    iterate: np.ndarray | Vertex
    iterations_used: int
    final_objective: float

    @property
    def vertex(self) -> Vertex | None:
        """The one vertex that this hypothesis is, else None."""
        return self.iterate if isinstance(self.iterate, Vertex) else None

    @cached_property
    def sigma(self) -> DensityMatrix:
        # I / d or a convex combination of it and rank-1 projectors v v^dag
        vertex = self.vertex
        return DensityMatrix._built(self.iterate if vertex is None else vertex.matrix())


class Objective:
    """f(sigma) = sum_i (Tr(E_i sigma) - y_i)^2 for a training set drawn
    from a support: its support indices and observed values (one row of
    :func:`~qpac.sampling.draw_training_sets`), read as rows of the
    support's ``batch`` (the ``rows`` of :meth:`EffectBatch.expectations`).
    Drawn indices name the support's effects by construction, so no
    item is checked.

    Only :meth:`gradient` also reads a chunk of T training sets, (T, m)
    indices and values as :func:`_first_steps` builds one; every other
    method reads one set.
    """

    def __init__(self, batch: EffectBatch, indices: np.ndarray, values: np.ndarray):
        self.support_batch = batch
        self.indices = indices
        self.values = values
        self.dim = batch.dim

    def residuals(self, sigma: np.ndarray) -> np.ndarray:
        return self.support_batch.expectations(sigma, self.indices) - self.values

    def value(self, sigma: np.ndarray) -> float:
        r = self.residuals(sigma)
        return float(np.dot(r, r))

    def gradient(self, residuals: np.ndarray) -> np.ndarray | EffectSum:
        """2 sum_i r_i E_i, the gradient at the sigma whose
        :meth:`residuals` are r, in the form the eigen-step reads: a
        dense Hermitian matrix up to dim 256, and above it the same sum
        as an :class:`~qpac.states.EffectSum`, with no d x d matrix.

        An objective of a chunk of T training sets, (T, m) indices and
        values as :func:`_first_steps` builds one, takes (T, m) residuals
        and returns the (T, d, d) stack of their gradients from one
        :meth:`EffectBatch.weighted_sum` call; a lone set's matrix is the
        T = 1 case of that call. Above dim 256 a chunk holds one set.
        """
        weights = 2.0 * residuals
        if self.dim > _DENSE_GRADIENT_MAX_DIM:
            # one set's EffectSum: unpacking raises on a chunk of several
            (idx,) = self.indices.reshape(-1, self.indices.shape[-1])
            return self.support_batch.weighted_operator(weights.reshape(idx.shape), idx)
        return self.support_batch.weighted_sum(weights, self.indices)


def _stationary(r: np.ndarray) -> np.ndarray:
    """Whether residuals r (one set, or one per row) bound the gradient
    2 sum_i r_i E_i within the zero threshold: every entry of an effect
    has modulus at most 1, so 4 sum_i |r_i| <= the threshold leaves the
    gradient's entries at half of it, with room for rounding."""
    return 4.0 * np.abs(r).sum(axis=-1) <= _ZERO_GRADIENT_TOL


def code_space_atoms(batch: EffectBatch, indices: np.ndarray,
                     values: np.ndarray) -> list[Vertex | None]:
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
    <w|w> is a power of two, so the vertex ``Vertex(w, 1 / <w|w>)`` is
    exact; on a support of Y-free stabilizers of the target every
    residual it leaves is exactly 0, 1/2 or 1. No w w^dag is formed.

    Returns ``None`` for a set where some value is not exactly 1, or
    where w = 0: |+^n> is orthogonal to the code space (a sampled
    X-type string with sign -1 does that), and the eigen-step has to
    choose.

    The sets whose values are all 1 share one (T, d) stack of w, and
    factor k of every set is applied as one array step
    (:meth:`EffectBatch.apply`, which alone reads the batch's tables).
    Where item k
    repeats an earlier string of its set (a draw with replacement),
    ``np.where`` keeps that set's w as it was, so each set gets the
    bytes that its lone call gives.

    :func:`learn_each` takes this step only on Y-free supports (every
    ``d2`` support). The pinned ``d1`` tables hold trials whose power
    iteration did not converge to this vector, so ``d1`` keeps the
    eigen-step until those tables are re-pinned.
    """
    atoms: list[Vertex | None] = [None] * len(indices)
    live = np.flatnonzero((values == 1.0).all(axis=1))
    if not live.size:
        return atoms
    rows = indices[live]
    # item k is fresh where its index first appears in its set; the
    # offset t * len(batch) keeps the sets apart in one np.unique
    keys = rows + (np.arange(len(live)) * len(batch))[:, None]
    fresh = np.zeros(rows.shape, dtype=bool)
    fresh.flat[np.unique(keys, return_index=True)[1]] = True
    fresh = fresh.T[:, :, None]
    w = np.ones((len(live), batch.dim), dtype=np.complex128)
    for k in range(rows.shape[1]):
        step = (w + batch.apply(rows[:, k], w)) / 2.0
        # a repeated string keeps w as it is
        w = np.where(fresh[k], step, w)
    norm2 = (w * w.conj()).real.sum(axis=1)
    solved = norm2 != 0.0
    for j, v, norm in zip(live[solved].tolist(), w[solved], norm2[solved].tolist()):
        atoms[j] = Vertex(v, 1.0 / norm)
    return atoms


def _first_steps(batch: EffectBatch, rows: np.ndarray, values: np.ndarray,
                 closed: bool) -> list[tuple[Vertex | None, np.ndarray]]:
    """Step 1 of each training set of a chunk, the (T, m) index and
    value arrays ``rows`` and ``values`` over ``batch``: per set, its
    vertex, or None where it stops at I / d, and its residuals there.

    With ``closed`` (exact data on a Y-free support), a set takes the
    closed form of :func:`code_space_atoms` as its vertex where that
    applies. Every other set reads its residuals at I / d from the
    batch's table of I / d (:meth:`EffectBatch.expected`). A set whose
    residuals there bound its gradient within the zero threshold (all
    exactly 0, say) has no gradient built, and stops at I / d. The
    others' gradients are one :meth:`Objective.gradient` call, a
    (T, d, d) array up to dim 256 and above it one set's
    :class:`~qpac.states.EffectSum`, handed to the eigen-step as it is
    (``linalg._smallest_built``, each pair that of
    :func:`~qpac.linalg.smallest_eigenvector`), which solves a repeated
    gradient once and leaves a vanishing one at I / d. The step-1
    residuals of all vertices are one
    :meth:`EffectBatch.vertex_expectations` pass. A chunk whose
    vertices are all closed forms builds no I / d.

    Each set gets its own copy of its residual row, so that its
    ``np.dot`` sums a fresh allocation as a lone run's does: under some
    BLAS kernels ``ddot`` sums a row that starts off a 16-byte boundary
    in another order.
    """
    vertices = code_space_atoms(batch, rows, values) if closed else [None] * len(rows)
    residuals = np.empty(rows.shape)
    start = [j for j, vertex in enumerate(vertices) if vertex is None]
    if start:
        mixed = maximally_mixed(batch.dim.bit_length() - 1)
        residuals[start] = batch.expected(mixed)[rows[start]] - values[start]
        sets = np.array(start)[~_stationary(residuals[start])]
        if sets.size:
            grads = Objective(batch, rows[sets], values[sets]).gradient(residuals[sets])
            for j, pair in zip(sets.tolist(), _smallest_built(grads, tol=_EIG_TOL)):
                if pair is not None:
                    vertices[j] = Vertex(pair[0])
            # d x d matrices up to dim 256, that the optimizer need not hold
            del grads
    stepped = [j for j, vertex in enumerate(vertices) if vertex is not None]
    if stepped:
        v, scale = _stacked([vertices[j] for j in stepped])
        residuals[stepped] = batch.vertex_expectations(v, scale, rows[stepped]) - values[stepped]
    return list(zip(vertices, map(np.array, residuals)))


def hazan_optimize(
    obj: Objective,
    k_max: int = 300,
    *,
    stop_objective: float | None = None,
    first: tuple[Vertex | None, np.ndarray] | None = None,
) -> Hypothesis:
    """Minimize the quadratic objective over unit-trace PSD matrices.

    The iterate starts at the maximally mixed state I / d. At step k it
    moves toward v v^dag with step 1/k, where v is the smallest
    eigenvector of the gradient; step 1 therefore replaces I / d
    entirely by its vertex.

    Step 1 is ``first``, a (vertex, residuals) pair of
    :func:`_first_steps`, as :func:`learn_each` hands it in; without it
    the run takes :func:`_first_steps` of its own set, a chunk of one
    with no closed form: the eigen-step. A vertex of None stops the run
    at I / d with 0 iterations. The step-1 iterate is built
    (:meth:`Vertex.matrix`, the bytes of ``(1 - 1.0) I / d + 1.0
    atom``) only to take step 2, so a run that stops after step 1
    returns the vertex as its hypothesis.

    Each later step runs in one order: a stop when the residuals r at
    sigma bound the gradient within the zero threshold (4 sum |r_i| <=
    it, which residuals of exactly 0 meet), so it is not built; the
    gradient ``obj.gradient(r)``, handed to the eigen-step, which stops
    the run when it vanishes within the threshold; then the update. At
    either stop sigma is optimal (convex objective) and the iteration
    stops moving. ``final_objective`` is read from the last residuals.

    ``stop_objective`` stops the loop before a step once the objective
    is at most its value. No protocol sets it; it stays because the
    benchmark's per-layer tracer (``perfbench/tracing.py``) reads it by
    name, to tell a zero-gradient stop from a threshold stop.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    if first is None:
        [first] = _first_steps(obj.support_batch, obj.indices[None], obj.values[None], False)
    vertex, r = first
    if vertex is None:
        return Hypothesis(maximally_mixed(obj.dim.bit_length() - 1).matrix, 0,
                          float(np.dot(r, r)))

    # sigma_1, the vertex, is built where it is read
    sigma, iterations = None, 1
    for k in range(2, k_max + 1):
        if stop_objective is not None and float(np.dot(r, r)) <= stop_objective:
            break
        # either stop is a stationary point of a convex objective:
        # optimal, no movement this or any later step
        if _stationary(r):
            break
        if sigma is None:
            sigma = vertex.matrix()
        [pair] = _smallest_built(obj.gradient(r), tol=_EIG_TOL)
        if pair is None:
            break
        atom = np.outer(pair[0], pair[0].conj())
        alpha = 1.0 / k
        sigma = (1.0 - alpha) * sigma + alpha * atom
        r = obj.residuals(sigma)
        iterations = k
    return Hypothesis(vertex if sigma is None else sigma, iterations, float(np.dot(r, r)))


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

    Training sets are learned in chunks whose stacks hold at most
    ``_STACK_ENTRIES`` entries (above dim 256, one set). Step 1 of a
    chunk is one :func:`_first_steps` call, with the closed form on a
    Y-free support (every ``d2`` support) for exact data, and each set's
    step 1 goes to its :func:`hazan_optimize` call as ``first=``. Each
    training set gets the bytes that learning it alone gives.
    """
    closed = noise.kind == "exact" and not any(p.x & p.z for p in support.effects)
    batch, dim = support.batch, 1 << support.n
    chunk = max(1, _STACK_ENTRIES // (dim * max(dim, indices.shape[1])))
    for lo in range(0, len(indices), chunk):
        rows, vals = indices[lo:lo + chunk], values[lo:lo + chunk]
        for idx, v, first in zip(rows, vals, _first_steps(batch, rows, vals, closed)):
            yield hazan_optimize(Objective(batch, idx, v), k_max, first=first)


def support_residuals(sigma: DensityMatrix, state: DensityMatrix,
                      dist: MeasurementDistribution) -> np.ndarray:
    """|Tr(E sigma) - Tr(E rho)| for every effect in the support.

    I / d, kept per process, reads its Tr(E sigma) from the support's
    table of it (:meth:`EffectBatch.expected`), as the target does:
    every entry is exactly 1/2, which that rule's checks and clamp leave
    as :meth:`EffectBatch.expectations` computes it.
    """
    batch = dist.batch
    predicted = (batch.expected(sigma) if sigma is maximally_mixed(dist.n)
                 else batch.expectations(sigma.matrix))
    return np.abs(predicted - batch.expected(state))


def vertex_support_residuals(vertices: Sequence[Vertex], state: DensityMatrix,
                             dist: MeasurementDistribution) -> np.ndarray:
    """:func:`support_residuals` of each one-vertex hypothesis, as one
    (T, |S|) array with no d x d matrix: row t has the bytes of
    ``support_residuals`` of ``vertices[t]``'s sigma. The vertices are
    scored in chunks whose (T, |S|, d) products hold at most
    ``_STACK_ENTRIES`` entries, one
    :meth:`EffectBatch.vertex_expectations` pass each."""
    batch, expected = dist.batch, dist.batch.expected(state)
    found = np.empty((len(vertices), len(batch)))
    chunk = max(1, _STACK_ENTRIES // (len(batch) * batch.dim))
    for lo in range(0, len(vertices), chunk):
        v, scale = _stacked(vertices[lo:lo + chunk])
        found[lo:lo + chunk] = np.abs(batch.vertex_expectations(v, scale) - expected)
    return found


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
