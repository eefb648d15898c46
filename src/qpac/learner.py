"""Frank-Wolfe learning of a hypothesis state over the unit-trace PSD cone.

The objective is the sum of squared residuals between hypothesis
expectations and observed values. Each step moves toward the rank-1
projector on the smallest eigenvector of the gradient with step 1/k,
so every iterate is a convex combination of projectors: unit trace and
PSD by construction. Step 1 replaces I / d by its vertex, so a
hypothesis of one step is that vertex alone: a :class:`Vertex`, the
vector v of the projector scale * v v^dag, from which
:attr:`Hypothesis.sigma` builds the d x d matrix only when it is read.

Every protocol learns through :func:`learn_each`, from the index and
value rows of its drawn training sets; it owns the rule for the first
step: exact data on a Y-free support takes the closed form
:func:`code_space_atoms`, one stacked pass per chunk of training sets,
and every other first step, and every later step, is the eigen-step.
A chunk's step-1 residuals are one stacked pass over its vertices
(:meth:`EffectBatch.vertex_expectations`), and a one-vertex
hypothesis is scored against its support the same way
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
for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .linalg import _smallest_built
from .sampling import MeasurementDistribution, NoiseModel
from .states import DensityMatrix, EffectBatch, EffectSum, maximally_mixed

_ZERO_GRADIENT_TOL = 1e-12
_EIG_TOL = 1e-9
# the largest dim whose gradients are dense matrices; above it they are
# EffectSums
_DENSE_GRADIENT_MAX_DIM = 256
# matrix entries of the stacks that learn_each and fill_trials build
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
    support's ``batch`` (:meth:`EffectBatch.rows`), sliced on the first
    read of :attr:`batch`. Drawn indices name the support's effects by
    construction, so no item is checked.

    Only :meth:`gradient` also reads a chunk of T training sets, (T, m)
    indices and values as :func:`learn_each` builds one; every other
    method reads one set.
    """

    def __init__(self, batch: EffectBatch, indices: np.ndarray, values: np.ndarray):
        self.support_batch = batch
        self.indices = indices
        self.values = values
        self.dim = batch.dim

    @cached_property
    def batch(self) -> EffectBatch:
        """The training set's rows of the support's batch."""
        return self.support_batch.rows(self.indices)

    def residuals(self, sigma: np.ndarray) -> np.ndarray:
        return self.batch.expectations(sigma) - self.values

    def vertex_residuals(self, vertex: Vertex) -> np.ndarray:
        """:meth:`residuals` at the first iterate ``vertex.matrix()``,
        without that matrix (:meth:`EffectBatch.vertex_expectations`)."""
        v, scale = _stacked([vertex])
        [found] = self.support_batch.vertex_expectations(v, scale, self.indices[None])
        return found - self.values

    def value(self, sigma: np.ndarray) -> float:
        r = self.residuals(sigma)
        return float(np.dot(r, r))

    def gradient(self, residuals: np.ndarray) -> np.ndarray | EffectSum:
        """2 sum_i r_i E_i, the gradient at the sigma whose
        :meth:`residuals` are r, in the form the eigen-step reads: a
        dense Hermitian matrix up to dim 256, and above it the same sum
        as an :class:`~qpac.states.EffectSum`, with no d x d matrix.

        An objective of a chunk of T training sets, (T, m) indices and
        values as :func:`learn_each` builds one, takes (T, m) residuals
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


def _vanishes(g: np.ndarray | EffectSum) -> np.ndarray:
    """Whether a gradient vanishes within the zero threshold: one
    verdict for a matrix or an EffectSum, and one per item of a
    (T, d, d) stack, from one modulus pass over it."""
    top = g.max_entry if isinstance(g, EffectSum) else np.abs(g).max(axis=(-2, -1))
    return top <= _ZERO_GRADIENT_TOL


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


def hazan_optimize(
    obj: Objective,
    k_max: int = 300,
    *,
    stop_objective: float | None = None,
    first_vertex: Vertex | None = None,
    first_residuals: np.ndarray | None = None,
) -> Hypothesis:
    """Minimize the quadratic objective over unit-trace PSD matrices.

    The iterate starts at the maximally mixed state I / d. At step k it
    moves toward v v^dag with step 1/k, where v is the smallest
    eigenvector of the gradient; step 1 therefore replaces I / d
    entirely, and is taken in one pass as ``atom + 0.0``, the bytes of
    ``(1 - 1.0) I / d + 1.0 atom``.

    Each step runs in one order: the residuals r at sigma; a stop when
    r bounds the gradient within the zero threshold (4 sum |r_i| <= it,
    which residuals of exactly 0 meet), so it is not built; the
    gradient ``obj.gradient(r)``; a stop when it vanishes within the
    threshold; then the eigen-step. At either stop sigma is optimal
    (convex objective) and the iteration stops moving.
    ``final_objective`` reuses r when sigma has not moved since.

    ``stop_objective`` stops the loop once the objective is at most its
    value. No protocol sets it; it stays because the benchmark's
    per-layer tracer (``perfbench/tracing.py``) reads it by name, to
    tell a zero-gradient stop from a threshold stop.

    ``first_vertex`` hands in the vertex of step 1, solved by
    :func:`learn_each`; the caller guarantees that the gradient at
    I / d does not vanish, so step 1 neither builds nor tests it, and
    I / d itself is not built. ``first_residuals`` are the training
    residuals at that vertex, as :func:`learn_each` computes them for a
    chunk at once; without them they are
    :meth:`Objective.vertex_residuals`. The step-1 iterate is built
    (:meth:`Vertex.matrix`, the bytes of ``atom + 0.0``) only to take
    step 2, so a run that stops after step 1 returns the vertex as its
    hypothesis. Handing in the eigen-step's ``Vertex(v)`` gives the
    bytes of a run without it.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")

    if first_vertex is None:
        sigma, iterations, r = maximally_mixed(obj.dim.bit_length() - 1).matrix, 0, None
    else:
        # step 1 is taken; sigma_1, the vertex, is built where it is read
        sigma, iterations = None, 1
        r = obj.vertex_residuals(first_vertex) if first_residuals is None else first_residuals
    for k in range(iterations + 1, k_max + 1):
        if r is None:
            r = obj.residuals(sigma)
        if stop_objective is not None and iterations and float(np.dot(r, r)) <= stop_objective:
            break
        # either stop is a stationary point of a convex objective:
        # optimal, no movement this or any later step
        if _stationary(r):
            break
        if sigma is None:
            sigma = first_vertex.matrix()
        g = obj.gradient(r)
        if _vanishes(g):
            break
        # a matrix is a stack of one, and an EffectSum a list of one
        [(v, _)] = _smallest_built(g[None] if isinstance(g, np.ndarray) else [g],
                                   tol=_EIG_TOL)
        # the spent gradient, a d x d matrix up to dim 256, that the
        # update need not hold
        del g
        atom = np.outer(v, v.conj())
        alpha = 1.0 / k
        # step 1 (alpha = 1) in one pass: atom + 0.0 is the bytes of
        # (1 - 1.0) * sigma + 1.0 * atom, every nonzero kept and every
        # zero +0.0
        sigma = atom + 0.0 if k == 1 else (1.0 - alpha) * sigma + alpha * atom
        r = None
        iterations = k

    if r is None:
        r = obj.residuals(sigma)
    return Hypothesis(first_vertex if sigma is None else sigma, iterations,
                      float(np.dot(r, r)))


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
    I / d, whose residuals are read from the support's table of I / d
    (:meth:`EffectBatch.expected`). Training sets are learned in chunks
    whose stacks hold at most ``_STACK_ENTRIES`` entries: a chunk's
    closed forms are one :func:`code_space_atoms` call, its gradients
    one (T, d, d) array from one :meth:`Objective.gradient` call over
    its rows, tested for vanishing in one modulus pass and handed to
    the eigen-step as it is (``linalg._smallest_built``, each pair that
    of :func:`~qpac.linalg.smallest_eigenvector`, with the certificate
    run over the stack), which solves a repeated gradient once, and the
    step-1 residuals of all its vertices one
    :meth:`EffectBatch.vertex_expectations` pass, handed to
    :func:`hazan_optimize`; above dim 256 a chunk holds one training
    set, whose gradient is an :class:`~qpac.states.EffectSum`. Each
    training set gets the bytes that learning it alone gives. A chunk
    whose first vertices are all closed forms builds no I / d. A
    training set whose residuals at I / d bound its gradient within
    the zero threshold (all exactly 0, say) has no gradient assembled
    or solved, and its optimization stops at I / d. A gradient that
    vanishes within the threshold is not solved either.
    """
    closed = noise.kind == "exact" and not any(p.x & p.z for p in support.effects)
    batch, dim = support.batch, 1 << support.n
    chunk = max(1, _STACK_ENTRIES // (dim * max(dim, indices.shape[1])))
    for lo in range(0, len(indices), chunk):
        rows, vals = indices[lo:lo + chunk], values[lo:lo + chunk]
        objs = [Objective(batch, idx, v) for idx, v in zip(rows, vals)]
        vertices = (code_space_atoms(batch, rows, vals) if closed
                    else [None] * len(objs))
        start = [j for j, vertex in enumerate(vertices) if vertex is None]
        if start:
            r0 = batch.expected(maximally_mixed(support.n))[rows[start]] - vals[start]
            moving = ~_stationary(r0)
            sets = np.array(start)[moving]
            if sets.size:
                grads = Objective(batch, rows[sets], vals[sets]).gradient(r0[moving])
                # negated as an array: an EffectSum's verdict is a bool
                live = ~np.atleast_1d(_vanishes(grads))
                if isinstance(grads, EffectSum):
                    # above dim 256 a chunk holds one training set
                    grads = [grads] if live[0] else []
                elif not live.all():
                    grads = grads[live]
                # the stack goes to the eigen-step as it is
                for j, (v, _) in zip(sets[live].tolist(), _smallest_built(grads, tol=_EIG_TOL)):
                    vertices[j] = Vertex(v)
                # d x d matrices up to dim 256, that the optimizer need not hold
                del grads
        stepped = [j for j, vertex in enumerate(vertices) if vertex is not None]
        r1 = {}
        if stepped:
            v, scale = _stacked([vertices[j] for j in stepped])
            found = batch.vertex_expectations(v, scale, rows[stepped]) - vals[stepped]
            r1 = dict(zip(stepped, found))
        for j, obj in enumerate(objs):
            yield hazan_optimize(obj, k_max=k_max, first_vertex=vertices[j],
                                 first_residuals=r1.get(j))


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
