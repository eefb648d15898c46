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

Results decide table bytes (the minimum m of a search is set by the
first step's eigenvector), so the float operations of a sweep and
their order are a contract: hv = h v; lam = Re <v, hv>; the residual
hv - lam v; w = c v - hv; v = w / ||w||, a complex divide by a real
norm (reciprocal-multiply rounding). Each norm is sqrt(re.re + im.im)
over the real and imaginary views, which is what ``np.linalg.norm``
computes.

Two kernels run that contract. The scalar kernel serves
``smallest_eigenvector`` and any stack of one; a sweep allocates
nothing: it overwrites the start vector with each iterate and reuses
one buffer for h v and one for the residual and the next iterate. The
learner's ``_smallest_built`` runs the stacked kernel on larger stacks
of same-dimension matrices, in lock-step: h v is one stacked
``matmul`` (a gemv per item), <v, hv> one ``vecdot`` (a zdotc per
item, as ``vdot``), each norm two real ``vecdot`` calls (a ddot per
item and view, as ``re.dot(re)``), and lam, c and the norm reach each
item's row as complex columns, as a Python float reaches the scalar
kernel's vector. So every item sees the scalar kernel's BLAS calls and
elementwise float operations in the same order, and its (v, lam) is
bit for bit a lone call's. An item leaves the stack at the sweep where
a lone call stops; the others stay in the stacked kernel until they
stop too. Only a stack of one starts on the scalar kernel, because a
stacked sweep over one item costs about 3 times a scalar sweep. The
pre-checks, the certificate, the restart and the fallback are one code
path for both kernels. The pre-checks are one pass over the (T, d, d)
stack, and each matrix's modulus is taken once, for the hermiticity
scale, the largest entry and the shift c alike.
``tests/test_linalg.py`` keeps the allocating form as the reference
both must match bit for bit.

Since an item's pair depends only on its own bytes, a stack solves
each distinct matrix once: ``_smallest_built`` keys the items of a
stack of two or more by their bytes, and each repeat gets its own
copy of the pair of its first occurrence. A stack of one (a 16 MB
gradient at n = 10) is not hashed.

So h takes three forms: one dense matrix, a stack of them, and, for
the learner's gradients above dim 256 (n >= 9), an operator. The
learner reaches the eigen-step through ``_smallest_built``: its
gradients are real-weighted sums of Pauli strings, Hermitian by
construction, so the h - h^dag pass is skipped, while the modulus pass
that sets the shift and the tolerance scale stays. Up to dim 256 the
learner hands in dense gradients, and each pair is the pair of
``smallest_eigenvector``. Above dim 256, where no ``eigh`` fallback
exists, it hands in one operator, and no d x d gradient is formed: the
sweep reads h only through ``h.dot(v, out)``, which for a matrix is
the ``zgemv`` of ``np.dot``, and the certificate reads the operator's
``diagonal``, ``max_entry`` and ``one_norm`` (the duck type is spelled
out at ``_smallest_built``; ``states.EffectSum`` is the one this
package builds). Its ``max_entry`` and ``diagonal`` have the bytes of
the dense gradient's, so the zero-gradient test and the min-diagonal
certificate decide as on the dense matrix; its products and its 1-norm
round differently from ``zgemv`` and the dense column sums, so its
pairs may differ from the dense kernel's in the last bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, NonHermitianError

_EIGH_FALLBACK_MAX_DIM = 256


def _hermitian_stack(hs, built: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A non-empty sequence of same-shape matrices as one complex
    (T, d, d) stack, with each item's largest entry modulus and induced
    1-norm (its largest column sum of moduli), read from one modulus
    pass.

    Raises unless every item is square, non-empty, and finite and
    Hermitian within tolerance. A stack of one is a view of its matrix,
    not a copy. ``built`` matrices are Hermitian by construction: the
    h - h^dag pass is skipped, and only finiteness is checked.
    """
    hs = [np.asarray(h, dtype=np.complex128) for h in hs]
    h = hs[0][None] if len(hs) == 1 else np.stack(hs)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise NonHermitianError(f"not square: {h.shape[1:]}")
    if h.size == 0:
        raise NonHermitianError("empty matrix")
    modulus = np.abs(h)
    max_entry = np.max(modulus, axis=(1, 2))
    one_norm = np.max(np.sum(modulus, axis=1), axis=1)
    del modulus
    scale = _finite_scale(max_entry)
    if not built:
        asym = np.max(np.abs(h - h.conj().transpose(0, 2, 1)), axis=(1, 2))
        if not np.all(asym <= 1e-10 * scale):
            raise NonHermitianError("matrix is not finite and Hermitian within tolerance")
    return h, max_entry, one_norm


def _finite_scale(max_entry: np.ndarray) -> np.ndarray:
    """The hermiticity scale 1 + max |h_ij| of each item; raises unless
    every item is finite."""
    scale = 1.0 + max_entry
    # written so that NaN fails each comparison; an inf entry makes the
    # scale inf, which would otherwise excuse any asymmetry (and fails
    # before it is computed). A max is exact, so each item's verdict is
    # its lone verdict
    if not np.all(scale < np.inf):
        raise NonHermitianError("matrix is not finite and Hermitian within tolerance")
    return scale


def eigendecompose(h: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a
    Hermitian matrix. Thin wrapper over LAPACK with a hermiticity check."""
    h = _hermitian_stack([h])[0][0]
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


def _basis_vector(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[k] = 1.0
    return v


def _power_iterate(h, v, c, tol, max_entry, max_sweeps):
    """Power sweeps on (c*I - h) from start v, overwriting v; returns
    (v, lam, converged)."""
    hv = np.empty_like(v)
    w = np.empty_like(v)  # holds the residual, then the next iterate
    w_re, w_im = w.real, w.imag
    lam = 0.0
    for _ in range(max_sweeps):
        h.dot(v, hv)
        lam = float(np.vdot(v, hv).real)
        np.multiply(lam, v, w)
        np.subtract(hv, w, w)
        # denom is a lower bound on ||h||_2, so stopping here implies
        # the tol * ||h||_2 contract
        denom = max(max_entry, abs(lam))
        if math.sqrt(w_re.dot(w_re) + w_im.dot(w_im)) <= tol * denom:
            return v, lam, True
        np.multiply(c, v, w)
        np.subtract(w, hv, w)
        nrm = math.sqrt(w_re.dot(w_re) + w_im.dot(w_im))
        if nrm == 0.0:
            # v is an exact eigenvector of the top eigenvalue c; the
            # caller's certificate will reject and restart
            return v, lam, True
        np.divide(w, nrm, v)
    return v, lam, False


def _norms(w: np.ndarray) -> np.ndarray:
    # one ddot per row and view, as ``re.dot(re)`` makes for one vector
    return np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))


def _column(x: np.ndarray) -> np.ndarray:
    # a per-row scalar as a complex column, so each row's multiply or
    # divide meets it the way it meets a Python float: converted to
    # complex and broadcast along the row
    return x.astype(np.complex128)[:, None]


def _power_iterate_stack(h, v, cs, tol, max_entry, max_sweeps):
    """:func:`_power_iterate` on each item of a (T, d, d) stack from
    the (T, d) start vectors ``v``, in lock-step; returns its (v, lam,
    converged) per item, in order. ``cs`` and ``max_entry`` hold each
    item's shift and largest modulus.

    A stack of one runs the scalar kernel.
    """
    if len(h) == 1:
        return [_power_iterate(h[0], v[0], float(cs[0]), tol, float(max_entry[0]), max_sweeps)]
    out = [None] * len(h)
    active = np.arange(len(h))
    c = _column(cs)
    lam = np.zeros(len(h))
    for _ in range(max_sweeps):
        hv = np.matmul(h, v[:, :, None])[:, :, 0]
        lam = np.vecdot(v, hv).real
        w = np.subtract(hv, _column(lam) * v)
        done = _norms(w) <= tol * np.maximum(max_entry, np.abs(lam))
        np.subtract(c * v, hv, w)
        nrm = _norms(w)
        # a zero nrm means v is an exact top eigenvector; it stops too
        done |= nrm == 0.0
        if done.any():
            for k in np.flatnonzero(done):
                out[active[k]] = (v[k].copy(), float(lam[k]), True)
            keep = ~done
            if not keep.any():
                return out
            active, h, v, w, c = active[keep], h[keep], v[keep], w[keep], c[keep]
            max_entry, lam, nrm = max_entry[keep], lam[keep], nrm[keep]
        np.divide(w, _column(nrm), v)
    for k, j in enumerate(active):
        out[j] = (v[k].copy(), float(lam[k]), False)
    return out


def _smallest(hs, tol: float, max_sweeps: int | None, built: bool = False):
    """The eigen-step rule on a non-empty sequence of Hermitian
    matrices of one dimension; returns ``(v, lam)`` per matrix.

    ``built`` items are Hermitian by construction (see
    :func:`_smallest_built`): dense matrices skip the h - h^dag pass,
    and a lone operator is read through its fields and ``dot``.
    """
    # the shift c of each item is its induced 1-norm, which bounds its spectrum
    if built and not isinstance(hs[0], np.ndarray):
        (op,) = hs
        # the operator stands for its stack of one; the loop below
        # never slices a stack of one, and dim > 256 has no eigh fallback
        h, max_entry, cs = hs, np.array([op.max_entry]), np.array([op.one_norm])
        _finite_scale(max_entry)
        diags = op.diagonal[None]
    else:
        h, max_entry, cs = _hermitian_stack(hs, built)
        diags = h.diagonal(axis1=1, axis2=2).real
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    dim = diags.shape[1]
    if max_sweeps is None:
        max_sweeps = 10 * dim

    results = [None] * len(h)
    for j in np.flatnonzero(max_entry == 0.0):
        results[j] = (_basis_vector(dim, 0), 0.0)
    todo = np.flatnonzero(max_entry != 0.0)
    starts = np.full((len(todo), dim), 1.0 / np.sqrt(dim), dtype=np.complex128)
    for _ in range(2):
        if not todo.size:
            break
        # every item, the common case, needs no copy of the stack
        stack = h if len(todo) == len(h) else h[todo]
        found = _power_iterate_stack(stack, starts, cs[todo], tol, max_entry[todo], max_sweeps)
        retry = []
        for j, (v, lam, ok) in zip(todo.tolist(), found):
            # necessary condition for the bottom eigenvalue: lam <= min h_kk
            if ok and lam <= float(np.min(diags[j])) + tol * max(float(max_entry[j]), abs(lam)):
                results[j] = (_normalize_phase(v), lam)
            else:
                retry.append(j)
        todo = np.array(retry, dtype=np.intp)
        starts = np.zeros((len(todo), dim), dtype=np.complex128)
        starts[np.arange(len(todo)), np.argmin(diags[todo], axis=1)] = 1.0

    if todo.size and dim > _EIGH_FALLBACK_MAX_DIM:
        raise ConvergenceError(
            f"power iteration did not reach a certified bottom eigenpair "
            f"in {max_sweeps} sweeps (dim {dim})"
        )
    for j in todo.tolist():
        vals, vecs = np.linalg.eigh(h[j])
        results[j] = (_normalize_phase(vecs[:, 0].astype(np.complex128)), float(vals[0]))
    return results


def smallest_eigenvector(h: np.ndarray, tol: float = 1e-9, max_sweeps: int | None = None):
    """A unit eigenvector of a Hermitian matrix, sought at its smallest
    eigenvalue: the eigen-step's vertex.

    Returns ``(v, lam)``, certified by two tests that every return
    keeps:

    - the residual: ``||h v - lam v|| <= tol * ||h||_2``;
    - the min-diagonal test: ``lam <= min_k h_kk + tol * max(max_ij
      |h_ij|, |lam|)``, a necessary condition for the bottom eigenvalue.

    lam is not guaranteed to be the smallest eigenvalue: an eigenpair
    higher in the spectrum that passes both tests is returned as found.
    The power iteration reaches one where its start vector has no
    component in the bottom eigenspace. Only the ``eigh`` fallback, taken
    when neither start gives a certified pair, returns the bottom pair by
    construction. Deterministic for fixed input; in degenerate
    eigenspaces returns the vector the fixed-start iteration converges
    to. Raises :class:`ConvergenceError` only when dim > 256 and the
    sweep budget is exhausted without a certified pair.
    """
    return _smallest([h], tol, max_sweeps)[0]


def _smallest_built(hs, tol: float = 1e-9):
    """:func:`smallest_eigenvector` of each matrix in a stack of
    same-dimension matrices the package built Hermitian by construction,
    the learner's gradients, as a list of ``(v, lam)``: the same pairs,
    without the h - h^dag pass. The modulus pass that sets each item's
    shift and tolerance scale stays.

    The sweeps of the stack run in lock-step, which costs less per
    matrix than one call after another. Matrices with the same bytes
    are solved once, and each repeat gets its own copy of the pair.

    Above dim 256 an item may instead be an operator, alone in its
    stack: an object with ``dim``, ``diagonal`` (the real diagonal),
    ``max_entry`` (the largest entry modulus), ``one_norm`` (the
    induced 1-norm) and ``dot(v, out)`` (h v into ``out``), as
    :class:`~qpac.states.EffectSum` provides them. No d x d matrix is
    read.
    """
    if len(hs) < 2:
        # a stack of one has no repeats to look for, so its matrix
        # (16 MB at n = 10) is not hashed
        return _smallest(hs, tol, None, built=True) if len(hs) else []
    hs = [np.asarray(h, dtype=np.complex128) for h in hs]
    # the first item with each item's bytes; the keys, as large as the
    # stack, are dropped before it is solved
    first: dict = {}
    source = [first.setdefault((h.shape, h.tobytes()), j) for j, h in enumerate(hs)]
    del first
    distinct = [j for j, k in enumerate(source) if k == j]
    solved = dict(zip(distinct, _smallest([hs[j] for j in distinct], tol, None, built=True)))
    pairs = []
    for j, k in enumerate(source):
        v, lam = solved[k]
        pairs.append((v, lam) if k == j else (v.copy(), lam))
    return pairs
