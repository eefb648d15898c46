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
runs out, the full decomposition ``eigh`` is the fallback, at every
dimension.

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
path for both kernels, and each runs over the stack, not item by item.
The learner's stack arrives as one complex (T, d, d) array, read as it
is with no copy. The pre-checks are one pass over it, and each matrix's modulus is taken
once, for the finiteness test, the largest entry and the shift c
alike. The min-diagonal certificate tests every converged item of an
attempt at once, and the accepted vectors are phase-normalized
together: each row times |p| / p for its pivot p, with |p| taken by
``np.hypot``, which rounds as ``abs`` of one complex scalar does, so
every row gets the bytes of its lone rotation.
``tests/test_linalg.py`` keeps the allocating form as the reference
both must match bit for bit.

Since an item's pair depends only on its own bytes, a stack solves
each distinct matrix once: ``_smallest_built`` keys the items of a
stack of two or more by their bytes, and each repeat gets its own
copy of the pair of its first occurrence. A stack of one (a 16 MB
gradient at n = 10) is not hashed.

So h takes three forms: one dense matrix, a stack of them, and, for
the learner's gradients above dim 256 (n >= 9), an operator. Only the
public entries check h - h^dag, on their input, before the shared
code. The learner reaches the eigen-step through ``_smallest_built``:
its gradients are real-weighted sums of Pauli strings, Hermitian by
construction, so no h - h^dag pass runs, while the modulus pass
that sets the shift and the tolerance scale stays. Up to dim 256 the
learner hands in dense gradients, and each pair is the pair of
``smallest_eigenvector``. Above dim 256 it hands in one operator, and
no d x d gradient is formed unless the ``eigh`` fallback is taken: the
sweep reads h only through ``h.dot(v, out)``, which for a matrix is
the ``zgemv`` of ``np.dot``, the certificate reads the operator's
``diagonal``, ``max_entry`` and ``one_norm``, and the fallback
decomposes its ``dense()`` matrix (the duck type is spelled out at
``_smallest_built``; ``states.EffectSum`` is the one this package
builds). Its ``max_entry``, ``diagonal`` and ``dense()`` have the bytes
of the dense gradient's, so the zero-gradient test, the min-diagonal
certificate and the fallback decide as on the dense matrix; its
products and its 1-norm round differently from ``zgemv`` and the
dense column sums, so its power-iteration pairs may differ from the
dense kernel's in the last bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonHermitianError


def _hermitian(h) -> np.ndarray:
    """``h`` as a complex matrix; raises unless it is square, non-empty,
    and finite and Hermitian within tolerance: the public entries' check."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NonHermitianError(f"not square: {h.shape}")
    if h.size == 0:
        raise NonHermitianError("empty matrix")
    scale = _finite_scale(np.max(np.abs(h)))
    if not np.max(np.abs(h - h.conj().T)) <= 1e-10 * scale:
        raise NonHermitianError("matrix is not finite and Hermitian within tolerance")
    return h


def _hermitian_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each item's largest entry modulus and induced 1-norm (its largest
    column sum of moduli) of a non-empty complex (T, d, d) stack of
    Hermitian matrices, read from one modulus pass.

    Raises unless every item is finite; hermiticity is the caller's
    (:func:`_hermitian`).
    """
    modulus = np.abs(h)
    max_entry = np.max(modulus, axis=(1, 2))
    one_norm = np.max(np.sum(modulus, axis=1), axis=1)
    del modulus
    _finite_scale(max_entry)
    return max_entry, one_norm


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
    vals, vecs = np.linalg.eigh(_hermitian(h))
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


def _normalize_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each row of a (T, d) stack, in place, so that its
    largest-magnitude component (the first of ties) is real and
    positive: the row times |p| / p for its pivot p, then the pivot's
    imaginary part set to +0.0. A zero row stays as it is.

    |p| is ``np.hypot`` of p's parts, the bytes of ``abs`` of one
    complex scalar; ``np.abs`` of a complex array may round otherwise.
    So each row gets the bytes of rotating it alone.
    """
    k = np.argmax(np.abs(v), axis=1)
    rows = np.arange(len(v))
    pivot = v[rows, k]
    live = np.flatnonzero(pivot != 0)
    rows, k, pivot = rows[live], k[live], pivot[live]
    # not *=: on a 1 x 1 stack the in-place complex multiply rounds
    # otherwise than the lone rotation's product, which this one matches
    v[rows] = v[rows] * (np.hypot(pivot.real, pivot.imag) / pivot)[:, None]
    v[rows, k] = v[rows, k].real
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
    the (T, d) start vectors ``v``, in lock-step; returns each item's
    (v, lam, converged) as a (T, d), a (T,) and a (T,) bool array.
    ``cs`` and ``max_entry`` hold each item's shift and largest modulus.

    A stack of one runs the scalar kernel.
    """
    if len(h) == 1:
        v1, lam1, ok1 = _power_iterate(h[0], v[0], float(cs[0]), tol, float(max_entry[0]),
                                       max_sweeps)
        return v1[None], np.array([lam1]), np.array([ok1])
    out_v, out_lam = np.empty_like(v), np.empty(len(h))
    out_ok = np.zeros(len(h), dtype=bool)
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
            out = active[done]
            out_v[out], out_lam[out], out_ok[out] = v[done], lam[done], True
            keep = ~done
            if not keep.any():
                return out_v, out_lam, out_ok
            active, h, v, w, c = active[keep], h[keep], v[keep], w[keep], c[keep]
            max_entry, lam, nrm = max_entry[keep], lam[keep], nrm[keep]
        np.divide(w, _column(nrm), v)
    out_v[active], out_lam[active] = v, lam
    return out_v, out_lam, out_ok


def _smallest(h, tol: float, max_sweeps: int | None):
    """The eigen-step rule on a non-empty (T, d, d) stack of Hermitian
    matrices, or on a lone operator in a list of one (see
    :func:`_smallest_built`); returns ``(v, lam)`` per item.

    The min-diagonal certificate and the phase normalization of each
    start run over the stack's converged items at once.
    """
    # the shift c of each item is its induced 1-norm, which bounds its spectrum
    if isinstance(h, np.ndarray):
        op = None
        max_entry, cs = _hermitian_stack(h)
        diags = h.diagonal(axis1=1, axis2=2).real
    else:
        (op,) = h
        # the operator stands for its stack of one; the loop below
        # never slices a stack of one, and the fallback densifies it
        max_entry, cs = np.array([op.max_entry]), np.array([op.one_norm])
        _finite_scale(max_entry)
        diags = op.diagonal[None]
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    count, dim = diags.shape
    if max_sweeps is None:
        max_sweeps = 10 * dim

    # a zero matrix's pair is (e_0, 0.0)
    vs = np.zeros((count, dim), dtype=np.complex128)
    lams = np.zeros(count)
    vs[max_entry == 0.0, 0] = 1.0
    todo = np.flatnonzero(max_entry != 0.0)
    starts = np.full((len(todo), dim), 1.0 / np.sqrt(dim), dtype=np.complex128)
    for _ in range(2):
        if not todo.size:
            break
        # every item, the common case, needs no copy of the stack
        stack = h if len(todo) == count else h[todo]
        v, lam, ok = _power_iterate_stack(stack, starts, cs[todo], tol, max_entry[todo],
                                          max_sweeps)
        # necessary condition for the bottom eigenvalue: lam <= min h_kk
        ok &= lam <= diags[todo].min(axis=1) + tol * np.maximum(max_entry[todo], np.abs(lam))
        vs[todo[ok]] = _normalize_phases(v[ok])
        lams[todo[ok]] = lam[ok]
        todo = todo[~ok]
        starts = np.zeros((len(todo), dim), dtype=np.complex128)
        starts[np.arange(len(todo)), np.argmin(diags[todo], axis=1)] = 1.0

    for j in todo.tolist():
        vals, vecs = np.linalg.eigh(h[j] if op is None else op.dense())
        vs[j], lams[j] = vecs[:, 0], vals[0]
    if todo.size:
        vs[todo] = _normalize_phases(vs[todo])
    return list(zip(vs, lams.tolist()))


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
    to. Never raises for want of convergence: the fallback serves every
    dimension.
    """
    return _smallest(_hermitian(h)[None], tol, max_sweeps)[0]


def _smallest_built(hs, tol: float = 1e-9):
    """:func:`smallest_eigenvector` of each matrix in a stack of
    same-dimension matrices the package built Hermitian by construction,
    the learner's gradients, as a list of ``(v, lam)``: the same pairs,
    without the h - h^dag pass. The modulus pass that sets each item's
    shift and tolerance scale stays.

    ``hs`` is a complex (T, d, d) array, the learner's stack, which is
    read as it is. The sweeps of the stack run in lock-step, which costs less per
    matrix than one call after another. Matrices with the same bytes
    are solved once, and each repeat gets its own copy of the pair.

    Above dim 256 ``hs`` may instead be a list of one operator: an
    object with ``dim``, ``diagonal`` (the real diagonal),
    ``max_entry`` (the largest entry modulus), ``one_norm`` (the
    induced 1-norm), ``dot(v, out)`` (h v into ``out``) and ``dense()``
    (the d x d matrix), as :class:`~qpac.states.EffectSum` provides
    them. Only the ``eigh`` fallback reads a d x d matrix.
    """
    if not len(hs):
        return []
    if len(hs) == 1:
        # a stack of one, or a list of one operator, has no repeats to
        # look for, so its matrix (16 MB at n = 10) is not hashed
        return _smallest(hs, tol, None)
    # the first item with each item's bytes; the keys, as large as the
    # stack, are dropped before it is solved
    first: dict = {}
    source = np.array([first.setdefault(h.tobytes(), j) for j, h in enumerate(hs)])
    del first
    distinct = np.flatnonzero(source == np.arange(len(hs)))
    solved = _smallest(hs if len(distinct) == len(hs) else hs[distinct], tol, None)
    # item j's pair is the solved pair of its first occurrence
    at = np.searchsorted(distinct, source)
    return [solved[k] if source[j] == j else (solved[k][0].copy(), solved[k][1])
            for j, k in enumerate(at.tolist())]
