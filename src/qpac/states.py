"""Density matrices, measurement effects, expectations, and fidelity.

A Pauli string P stands for its two-outcome effect E = (I + P)/2, whose
eigenvalues are 0 and 1 (the complementary effect is I - E): supports,
batches and :func:`expectation` take strings, and read them as effects.
A Pauli string is a signed permutation of the computational basis, so
Tr(P rho) is a single O(2^n) gather along one matrix diagonal-like
stripe; the package never forms a Pauli string as a dense 2^n x 2^n
matrix.

Strings that share an X-mask x share that permutation, k -> k ^ x.
A stabilizer group's X-parts form a subspace of rank r_x, so each mask
is shared by 2^(n - r_x) support rows (two masks serve all of GHZ's).
:meth:`EffectBatch.vertex_expectations` scores a vertex v over the
support by that rule: it builds the products v * conj(v[k ^ x]) once
per distinct mask among the scored rows, and each row multiplies its
coefficients into the products of its own mask. Where no mask repeats
(a cluster state), each row's products are built in row order.

:func:`fidelity` of a pure pair with a sparse b (no more nonzeros of
b^T than leaves) reads a only where b^T is nonzero and keeps the bytes
of the dense sum ``np.sum(a * b^T)``: that sum is numpy's balanced
pairwise tree over aligned 64-entry leaves, so a leaf where b^T is
zero adds 0, a leaf with at most two nonzero products is their one
rounded sum, and any other leaf is ``np.sum`` of its products
(:class:`_Leaves`). A one-vertex state scale * v v^dag
(:class:`Vertex`) supplies its entries from v, with no d x d matrix. A
denser b takes the dense sum itself.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import NonPhysicalStateError
from .linalg import eigendecompose, sqrt_psd
from .pauli import PauliString, StabilizerGroup, ghz_generators, stabilizer_group

MAX_QUBITS = 10

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
_CLAMP_SLACK = 1e-9


class EffectBatch:
    """Vectorized expectations of a fixed tuple of effects.

    Holds the signed permutation P|k> = c_k |k ^ x> of every Pauli
    string, the package's only table of them: the (m, d) coefficients
    c_k and the (m,) X-masks x, which only its methods read. The one
    rule of every reader: row i's entry k lies at column k ^ x_i, so
    Tr(P_i sigma) reads sigma's flat positions k * d + (k ^ x_i), and
    each reader derives the positions it reads from the masks. All
    Tr(E_i sigma) evaluate as one fancy-indexed contraction. A support
    owns one batch (``MeasurementDistribution.batch``), and its tables
    serve every reader of that support: :meth:`expected` is the one
    Tr(E rho) table of a target state, which sampling and the support
    residuals read, and a training set reads its rows through the
    ``rows`` of :meth:`expectations`, :meth:`weighted_sum`,
    :meth:`weighted_operator` and the vertex passes.
    """

    def __init__(self, effects: Sequence[PauliString]):
        effects = tuple(effects)
        if not effects:
            raise ValueError("empty effect batch")
        n = effects[0].n
        if any(p.n != n for p in effects):
            raise ValueError("effect batch mixes qubit counts")
        self.dim = 1 << n
        k = np.arange(self.dim, dtype=np.int64)
        # filled row by row, so that a build holds the table once
        self._coeff = np.empty((len(effects), self.dim), dtype=np.complex128)
        for coeff, p in zip(self._coeff, effects):
            # P|k> = c_k |k ^ x>, read from the masks of P = phase *
            # i^|x&z| * X^x Z^z: Z^z signs |k> by (-1)^|k&z| and X^x
            # moves it to |k^x>. Factor 0 owns the most significant bit,
            # so this is the Kronecker product of the factors.
            coeff[:] = np.where(np.bitwise_count(k & p.z) % 2 == 0, 1.0, -1.0)
            coeff *= p.phase * (1j) ** ((p.x & p.z).bit_count() % 4)
        # row i's X-mask: its permutation sends |k> to |k ^ x_i>
        self._x = np.array([p.x for p in effects], dtype=np.int64)
        # Tr(E_i rho) per live target state (:meth:`expected`)
        self._targets = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self._coeff)

    def expected(self, state: DensityMatrix) -> np.ndarray:
        """Read-only Tr(E_i rho) of a target state, computed once for as
        long as the state lives.

        The one rule for a state's outcome probabilities: each Tr(P rho)
        may carry an imaginary part of at most 1e-9, and values within
        1e-9 of [0, 1] are clamped into it; anything further out signals
        a non-physical state and raises.
        """
        found = self._targets.get(state)
        if found is None:
            if state.dim != self.dim:
                raise ValueError(f"dimension mismatch: state of dim {state.dim}, "
                                 f"effects of dim {self.dim}")
            tr, traces = self._traces(state.matrix, None)
            imag = traces.imag[np.abs(traces.imag) > 1e-9]
            if imag.size:
                raise NonPhysicalStateError(f"Tr(P rho) has imaginary part {imag[0]}")
            found = (tr + traces.real) / 2.0
            out = found[(found < -_CLAMP_SLACK) | (found > 1.0 + _CLAMP_SLACK)]
            if out.size:
                raise NonPhysicalStateError(f"expectation {out[0]} outside [0, 1] beyond tolerance")
            found = np.clip(found, 0.0, 1.0)
            found.setflags(write=False)
            self._targets[state] = found
        return found

    def _traces(self, sigma: np.ndarray, rows: np.ndarray | None) -> tuple[float, np.ndarray]:
        """Re Tr(sigma) and the complex Tr(P_i sigma) of each batch row
        in the (m,) index array ``rows``, or of every row when ``rows``
        is None: row i reads sigma's flat entries k * d + (k ^ x_i),
        built in place as one (m, d) array."""
        d = self.dim
        k = np.arange(d)
        if rows is None:
            rows = slice(None)
        flat = sigma.ravel()
        at = k ^ self._x[rows][:, None]
        at += k * d
        # ndarray methods: np.sum's dispatch costs more than these small sums
        tr = flat[k * (d + 1)].sum().real
        return tr, (self._coeff[rows] * flat[at]).sum(axis=1)

    def expectations(self, sigma: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Tr(E_i sigma) = (Tr(sigma) + Tr(P_i sigma)) / 2 of each batch
        row in the (m,) index array ``rows``, in that order and
        duplicates kept, or of every row when ``rows`` is None.

        Each gathered row is multiplied and summed as the whole batch's
        row is, so it has the same bytes. Valid for any square matrix,
        not just unit-trace ones, so the objective stays an exact
        quadratic under off-plane probes.
        """
        tr, traces = self._traces(sigma, rows)
        return (tr + traces.real) / 2.0

    def vertex_expectations(self, v: np.ndarray, scale: np.ndarray,
                            rows: np.ndarray | slice | None = None) -> np.ndarray:
        """Tr(E_i sigma_t) of each sigma_t = scale_t v_t v_t^dag of a
        (T, d) stack ``v``, with no d x d matrix: a (T, r) array, row t
        over the batch rows ``rows[t]`` of a (T, r) index array, or over
        the batch rows of a slice, or every row, when ``rows`` is None,
        for every t.

        Entry [k, k ^ x] of v v^dag is v_k conj(v_(k ^ x)), so
        Tr(P sigma) is ``(coeff * (v * v.conj()[k ^ x])).sum()`` and the
        trace ``(v * v.conj()).sum().real``. Over a slice or every row,
        the products w_x = v * conj(v[k ^ x]) are built once per
        distinct X-mask x among the rows and vertex, and each row reads
        ``coeff * w_x`` of its own mask; where no mask repeats, each
        row's w_x is built in row order and nothing is copied. Rows of
        an index array build their own w_x, row by row. Each product is
        the same multiplication of the same operands either way. The
        products are C-contiguous (T, r, d) rows and each row is summed
        alone, as :meth:`expectations` sums its gathered rows, so where
        ``scale_t`` is 1 each row has the bytes of
        ``expectations(np.outer(v_t, v_t.conj()) + 0.0)``. Both sums are
        scaled by ``scale_t`` afterwards; where v_t and scale_t are
        dyadic, as a closed-form vertex's are, every sum is exact, so
        the order of scaling and summing changes no bit either.
        """
        d = self.dim
        k = np.arange(d)
        vc = v.conj()
        if rows is None:
            rows = slice(None)
        x, coeff = self._x[rows], self._coeff[rows]
        if isinstance(rows, np.ndarray):
            # row t gathers from row t of the flattened conj(v): position
            # t * d + (k ^ x) is k ^ (x + t * d), as k ^ x < d
            products = vc.ravel()[k ^ (x + (np.arange(len(v)) * d)[:, None])[:, :, None]]
            np.multiply(v[:, None, :], products, out=products)
        else:
            masks, at = _distinct_masks(x, d)
            if len(masks) == len(x):
                # no mask repeats: each row's products, in row order
                masks, at = x, None
            products = vc[:, k ^ masks[:, None]]
            np.multiply(v[:, None, :], products, out=products)
            if at is not None:
                products = products[:, at]
        np.multiply(coeff, products, out=products)
        traces = products.reshape(-1, d).sum(axis=1).real.reshape(len(v), -1)
        traces *= scale[:, None]
        tr = (v * vc).sum(axis=1).real * scale
        return (tr[:, None] + traces) / 2.0

    def weighted_sum(self, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Dense sum_i w_i E_i over the batch rows ``rows``, a Hermitian
        P holding conj(c_k) at [k, k ^ x], the position that
        Tr(P sigma) reads: a (d, d) matrix for (m,) weights and rows,
        and for (T, m) ones the (T, d, d) stack of the T sums, one per
        row.

        The stack is one ``np.add.at`` over the (T, m, d) positions
        derived from the rows' masks, row t offset by t * d^2, then the
        identity term Sum w / 2 of each sum on its diagonal.
        ``np.add.at`` adds in index order, so each entry sums its terms
        in row order, and one sum is the T = 1 case: every sum has the
        bytes of its lone call.
        """
        d = self.dim
        k = np.arange(d)
        rows = rows.reshape(-1, rows.shape[-1])
        w = weights.reshape(rows.shape)
        # row i of set t reads flat t * d^2 + k * d + (k ^ x_i), built in
        # place; the coefficients are fancy-indexed, so a fresh array,
        # scaled in place: a real factor makes both cross products exact
        # zeros, so coeff * (w / 2) has the bytes of (w / 2) * coeff on
        # any kernel
        gather = k ^ self._x[rows][..., None]
        gather += k * d + (np.arange(len(rows)) * (d * d))[:, None, None]
        vals = self._coeff[rows]
        vals *= (w / 2.0)[:, :, None]
        np.conjugate(vals, out=vals)
        g = np.zeros((len(rows), d * d), dtype=np.complex128)
        np.add.at(g.reshape(-1), gather.reshape(-1), vals.reshape(-1))
        g[:, k * (d + 1)] += (np.sum(w, axis=1) / 2.0)[:, None]
        return g.reshape(weights.shape[:-1] + (d, d))

    def apply(self, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """P_rows[t] w[t] for each row t of a (T, d) stack ``w``: perm is
        an involution, so (P w)[k] = c_perm_k w[perm_k]. Row t of the
        flattened product starts at t * d, so k ^ x reads there as
        k ^ (x + t * d)."""
        keys = self._x[rows] + np.arange(len(w)) * self.dim
        return (self._coeff[rows] * w).ravel()[np.arange(self.dim) ^ keys[:, None]]

    def weighted_operator(self, weights: np.ndarray, rows: np.ndarray) -> "EffectSum":
        """sum_i w_i E_i for real (m,) weights over the (m,) batch rows
        ``rows`` as an :class:`EffectSum`, with no d x d matrix: the
        entries of :meth:`weighted_sum`, added in the same order.

        The rows that share an X-mask x share a permutation, so their
        entries lie on one diagonal, [k ^ x, k]; each diagonal is one
        row of a (K, d) table, K <= m + 1, that adds row i's w_i / 2 *
        coeff_i in row order and, on the identity's diagonal x = 0, the
        Sum w / 2 last, as :meth:`weighted_sum` adds them.
        """
        vals = (weights[:, None] / 2.0) * self._coeff[rows]
        # sorted, so the identity's mask 0 leads
        masks, at = _distinct_masks(np.append(self._x[rows], 0), self.dim)
        table = np.zeros((len(masks), self.dim), dtype=np.complex128)
        np.add.at(table, at[:-1], vals)
        table[0] += np.sum(weights) / 2.0
        return EffectSum(masks, table)


def _distinct_masks(x: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct X-masks of the (r,) masks ``x``, sorted, and where
    each entry of ``x`` lies among them, from one (dim,) presence array:
    np.unique would import numpy.ma, half a megabyte, for this."""
    present = np.zeros(dim, dtype=bool)
    present[x] = True
    masks = np.flatnonzero(present)
    return masks, np.searchsorted(masks, x)


class EffectSum:
    """A Hermitian sum_i w_i E_i of effects with real weights, as the
    eigen-step reads it above dim 256: its nonzero diagonals, and a
    d x d matrix only from :meth:`dense`, for the ``eigh`` fallback
    (:meth:`EffectBatch.weighted_operator`).

    Diagonal j holds the entries [k ^ x_j, k] of the dense sum, with
    X-mask ``masks[j]``; row 0 is the main diagonal. Every entry of the
    dense sum lies on one diagonal or is 0, so ``max_entry`` and
    ``diagonal`` have the bytes of the dense sum's largest modulus and
    real diagonal, and ``one_norm`` is its largest column sum of moduli.
    :meth:`dot` is the product (h v)[r] = Sum_j h[r, r ^ x_j] v[r ^ x_j]:
    one gather of v, one multiply and one sum over the K diagonals.
    """

    def __init__(self, masks: np.ndarray, table: np.ndarray):
        self.dim = table.shape[1]
        modulus = np.abs(table)
        self.max_entry = float(np.max(modulus))
        self.one_norm = float(np.max(np.sum(modulus, axis=0)))
        self.diagonal = table[0].real.copy()
        # row r of diagonal j pairs h[r, r ^ x_j] = table[j, r ^ x_j]
        # with v[r ^ x_j]
        self._cols = np.arange(self.dim) ^ masks[:, None]
        self._entries = np.take_along_axis(table, self._cols, axis=1)

    def dot(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """h v, into ``out`` when given."""
        return np.sum(self._entries * v[self._cols], axis=0, out=out)

    def dense(self) -> np.ndarray:
        """The d x d sum, with the bytes of :meth:`EffectBatch.weighted_sum`."""
        h = np.zeros((self.dim, self.dim), dtype=np.complex128)
        h[np.arange(self.dim), self._cols] = self._entries
        return h


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Complex Hermitian unit-trace PSD matrix, stored read-only.

    The public constructor validates a matrix that comes from outside
    the package: finite entries, hermiticity and trace to 1e-10,
    smallest eigenvalue >= -1e-9 (rounding-level negative mass is
    accepted, not repaired). A Cholesky factorization of m + 1e-9 I
    certifies the eigenvalue bound in O(d^3 / 3) without an
    eigendecomposition; only when it fails does ``eigvalsh`` decide,
    and name the eigenvalue. The two rules agree except within rounding
    of the -1e-9 boundary.

    States the package builds itself (stabilizer projectors,
    I / 2^n, Frank-Wolfe iterates) are valid by construction and are
    wrapped by :meth:`_built` without the O(d^3) check; the tests pass
    each of them through the public validator.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NonPhysicalStateError(f"not square: {m.shape}")
        if m.size == 0:
            raise NonPhysicalStateError("empty matrix")
        # non-finite entries are rejected before m - m^dag, where inf - inf
        # would warn; the later comparisons assume finite entries
        if not (np.isfinite(m).all() and np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL):
            raise NonPhysicalStateError("matrix is not finite and Hermitian within 1e-10")
        tr = m.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise NonPhysicalStateError(f"trace {tr} is not 1 within 1e-10")
        try:
            np.linalg.cholesky(m + PSD_TOL * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            lam_min = float(np.linalg.eigvalsh(m)[0])
            if lam_min < -PSD_TOL:
                raise NonPhysicalStateError(f"smallest eigenvalue {lam_min} < -1e-9")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _built(cls, m: np.ndarray) -> "DensityMatrix":
        """Wrap a complex128 density matrix the package has just built,
        without validation. Takes ownership: ``m`` becomes read-only and
        no caller may keep writing to it. Each call site names the
        invariant that makes its matrix a valid state."""
        m.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", m)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """Tr(rho^2), computed once per state: the matrix is read-only."""
        return self._purity

    @cached_property
    def _purity(self) -> float:
        # Tr(rho^2) = ||rho||_F^2 for Hermitian rho
        return float(np.sum(np.abs(self.matrix) ** 2))

    def _entries(self, positions: np.ndarray) -> np.ndarray:
        """The entries at flat (row-major) positions."""
        return self.matrix.reshape(-1)[positions]

    @cached_property
    def _transpose(self) -> "_Leaves | np.ndarray":
        """rho^T as :func:`fidelity` reads it, found once (the matrix is
        read-only): its :class:`_Leaves` when it holds no more nonzeros
        than leaves (GHZ, I / d at n >= 6), else the dense matrix, read
        as stored when it equals its transpose, as a real stabilizer
        state does, since that product runs in memory order."""
        bt = self.matrix.T
        if np.count_nonzero(bt) <= bt.size // _leaf_size(bt.size):
            return _Leaves(bt)
        return self.matrix if np.array_equal(self.matrix, bt) else bt


@dataclass(frozen=True, eq=False)
class Vertex:
    """A Frank-Wolfe vertex scale * v v^dag, held as its vector: the
    eigen-step's unit v with scale 1, or a closed form's w with its
    exact scale 1 / <w|w> (:func:`~qpac.learner.code_space_atoms`).
    Pure by construction, so :func:`fidelity` tests no purity of it."""

    v: np.ndarray
    scale: float = 1.0

    @property
    def dim(self) -> int:
        return len(self.v)

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

    def _entries(self, positions: np.ndarray) -> np.ndarray:
        """The entries of :meth:`matrix` at flat positions, with its
        bytes: v_i conj(v_j), scaled where the scale is not 1, + 0.0."""
        rows, cols = np.divmod(positions, self.dim)
        found = self.v[rows] * self.v[cols].conj()
        if self.scale != 1.0:
            found *= self.scale
        found += 0.0
        return found


# complex entries per leaf of numpy's pairwise sum (128 doubles)
_LEAF = 64


def _leaf_size(size: int) -> int:
    """The entries per leaf of the pairwise sum of ``size`` complex
    entries: leaves of 64 tile a power-of-two size above 64, and any
    other size reads as one leaf."""
    return _LEAF if size > _LEAF and not size & (size - 1) else size


class _Leaves:
    """The nonzero pattern of a d x d matrix bt, as :func:`fidelity`
    reads the overlap Sum_k a_k bt_k of a d x d matrix a, both flat and
    row-major.

    ``np.sum(a * bt)`` sums the real and the imaginary parts alone,
    each as a balanced pairwise tree over aligned leaves
    (:func:`_leaf_size`), and each leaf by numpy's unrolled loop. So a leaf with no nonzero
    of bt adds 0, one with one or two adds their one rounded sum, in
    any order, and any other is the ``np.sum`` of its products, with 0
    where bt is 0. That changes no bit but, at most, the sign of a zero
    sum.
    """

    def __init__(self, bt: np.ndarray):
        self.positions = np.flatnonzero(bt != 0)
        self.values = bt[np.divmod(self.positions, bt.shape[1])]
        self.leaf = _leaf_size(bt.size)
        self.count = bt.size // self.leaf
        leaf = self.positions // self.leaf
        held = np.bincount(leaf, minlength=self.count)
        few = held[leaf] <= 2
        self.few = np.flatnonzero(few)
        self.few_leaf = leaf[few]
        self.many = np.flatnonzero(~few)
        self.many_leaves = np.flatnonzero(held > 2)
        # where each product of a full leaf lies in the (leaves, leaf) block
        self.many_at = (np.searchsorted(self.many_leaves, leaf[~few]) * self.leaf
                        + self.positions[~few] % self.leaf)

    def overlap(self, entries: np.ndarray) -> float:
        """Re Sum_k a_k bt_k, from the entries of a at ``positions``,
        with the bytes of ``np.sum(a * bt).real`` up to the sign of a
        zero."""
        products = entries * self.values
        # np.add.at adds in index order, onto 0.0
        sums = np.zeros(self.count)
        np.add.at(sums, self.few_leaf, products.real[self.few])
        if self.many.size:
            block = np.zeros(len(self.many_leaves) * self.leaf, dtype=np.complex128)
            block[self.many_at] = products[self.many]
            sums[self.many_leaves] = block.reshape(-1, self.leaf).sum(axis=1).real
        while len(sums) > 1:
            sums = sums[0::2] + sums[1::2]
        return float(sums[0])


@lru_cache
def ghz_density(n: int) -> DensityMatrix:
    """Rank-1 projector onto (|0...0> + |1...1>)/sqrt(2), the
    :func:`stabilizer_state` of the GHZ group, built once per n."""
    if n < 2 or n > MAX_QUBITS:
        raise ValueError(f"GHZ density supports 2 <= n <= {MAX_QUBITS}, got {n}")
    return stabilizer_state(stabilizer_group(ghz_generators(n)))


def stabilizer_state(group: StabilizerGroup) -> DensityMatrix:
    """The pure state a full stabilizer group fixes, the average
    2^-n Sum_g g of its 2^n elements, built from one column.

    rho = c c^dag / c_j0 for its column c = rho e_j0, with j0 the
    smallest index where rho_j0j0 = 2^-n Sum sign_g (-1)^|j0 & z_g| over
    the Z-type elements (x_g = 0) is nonzero. Element g sends e_j0 to
    c_g(j0) e_(j0 ^ x_g), c_g its signed-permutation coefficient
    (:class:`EffectBatch`). Each entry is i^k / 2^r, so every step is
    exact and rho has the bytes of the group average.
    """
    n, dim = group.n, 1 << group.n
    if len(group) != dim:
        raise ValueError(f"a pure {n}-qubit state needs {dim} group elements, got {len(group)}")
    x, z, phase = np.array([(p.x, p.z, p.phase) for p in group], dtype=np.int64).T
    # 2^n rho_jj for every j: a Walsh-Hadamard transform of the Z-type signs
    diag = np.bincount(z[x == 0], weights=phase[x == 0], minlength=dim)
    for b in range(n):
        pair = diag.reshape(-1, 2, 1 << b)
        diag = np.stack((pair[:, 0] + pair[:, 1], pair[:, 0] - pair[:, 1]), axis=1).ravel()
    j0 = int(np.flatnonzero(diag)[0])
    # c_g(j0) = phase * i^|x & z| * (-1)^|j0 & z| = i^e
    e = (np.bitwise_count(x & z) + 2 * np.bitwise_count(j0 & z) + 1 - phase) % 4
    col = np.zeros(dim, dtype=np.complex128)
    np.add.at(col, j0 ^ x, np.array([1, 1j, -1, -1j])[e] / dim)
    # the group's projector, written in place on the rows where c is
    # nonzero, so the build holds one d x d array and never writes the
    # zero rows of a sparse target (GHZ has two live rows), whose pages
    # stay unmapped; + 0.0 clears the -0.0 that the products write into zero entries
    # and some imaginary parts, as the group average holds none
    rho = np.zeros((dim, dim), dtype=np.complex128)
    live = (col != 0)[:, None]
    np.multiply(col[:, None], col.conj() / col[j0].real, out=rho, where=live)
    np.add(rho, 0.0, out=rho, where=live)
    return DensityMatrix._built(rho)


@lru_cache
def maximally_mixed(n: int) -> DensityMatrix:
    """The uninformative baseline I / 2^n, built once per qubit count."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    dim = 1 << n
    # diagonal, nonnegative, trace 1
    return DensityMatrix._built(np.eye(dim, dtype=np.complex128) / dim)


def expectation(effect: PauliString, state: DensityMatrix) -> float:
    """Outcome-1 probability Tr((I + P)/2 rho) of the effect of string
    P: the rule of
    :meth:`EffectBatch.expected` applied to a one-effect batch."""
    return float(EffectBatch((effect,)).expected(state)[0])


def fidelity(a: DensityMatrix | Vertex, b: DensityMatrix) -> float:
    """Uhlmann fidelity F(a, b) = Tr sqrt(sqrt(a) b sqrt(a)).

    Amplitude convention (not squared). When either argument is pure
    (a :class:`Vertex`, or purity >= 1 - 1e-10), F = sqrt(Re Tr(a b)),
    which for a = |psi><psi| is sqrt(<psi| b |psi>); no
    eigendecomposition and no BLAS call. It agrees with the general
    path to 1e-8.

    A vertex a is pure by construction, so no purity is computed; for
    a state a, b's purity is tested first: the protocols pass the
    target or I / d as b, each kept per process with its purity, so
    F(sigma, target) computes no purity of sigma. The overlap
    Sum_ij a_ij b_ji is ``np.sum(a * b.T)``, up to the sign of a zero
    sum, which max(0, .) maps to +0.0. Where b^T holds no more nonzeros
    than the sum has leaves, it reads a only there, by the leaf rule
    (:class:`_Leaves`): the four corners of a GHZ target, the diagonal
    of I / d; a vertex's entries there have the bytes of
    :meth:`Vertex.matrix`. A denser b (a cluster state, |+...+>) takes
    the dense sum, with a vertex's matrix built for it. b's pattern is
    found once per state (``DensityMatrix._transpose``).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if isinstance(a, Vertex) or _is_pure(b) or _is_pure(a):
        bt = b._transpose
        if isinstance(bt, _Leaves):
            overlap = bt.overlap(a._entries(bt.positions))
        else:
            overlap = float(np.real(np.sum((a.matrix() if isinstance(a, Vertex) else a.matrix) * bt)))
        return _clamp_unit(np.sqrt(max(0.0, overlap)))
    return _general_fidelity(a, b)


def _general_fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """The Uhlmann formula through two eigendecompositions, for any
    pair of states."""
    s = sqrt_psd(a.matrix)
    inner = s @ b.matrix @ s
    vals, _ = eigendecompose(inner)
    f = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))
    return _clamp_unit(f)


def _is_pure(state: DensityMatrix) -> bool:
    return state.purity() >= 1.0 - 1e-10


def _clamp_unit(f: float) -> float:
    if f > 1.0 + 1e-6 or f < -1e-6:
        raise NonPhysicalStateError(f"fidelity {f} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, float(f)))
