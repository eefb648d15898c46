"""Density matrices, measurement effects, expectations, and fidelity.

A Pauli string P stands for its two-outcome effect E = (I + P)/2, whose
eigenvalues are 0 and 1 (the complementary effect is I - E): supports,
batches and :func:`expectation` take strings, and read them as effects.
A Pauli string is a signed permutation of the computational basis, so
Tr(P rho) is a single O(2^n) gather along one matrix diagonal-like
stripe; the package never forms a Pauli string as a dense 2^n x 2^n
matrix.
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

    Builds the signed permutation P|k> = c_k |perm_k> of every Pauli
    string, the package's only tables of them, as two (m, d) tables
    that only its methods read: the flat positions k * d + perm_k that
    Tr(P sigma) reads, and the c_k. So all Tr(E_i sigma) evaluate as one
    fancy-indexed contraction. A support owns one batch
    (``MeasurementDistribution.batch``), and its tables serve every
    reader of that support: :meth:`expected` is the one Tr(E rho) table
    of a target state, which sampling and the support residuals read,
    and a training set drawn from the support reads its rows through
    the ``rows`` argument of :meth:`expectations`.
    """

    def __init__(self, effects: Sequence[PauliString]):
        effects = tuple(effects)
        if not effects:
            raise ValueError("empty effect batch")
        n = effects[0].n
        if any(p.n != n for p in effects):
            raise ValueError("effect batch mixes qubit counts")
        self.dim = 1 << n
        rows = np.arange(self.dim, dtype=np.int64)
        # filled row by row, so that a build holds each table once
        self._gather_idx = np.empty((len(effects), self.dim), dtype=np.int64)
        self._coeff = np.empty((len(effects), self.dim), dtype=np.complex128)
        for gather, coeff, p in zip(self._gather_idx, self._coeff, effects):
            # P|k> = c_k |perm_k>, read from the masks of P = phase *
            # i^|x&z| * X^x Z^z: Z^z signs |k> by (-1)^|k&z| and X^x
            # moves it to |k^x>. Factor 0 owns the most significant bit,
            # so this is the Kronecker product of the factors.
            gather[:] = rows * self.dim + (rows ^ p.x)
            coeff[:] = np.where(np.bitwise_count(rows & p.z) % 2 == 0, 1.0, -1.0)
            coeff *= p.phase * (1j) ** ((p.x & p.z).bit_count() % 4)
        self._diag_idx = rows * self.dim + rows
        # Tr(E_i rho) per live target state (:meth:`expected`)
        self._targets = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self._coeff)

    def _tables(self, rows: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The gather and coefficient tables of the batch rows ``rows``
        (an integer array of any shape, duplicates kept), or of every
        row when ``rows`` is None."""
        if rows is None:
            return self._gather_idx, self._coeff
        return self._gather_idx[rows], self._coeff[rows]

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
            tr, traces = self._traces(state.matrix)
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

    def _traces(self, sigma: np.ndarray,
                rows: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """Re Tr(sigma) and the complex Tr(P_i sigma) of each batch row
        in ``rows``, or of every effect."""
        flat = sigma.ravel()
        gather, coeff = self._tables(rows)
        # ndarray methods: np.sum's dispatch costs more than these small sums
        tr = flat[self._diag_idx].sum().real
        return tr, (coeff * flat[gather]).sum(axis=1)

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
                            rows: np.ndarray | None = None) -> np.ndarray:
        """Tr(E_i sigma_t) of each sigma_t = scale_t v_t v_t^dag of a
        (T, d) stack ``v``, with no d x d matrix: a (T, r) array, row t
        over the batch rows ``rows[t]`` of a (T, r) index array, or over
        every row of the batch when ``rows`` is None.

        Entry [k, perm_k] of v v^dag is v_k conj(v_perm_k), so
        Tr(P sigma) is ``(coeff * (v * v.conj()[perm])).sum()`` and the
        trace ``(v * v.conj()).sum().real``. The products are built as
        C-contiguous (T, r, d) rows and each row is summed alone, as
        :meth:`expectations` sums its gathered rows, so where
        ``scale_t`` is 1 each row has the bytes of
        ``expectations(np.outer(v_t, v_t.conj()) + 0.0)``. Both sums are
        scaled by ``scale_t`` afterwards; where v_t and scale_t are
        dyadic, as a closed-form vertex's are, every sum is exact, so
        the order of scaling and summing changes no bit either.
        """
        d = self.dim
        table, coeff = self._tables(rows)
        # row t of the flattened conj(v) starts at t * d
        perm = (table & (d - 1)) + (np.arange(len(v)) * d)[:, None, None]
        products = coeff * (v[:, None, :] * v.conj().ravel()[perm])
        traces = products.reshape(-1, d).sum(axis=1).real.reshape(len(v), -1)
        traces *= scale[:, None]
        tr = (v * v.conj()).sum(axis=1).real * scale
        return (tr[:, None] + traces) / 2.0

    def weighted_sum(self, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Dense sum_i w_i E_i over the batch rows ``rows``, a Hermitian
        P holding conj(c_k) at [k, perm_k], the position that
        Tr(P sigma) reads: a (d, d) matrix for (m,) weights and rows,
        and for (T, m) ones the (T, d, d) stack of the T sums, one per
        row.

        The stack is one ``np.add.at`` over the gathered (T, m, d)
        positions, row t offset by t * d^2, then the identity term
        Sum w / 2 of each sum on its diagonal. ``np.add.at`` adds in
        index order, so each entry sums its terms in row order, and one
        sum is the T = 1 case: every sum has the bytes of its lone call.
        """
        d = self.dim
        rows = rows.reshape(-1, rows.shape[-1])
        w = weights.reshape(rows.shape)
        # fancy-indexed, so both are fresh arrays, offset and scaled in
        # place; a real factor makes both cross products exact zeros, so
        # coeff * (w / 2) has the bytes of (w / 2) * coeff on any kernel
        gather = self._gather_idx[rows]
        gather += (np.arange(len(rows)) * (d * d))[:, None, None]
        vals = self._coeff[rows]
        vals *= (w / 2.0)[:, :, None]
        np.conjugate(vals, out=vals)
        g = np.zeros((len(rows), d * d), dtype=np.complex128)
        np.add.at(g.reshape(-1), gather.reshape(-1), vals.reshape(-1))
        g[:, self._diag_idx] += (np.sum(w, axis=1) / 2.0)[:, None]
        return g.reshape(weights.shape[:-1] + (d, d))

    def apply(self, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """P_rows[t] w[t] for each row t of a (T, d) stack ``w``: perm is
        an involution, so (P w)[k] = c_perm_k w[perm_k]. The offset t * d
        reads row t of the flattened product."""
        perm = (self._gather_idx[rows] & (self.dim - 1)) + (np.arange(len(w)) * self.dim)[:, None]
        return (self._coeff[rows] * w).ravel()[perm]

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
        # row i's X-mask is where its permutation sends basis state 0;
        # sorted, so the identity's mask 0 leads (np.unique would import
        # numpy.ma, half a megabyte, for this)
        x = self._gather_idx[rows, 0]
        present = np.zeros(self.dim, dtype=bool)
        present[x] = present[0] = True
        masks = np.flatnonzero(present)
        table = np.zeros((len(masks), self.dim), dtype=np.complex128)
        np.add.at(table, np.searchsorted(masks, x), vals)
        table[0] += np.sum(weights) / 2.0
        return EffectSum(masks, table)


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

    # rho == rho^T entrywise, so :func:`fidelity` may read rho as
    # stored; only builders that know it (I / 2^n, a real stabilizer
    # target) say so, and every other state reads as not symmetric
    _symmetric = False

    @classmethod
    def _built(cls, m: np.ndarray, symmetric: bool = False) -> "DensityMatrix":
        """Wrap a complex128 density matrix the package has just built,
        without validation. Takes ownership: ``m`` becomes read-only and
        no caller may keep writing to it. Each call site names the
        invariant that makes its matrix a valid state, and passes
        ``symmetric`` when it also makes m equal to its transpose."""
        m.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", m)
        if symmetric:
            object.__setattr__(state, "_symmetric", True)
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
    # and some imaginary parts, as the group average holds none. A real
    # column makes rho real, and so equal to its transpose
    rho = np.zeros((dim, dim), dtype=np.complex128)
    live = (col != 0)[:, None]
    np.multiply(col[:, None], col.conj() / col[j0].real, out=rho, where=live)
    np.add(rho, 0.0, out=rho, where=live)
    return DensityMatrix._built(rho, symmetric=not col.imag.any())


@lru_cache
def maximally_mixed(n: int) -> DensityMatrix:
    """The uninformative baseline I / 2^n, built once per qubit count."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    dim = 1 << n
    # diagonal, nonnegative, trace 1
    return DensityMatrix._built(np.eye(dim, dtype=np.complex128) / dim, symmetric=True)


def expectation(effect: PauliString, state: DensityMatrix) -> float:
    """Outcome-1 probability Tr((I + P)/2 rho) of the effect of string
    P: the rule of
    :meth:`EffectBatch.expected` applied to a one-effect batch."""
    return float(EffectBatch((effect,)).expected(state)[0])


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity F(a, b) = Tr sqrt(sqrt(a) b sqrt(a)).

    Amplitude convention (not squared). When either argument is pure
    (purity >= 1 - 1e-10), F = sqrt(Re Tr(a b)), which for a = |psi><psi|
    is sqrt(<psi| b |psi>); the trace is an O(d^2) elementwise sum, no
    eigendecomposition and no BLAS call. It agrees with the general path
    to 1e-8.

    b's purity is tested first: the protocols pass the target or I / d
    as b, each kept per process with its purity, so F(sigma, target)
    computes no purity of sigma. The overlap Sum_ij a_ij b_ji reads a b
    that the package built equal to its transpose (I / d, a real
    stabilizer target) as stored, and any other b through the strided
    view b^T, with no copy. Both paths sum the same products in the
    same order, up to the sign of a zero, which can only flip the sign
    of a zero sum; max(0, .) maps that to +0.0, so the result does not
    depend on the path.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if _is_pure(b) or _is_pure(a):
        bt = b.matrix if b._symmetric else b.matrix.T
        overlap = float(np.real(np.sum(a.matrix * bt)))
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
