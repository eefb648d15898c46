"""Density matrices, measurement effects, expectations, and fidelity.

A Pauli string is a signed permutation of the computational basis, so
Tr(P rho) is a single O(2^n) gather along one matrix diagonal-like
stripe; the package never forms a Pauli string as a dense 2^n x 2^n
matrix.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NonPhysicalStateError
from .linalg import eigendecompose, sqrt_psd
from .pauli import PauliString, StabilizerGroup

MAX_QUBITS = 10

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
_CLAMP_SLACK = 1e-9


class EffectBatch:
    """Vectorized expectations of a fixed tuple of effects.

    Builds the signed permutation of every Pauli string, the package's
    only code that does, so all Tr(E_i sigma) evaluate as one
    fancy-indexed contraction. A support owns one batch
    (``MeasurementDistribution.batch``), and its tables serve every
    reader of that support: :meth:`expected` is the one Tr(E rho) table
    of a target state, which sampling and the support residuals read,
    and :meth:`rows` slices the objective of a training set drawn from
    the support out of it.
    """

    # Tr(E_i rho) per live target state, made on the first :meth:`expected`
    _targets: weakref.WeakKeyDictionary | None = None

    def __init__(self, effects: Sequence[MeasurementEffect]):
        effects = tuple(effects)
        if not effects:
            raise ValueError("empty effect batch")
        n = effects[0].n
        if any(e.n != n for e in effects):
            raise ValueError("effect batch mixes qubit counts")
        self.dim = 1 << n
        rows = np.arange(self.dim, dtype=np.int64)
        gather = []
        scatter = []
        coeffs = []
        for e in effects:
            # P|k> = c_k |perm_k>, read from the masks of P = phase *
            # i^|x&z| * X^x Z^z: Z^z signs |k> by (-1)^|k&z| and X^x
            # moves it to |k^x>. Factor 0 owns the most significant bit,
            # so this is the Kronecker product of the factors.
            p = e.pauli
            perm = rows ^ p.x
            coeff = np.where(np.bitwise_count(rows & p.z) % 2 == 0, 1.0, -1.0).astype(np.complex128)
            coeff *= p.phase * (1j) ** ((p.x & p.z).bit_count() % 4)
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
        return len(self._coeff)

    def rows(self, indices: Sequence[int] | np.ndarray) -> "EffectBatch":
        """The batch of the effects at ``indices`` (a sequence or an
        integer array), in that order and duplicates kept: rows of this
        batch's tables, the same bytes that ``EffectBatch`` of those
        effects builds (see :class:`_BatchRows`)."""
        if len(indices) == 0:
            raise ValueError("empty effect batch")
        return _BatchRows(self, np.asarray(indices))

    def expected(self, state: DensityMatrix) -> np.ndarray:
        """Read-only Tr(E_i rho) of a target state, computed once for as
        long as the state lives.

        The one rule for a state's outcome probabilities: each Tr(P rho)
        may carry an imaginary part of at most 1e-9, and values within
        1e-9 of [0, 1] are clamped into it; anything further out signals
        a non-physical state and raises.
        """
        if self._targets is None:
            self._targets = weakref.WeakKeyDictionary()
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

    def _traces(self, sigma: np.ndarray) -> tuple[float, np.ndarray]:
        """Re Tr(sigma) and the complex Tr(P_i sigma) of every effect."""
        flat = sigma.ravel()
        # ndarray methods: np.sum's dispatch costs more than these small sums
        tr = flat[self._diag_idx].sum().real
        return tr, (self._coeff * flat[self._gather_idx]).sum(axis=1)

    def expectations(self, sigma: np.ndarray) -> np.ndarray:
        """All Tr(E_i sigma) = (Tr(sigma) + Tr(P_i sigma)) / 2.

        Valid for any square matrix, not just unit-trace ones, so the
        objective stays an exact quadratic under off-plane probes.
        """
        tr, traces = self._traces(sigma)
        return (tr + traces.real) / 2.0

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """Dense sum_i w_i E_i, assembled from the symbolic actions."""
        g = np.zeros(self.dim * self.dim, dtype=np.complex128)
        vals = (weights[:, None] / 2.0) * self._coeff
        np.add.at(g, self._scatter_idx.ravel(), vals.ravel())
        g[self._diag_idx] += np.sum(weights) / 2.0
        return g.reshape(self.dim, self.dim)

    def weighted_operator(self, weights: np.ndarray) -> "EffectSum":
        """sum_i w_i E_i for real weights as an :class:`EffectSum`, with
        no d x d matrix: the entries of :meth:`weighted_sum`, added in
        the same order.

        The rows that share an X-mask x share a permutation, so their
        entries lie on one diagonal, [k ^ x, k]; each diagonal is one
        row of a (K, d) table, K <= m + 1, that adds row i's w_i / 2 *
        coeff_i in row order and, on the identity's diagonal x = 0, the
        Sum w / 2 last, as :meth:`weighted_sum` adds them.
        """
        vals = (weights[:, None] / 2.0) * self._coeff
        # row i's X-mask is where its permutation sends basis state 0;
        # sorted, so the identity's mask 0 leads (np.unique would import
        # numpy.ma, half a megabyte, for this)
        x = self._gather_idx[:, 0]
        present = np.zeros(self.dim, dtype=bool)
        present[x] = present[0] = True
        masks = np.flatnonzero(present)
        table = np.zeros((len(masks), self.dim), dtype=np.complex128)
        np.add.at(table, np.searchsorted(masks, x), vals)
        table[0] += np.sum(weights) / 2.0
        return EffectSum(masks, table)


class EffectSum:
    """A Hermitian sum_i w_i E_i of effects with real weights, as the
    eigen-step reads it above dim 256: its nonzero diagonals, never a
    d x d matrix (:meth:`EffectBatch.weighted_operator`).

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


class _BatchRows(EffectBatch):
    """Rows of a whole batch, from :meth:`EffectBatch.rows`. The tables
    every reader needs are sliced at once; the scatter rows, which
    only :meth:`weighted_sum` reads (a closed-form trial never calls
    it), on first read."""

    def __init__(self, whole: EffectBatch, idx: np.ndarray):
        self._whole, self._idx = whole, idx
        self.dim = whole.dim
        self._gather_idx = whole._gather_idx[idx]
        self._coeff = whole._coeff[idx]
        self._diag_idx = whole._diag_idx

    @cached_property
    def _scatter_idx(self) -> np.ndarray:
        return self._whole._scatter_idx[self._idx]


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

    States the package builds itself (GHZ and generator projectors,
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


@dataclass(frozen=True)
class MeasurementEffect:
    """Two-outcome POVM element E = (I + P)/2 for a Pauli string P.

    Eigenvalues of E are 0 and 1; the complementary effect is I - E.
    """

    pauli: PauliString

    @property
    def n(self) -> int:
        return self.pauli.n

    def __str__(self) -> str:
        return f"(I{self.pauli})/2" if self.pauli.phase == 1 else f"(I-{str(self.pauli)[1:]})/2"


def ghz_density(n: int) -> DensityMatrix:
    """Rank-1 projector onto (|0...0> + |1...1>)/sqrt(2).

    Exactly four nonzero entries, each 1/2.
    """
    if n < 2 or n > MAX_QUBITS:
        raise ValueError(f"GHZ density supports 2 <= n <= {MAX_QUBITS}, got {n}")
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=np.complex128)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            m[i, j] = 0.5
    # v v^dag for the unit vector v = (e_0 + e_{d-1}) / sqrt(2)
    return DensityMatrix._built(m)


def stabilizer_state(group: StabilizerGroup) -> DensityMatrix:
    """The pure state a full stabilizer group fixes: the average of its
    2^n elements, identity included.

    Each element adds its signed permutation, scattered from one batch of
    the group's effects in group order, so no dense Pauli matrix is
    formed and every entry is exact (a multiple of 1/2^n).
    """
    n = group.n
    if len(group) != 1 << n:
        raise ValueError(f"a pure {n}-qubit state needs {1 << n} group elements, got {len(group)}")
    batch = EffectBatch([MeasurementEffect(p) for p in group])
    dim = batch.dim
    acc = np.zeros(dim * dim, dtype=np.complex128)
    np.add.at(acc, batch._scatter_idx.ravel(), batch._coeff.ravel())
    # a 2^n-element stabilizer group averages to its state's projector
    return DensityMatrix._built(acc.reshape(dim, dim) / dim)


def maximally_mixed(n: int) -> DensityMatrix:
    """The uninformative baseline I / 2^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    dim = 1 << n
    # the bytes of np.eye(dim) / dim without a complex division per entry
    m = np.zeros((dim, dim), dtype=np.complex128)
    m.flat[::dim + 1] = 1.0 / dim
    # diagonal, nonnegative, trace 1
    return DensityMatrix._built(m)


def expectation(effect: MeasurementEffect, state: DensityMatrix) -> float:
    """Outcome-1 probability Tr(E rho): the rule of
    :meth:`EffectBatch.expected` applied to a one-effect batch."""
    return float(EffectBatch((effect,)).expected(state)[0])


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity F(a, b) = Tr sqrt(sqrt(a) b sqrt(a)).

    Amplitude convention (not squared). When either argument is pure
    (purity >= 1 - 1e-10), F = sqrt(Re Tr(a b)), which for a = |psi><psi|
    is sqrt(<psi| b |psi>); the trace is an O(d^2) elementwise sum, no
    eigendecomposition. It agrees with the general path to 1e-8.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if _is_pure(a) or _is_pure(b):
        overlap = float(np.real(np.sum(a.matrix * b.matrix.T)))
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
