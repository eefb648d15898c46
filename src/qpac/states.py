"""Density matrices, measurement effects, expectations, and fidelity.

A Pauli string is a signed permutation of the computational basis, so
Tr(P rho) is a single O(2^n) gather along one matrix diagonal-like
stripe. Dense 2^n x 2^n realizations of Pauli strings exist only for
tests and small-n debugging (:func:`to_dense`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonPhysicalStateError
from .linalg import eigendecompose, sqrt_psd
from .pauli import PauliString

MAX_QUBITS = 10
_DENSE_MAX_QUBITS = 8

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
_CLAMP_SLACK = 1e-9


@lru_cache(maxsize=4096)
def _pauli_action(p: PauliString):
    """Permutation/coefficient form of a Pauli string: P|k> = c_k |perm_k>.

    Factor 0 acts on the most significant bit, matching the Kronecker
    product convention of :func:`to_dense`.
    """
    n = p.n
    dim = 1 << n
    flip = 0  # bits toggled by X/Y factors
    signbits = 0  # bits contributing (-1)^bit from Y/Z factors
    n_y = 0
    for q, f in enumerate(p.factors):
        bit = 1 << (n - 1 - q)
        if f in ("X", "Y"):
            flip |= bit
        if f in ("Y", "Z"):
            signbits |= bit
        if f == "Y":
            n_y += 1
    k = np.arange(dim, dtype=np.int64)
    perm = k ^ flip
    parity = np.zeros(dim, dtype=np.int64)
    for b in range(n):
        parity += (k >> b) & ((signbits >> b) & 1)
    coeff = np.where(parity % 2 == 0, 1.0, -1.0).astype(np.complex128)
    coeff *= p.phase * (1j) ** (n_y % 4)
    perm.setflags(write=False)
    coeff.setflags(write=False)
    return perm, coeff


def pauli_trace_product(p: PauliString, mat: np.ndarray) -> complex:
    """Tr(P @ mat) via the signed-permutation structure, O(2^n)."""
    perm, coeff = _pauli_action(p)
    if mat.shape != (len(perm), len(perm)):
        raise ValueError(f"dimension mismatch: {mat.shape} vs Pauli on {p.n} qubits")
    return complex(np.dot(coeff, mat[np.arange(len(perm)), perm]))


def to_dense(p: PauliString) -> np.ndarray:
    """Exact dense matrix of a Pauli string. Guarded to n <= 8."""
    if p.n > _DENSE_MAX_QUBITS:
        raise ValueError(f"dense realization capped at {_DENSE_MAX_QUBITS} qubits, got {p.n}")
    perm, coeff = _pauli_action(p)
    dim = len(perm)
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[perm, np.arange(dim)] = coeff
    return m


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

    @property
    def n_qubits(self) -> int:
        return int(self.dim).bit_length() - 1

    def purity(self) -> float:
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

    def to_dense(self) -> np.ndarray:
        return (np.eye(1 << self.n) + to_dense(self.pauli)) / 2.0

    def __str__(self) -> str:
        return f"(I{self.pauli})/2" if self.pauli.phase == 1 else f"(I-{str(self.pauli)[1:]})/2"


def ghz_density(n: int, max_n: int = MAX_QUBITS) -> DensityMatrix:
    """Rank-1 projector onto (|0...0> + |1...1>)/sqrt(2).

    Exactly four nonzero entries, each 1/2.
    """
    if n < 2 or n > max_n:
        raise ValueError(f"GHZ density supports 2 <= n <= {max_n}, got {n}")
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=np.complex128)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            m[i, j] = 0.5
    # v v^dag for the unit vector v = (e_0 + e_{d-1}) / sqrt(2)
    return DensityMatrix._built(m)


def maximally_mixed(n: int) -> DensityMatrix:
    """The uninformative baseline I / 2^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    dim = 1 << n
    # diagonal, nonnegative, trace 1
    return DensityMatrix._built(np.eye(dim, dtype=np.complex128) / dim)


def expectation(effect: MeasurementEffect, state: DensityMatrix) -> float:
    """Outcome-1 probability Tr(E rho) = (1 + Tr(P rho)) / 2.

    Clamps rounding dust within 1e-9 of [0, 1]; anything further out
    signals a non-physical state and raises.
    """
    return _expectation_matrix(effect.pauli, state.matrix)


def _expectation_matrix(p: PauliString, mat: np.ndarray) -> float:
    tr = pauli_trace_product(p, mat)
    if abs(tr.imag) > 1e-9:
        raise NonPhysicalStateError(f"Tr(P rho) has imaginary part {tr.imag}")
    val = (1.0 + tr.real) / 2.0
    if val < -_CLAMP_SLACK or val > 1.0 + _CLAMP_SLACK:
        raise NonPhysicalStateError(f"expectation {val} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, val))


def fidelity(a: DensityMatrix, b: DensityMatrix, method: str = "auto") -> float:
    """Uhlmann fidelity F(a, b) = Tr sqrt(sqrt(a) b sqrt(a)).

    Amplitude convention (not squared). When either argument is pure
    (purity >= 1 - 1e-10), F = sqrt(Re Tr(a b)), which for a = |psi><psi|
    is sqrt(<psi| b |psi>); the trace is an O(d^2) elementwise sum, no
    eigendecomposition. It agrees with the general path to 1e-8.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if method not in ("auto", "general", "pure"):
        raise ValueError(f"unknown method {method!r}")

    if method != "general":
        if _is_pure(a) or _is_pure(b):
            overlap = float(np.real(np.sum(a.matrix * b.matrix.T)))
            return _clamp_unit(np.sqrt(max(0.0, overlap)))
        if method == "pure":
            raise ValueError("neither argument is rank-1 pure")

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
