"""Shared test helpers: an independent dense-matrix oracle for the
symbolic Pauli algebra, random density-matrix generators, and the
learner's form of hand-built (effect, value) pairs."""

import functools

import numpy as np
import pytest

from qpac import PauliString
from qpac.learner import Objective
from qpac.states import EffectBatch

# independent oracle: literal single-qubit matrices composed with kron,
# never the package's permutation fast path
PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@functools.lru_cache(maxsize=None)
def kron_dense(p: PauliString) -> np.ndarray:
    """Dense matrix of ``p``, cached per string and read-only: the
    oracle rebuilds the same small strings many times."""
    m = np.array([[1.0 + 0j]])
    for f in p.factors:
        m = np.kron(m, PAULI_1Q[f])
    m = p.phase * m
    m.setflags(write=False)
    return m


def decompose_pauli_product(mat: np.ndarray):
    """Write a matrix known to be (phase * Pauli string) as such.

    Returns (phase complex in {1, -1, 1j, -1j}, factors). Used to check
    symbolic products against dense multiplication.
    """
    n = int(np.log2(mat.shape[0]))
    for factors in _all_factor_tuples(n):
        base = kron_dense(PauliString(factors, 1))
        # phase = <base, mat> / <base, base>
        overlap = np.trace(base.conj().T @ mat) / mat.shape[0]
        if abs(overlap) > 0.5:
            if np.allclose(mat, overlap * base, atol=1e-12):
                return complex(overlap), factors
    raise AssertionError("matrix is not proportional to a Pauli string")


def _all_factor_tuples(n):
    from itertools import product

    return product("IXYZ", repeat=n)


def ghz_vector(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random mixture of random pure states (a valid density matrix)."""
    rank = rank or dim
    weights = rng.random(rank)
    weights /= weights.sum()
    m = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return m


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def index_rows(items):
    """(effect, value) pairs as the learner reads a drawn training set:
    a batch of their distinct effects, in order of first draw, and
    (1, m) index and value rows into that batch."""
    effects = [e for e, _ in items]
    distinct = list(dict.fromkeys(effects))
    indices = np.array([[distinct.index(e) for e in effects]])
    return EffectBatch(distinct), indices, np.array([[v for _, v in items]], dtype=float)


def objective(items):
    """The learner's objective of (effect, value) pairs."""
    batch, indices, values = index_rows(items)
    return Objective(batch, indices[0], values[0])
