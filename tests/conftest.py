"""Shared test helpers: an independent dense-matrix oracle for the
symbolic Pauli algebra, random density-matrix generators, the
learner's form of hand-built (effect, value) pairs, and the Frank-Wolfe
iterates of a run rebuilt from its recorded vertices."""

import functools

import numpy as np
import pytest

from qpac import PauliString, learner
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


def pauli_action(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """perm and c of P|k> = c_k |perm_k>, read from the (x, z) masks of
    P = phase * i^|x&z| * X^x Z^z: perm_k = k ^ x and c_k = phase *
    i^|x&z| * (-1)^|k&z|. A reference for the package's tables."""
    k = np.arange(1 << p.n)
    sign = np.where(np.bitwise_count(k & p.z) % 2, -1, 1)
    return k ^ p.x, (p.phase * 1j ** ((p.x & p.z).bit_count() % 4) * sign).astype(complex)


def scattered_sum(strings, weights) -> np.ndarray:
    """Dense sum_i w_i P_i, added string by string at the scatter
    positions of P|k> = c_k |perm_k>, [perm_k, k] = flat (k ^ x) * d + k,
    read from the masks: the layout the package no longer keeps, as the
    byte reference of its sums."""
    dim = 1 << strings[0].n
    g = np.zeros(dim * dim, dtype=complex)
    for p, w in zip(strings, weights):
        perm, c = pauli_action(p)
        g[perm * dim + np.arange(dim)] += w * c
    return g.reshape(dim, dim)


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


def record_vertices(monkeypatch) -> list:
    """Every eigenvector that ``learner._smallest_built`` returns, in
    order: the Frank-Wolfe vertices of the steps that solve their own."""
    vertices = []
    real = learner._smallest_built

    def recorded(hs, tol):
        pairs = real(hs, tol=tol)
        vertices.extend(v for v, _ in pairs)
        return pairs

    monkeypatch.setattr(learner, "_smallest_built", recorded)
    return vertices


def fw_iterates(vertices, hyp) -> list:
    """sigma_1, sigma_2, ... of a run from its vertices, with the loop's
    update: ``atom + 0.0`` at k = 1, then (1 - 1/k) sigma + (1/k) atom.
    The last iterate must have the bytes of ``hyp.sigma``."""
    iterates = []
    for k, v in enumerate(vertices, 1):
        atom = np.outer(v, v.conj())
        alpha = 1.0 / k
        iterates.append(atom + 0.0 if k == 1 else (1.0 - alpha) * iterates[-1] + alpha * atom)
    assert iterates[-1].tobytes() == hyp.sigma.matrix.tobytes()
    return iterates
