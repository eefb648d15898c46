"""The leaf rule of fidelity's pure branch: read only where b^T is
nonzero, the overlap has the bytes of the dense sum np.sum(a * b^T),
for a state or a vertex a and sparse or dense b alike. A b with more
nonzeros than leaves takes the dense sum itself. The rule makes no
BLAS call, so it holds under every kernel."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qpac.states
from qpac import (
    DensityMatrix,
    PauliString,
    fidelity,
    ghz_density,
    ghz_generators,
    group_closure,
    maximally_mixed,
    stabilizer_state,
)
from qpac.states import Vertex, _Leaves

from conftest import random_density


def _cluster(n):
    return stabilizer_state(group_closure(tuple(
        PauliString.from_text("".join("X" if j == q else "Z" if abs(j - q) == 1 else "I"
                                      for j in range(n)))
        for q in range(n))))


def _y_target(n):
    # (|0...0> + i|1...1>) / sqrt(2): imaginary entries, so b^T != b
    return stabilizer_state(group_closure(
        (PauliString.from_text("Y" + "X" * (n - 1)),) + ghz_generators(n)[1:]))


def _sparse(rng, dim):
    """A mixture of one to three pure states, each on one to three
    basis states drawn from a window of 64: a few nonzeros per leaf,
    1 to 3 in most."""
    m = np.zeros((dim, dim), dtype=complex)
    weights = rng.random(rng.integers(1, 4))
    for w in weights / weights.sum():
        window = np.arange(dim)[rng.integers(0, max(0, dim - 64) + 1):][:64]
        basis = rng.choice(window, size=min(len(window), rng.integers(1, 4)), replace=False)
        v = np.zeros(dim, dtype=complex)
        v[basis] = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return m


TARGETS = ("mixed", "ghz", "cluster", "y", "sparse", "dense")


def _b(kind, n, rng):
    if kind == "mixed":
        return maximally_mixed(n)
    if kind == "ghz":
        return ghz_density(n)
    if kind == "cluster":
        return _cluster(n)
    if kind == "y":
        return _y_target(n)
    dim = 1 << n
    return DensityMatrix(_sparse(rng, dim) if kind == "sparse" else random_density(rng, dim, rank=2))


def _a(kind, n, rng):
    dim = 1 << n
    if kind == "state":
        # a pure state: the branch does not depend on b's purity
        return DensityMatrix(random_density(rng, dim, rank=1))
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u /= np.linalg.norm(u)
    if kind == "vertex":
        return Vertex(u)
    # a dyadic scale, as a closed form's 1 / <w|w> is, and trace 1
    scale = 2.0 ** -int(rng.integers(1, 2 * n + 1))
    return Vertex(u / np.sqrt(scale), scale)


def _dense_overlap(a, b):
    matrix = a.matrix() if isinstance(a, Vertex) else a.matrix
    return float(np.real(np.sum(matrix * b.matrix.T)))


def _dense(a, b):
    return qpac.states._clamp_unit(np.sqrt(max(0.0, _dense_overlap(a, b))))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), a_kind=st.sampled_from(["state", "vertex", "dyadic"]),
       b_kind=st.sampled_from(TARGETS), seed=st.integers(0, 2**32 - 1))
def test_overlap_has_the_bytes_of_the_dense_sum(n, a_kind, b_kind, seed):
    # the GHZ and Y targets need two qubits
    assume(n >= 2 or b_kind not in ("ghz", "y"))
    rng = np.random.default_rng(seed)
    a, b = _a(a_kind, n, rng), _b(b_kind, n, rng)
    assert fidelity(a, b).hex() == _dense(a, b).hex()
    # the leaves of any b, also one that fidelity reads as dense; a
    # zero sum may differ in its sign alone, which + 0.0 clears
    leaves = _Leaves(b.matrix.T)
    got = leaves.overlap(a._entries(leaves.positions)) + 0.0
    assert got.hex() == (_dense_overlap(a, b) + 0.0).hex()


def test_sparse_targets_cover_every_leaf_kind():
    # leaves with one, two and three or more nonzeros of b^T, each b
    # read through its leaves
    held = set()
    rng = np.random.default_rng(0)
    for _ in range(20):
        leaves = DensityMatrix(_sparse(rng, 256))._transpose
        assert isinstance(leaves, _Leaves)
        held.update(np.bincount(leaves.positions // leaves.leaf).tolist())
    assert {1, 2, 3} <= held


@pytest.mark.parametrize("n", [6, 10])
def test_dense_targets_keep_no_pattern(n):
    # GHZ and I / d read through their leaves; a cluster state, with
    # every entry nonzero, as stored, since it equals its transpose,
    # and a dense complex state through the strided transpose: no index
    # array is cached for either
    assert isinstance(ghz_density(n)._transpose, _Leaves)
    assert isinstance(maximally_mixed(n)._transpose, _Leaves)
    cluster = _cluster(n)
    assert cluster._transpose is cluster.matrix
    rng = np.random.default_rng(n)
    dim = 1 << n
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    b = DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real)
    assert b._transpose.base is b.matrix and not b._transpose.flags.c_contiguous


def test_a_vertex_builds_no_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("a d x d matrix built for a vertex")

    rng = np.random.default_rng(1)
    vertex = _a("dyadic", 6, rng)
    want = [_dense(vertex, b) for b in (maximally_mixed(6), ghz_density(6), _y_target(6))]
    monkeypatch.setattr(Vertex, "matrix", refuse)
    got = [fidelity(vertex, b) for b in (maximally_mixed(6), ghz_density(6), _y_target(6))]
    assert got == want
