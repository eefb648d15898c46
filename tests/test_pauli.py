"""Symbolic Pauli algebra against the dense Kronecker oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    PauliPhaseError,
    PauliString,
    StructureError,
    ghz_generators,
    group_closure,
    pauli_multiply,
    xz_subset,
)

from conftest import decompose_pauli_product, ghz_vector, kron_dense


def P(text):
    return PauliString.from_text(text)


class TestPauliString:
    def test_text_round_trip(self):
        for text in ("+XX", "-YY", "+ZIZ", "-IIII"):
            assert str(P(text)) == text
        assert str(P("XZ")) == "+XZ"

    def test_rejects_empty_and_bad_factors(self):
        with pytest.raises(ValueError):
            PauliString(())
        with pytest.raises(ValueError):
            PauliString(("Q",))

    @pytest.mark.parametrize("text", ["", "   ", "+", "-", " - "])
    def test_text_without_factors_rejected(self, text):
        with pytest.raises(ValueError, match="empty Pauli string"):
            PauliString.from_text(text)

    def test_rejects_imaginary_phase(self):
        with pytest.raises(PauliPhaseError):
            PauliString(("X",), phase=1j)
        with pytest.raises(PauliPhaseError):
            PauliString(("X",), phase=2)

    def test_hermitian_with_unit_eigenvalues(self):
        # real phase guarantees Hermiticity; eigenvalues are +-1
        for text in ("+Y", "-XY", "+ZYX"):
            m = kron_dense(P(text))
            assert np.allclose(m, m.conj().T)
            assert np.allclose(np.sort(np.unique(np.round(np.linalg.eigvalsh(m), 9))), [-1, 1])

    def test_commutes_with_matches_dense(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            a = PauliString(tuple(rng.choice(list("IXYZ"), n)))
            b = PauliString(tuple(rng.choice(list("IXYZ"), n)))
            comm = kron_dense(a) @ kron_dense(b) - kron_dense(b) @ kron_dense(a)
            assert a.commutes_with(b) == bool(np.allclose(comm, 0))


class TestMultiply:
    def test_bell_example(self):
        # (XZ) x (XZ) = (-iY) x (-iY) = -(Y x Y)
        assert pauli_multiply(P("XX"), P("ZZ")) == P("-YY")

    def test_involution(self):
        for text in ("+XX", "-YY", "+ZIZ"):
            p = P(text)
            assert pauli_multiply(p, p) == PauliString.identity(p.n)

    def test_identity(self):
        p = P("-YXZ")
        assert pauli_multiply(p, PauliString.identity(3)) == p

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_multiply(P("X"), P("XX"))

    def test_imaginary_phase_raises(self):
        # X * Y = iZ
        with pytest.raises(PauliPhaseError):
            pauli_multiply(P("X"), P("Y"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_against_dense(self, n):
        """Every factor pair at +-1 phases either reproduces the dense
        product or correctly rejects an imaginary accumulated phase."""
        from itertools import product

        strings = [
            PauliString(f, s) for f in product("IXYZ", repeat=n) for s in (1, -1)
        ]
        if n == 3:  # keep the cube of cases manageable: one phase layer
            strings = [PauliString(f, 1) for f in product("IXYZ", repeat=n)]
        for a in strings:
            for b in strings:
                dense = kron_dense(a) @ kron_dense(b)
                phase, factors = decompose_pauli_product(dense)
                if abs(phase.imag) > 0.5:
                    with pytest.raises(PauliPhaseError):
                        pauli_multiply(a, b)
                else:
                    got = pauli_multiply(a, b)
                    assert got.factors == factors
                    assert got.phase == int(np.real(phase))

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.tuples(*[st.sampled_from("IXYZ")] * n),
                st.tuples(*[st.sampled_from("IXYZ")] * n),
                st.sampled_from([1, -1]),
                st.sampled_from([1, -1]),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_property_against_dense(self, case):
        fa, fb, sa, sb = case
        a, b = PauliString(fa, sa), PauliString(fb, sb)
        dense = kron_dense(a) @ kron_dense(b)
        try:
            got = pauli_multiply(a, b)
        except PauliPhaseError:
            phase, _ = decompose_pauli_product(dense)
            assert abs(phase.imag) > 0.5
        else:
            assert np.allclose(kron_dense(got), dense, atol=1e-12)


class TestGhzGenerators:
    def test_n2(self):
        assert set(ghz_generators(2)) == {P("XX"), P("ZZ")}

    def test_n3_stabilizes_ghz(self):
        gens = ghz_generators(3)
        assert set(gens) == {P("XXX"), P("ZZI"), P("IZZ")}
        v = ghz_vector(3)
        for g in gens:
            assert np.allclose(kron_dense(g) @ v, v, atol=1e-12)

    def test_n4_commuting_independent(self):
        gens = ghz_generators(4)
        assert len(gens) == 4
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                assert a.commutes_with(b)
        assert len(group_closure(gens)) == 16

    def test_too_small(self):
        with pytest.raises(ValueError):
            ghz_generators(1)


class TestGroupClosure:
    def test_ghz2_elements(self):
        group = group_closure(ghz_generators(2))
        assert set(group) == {P("II"), P("XX"), P("ZZ"), P("-YY")}
        assert group.elements[0] == P("II")  # identity sorts first

    def test_ghz3_y_free_count(self):
        group = group_closure(ghz_generators(3))
        assert len(group) == 8
        assert PauliString.identity(3) in group
        y_free = [p for p in group.non_identity() if all(f in "IXZ" for f in p.factors)]
        assert set(y_free) == {P("XXX"), P("ZZI"), P("IZZ"), P("ZIZ")}

    def test_single_generator(self):
        group = group_closure([P("ZZ")])
        assert set(group) == {P("II"), P("ZZ")}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_size_and_closure(self, n):
        group = group_closure(ghz_generators(n))
        assert len(group) == 2**n
        members = set(group)
        rng = np.random.default_rng(n)
        elems = list(group)
        for _ in range(40):
            a, b = (elems[i] for i in rng.integers(0, len(elems), 2))
            assert pauli_multiply(a, b) in members

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_elements_stabilize_ghz(self, n):
        v = ghz_vector(n)
        for p in group_closure(ghz_generators(n)):
            assert np.allclose(kron_dense(p) @ v, v, atol=1e-12)

    def test_non_commuting_rejected(self):
        with pytest.raises(StructureError):
            group_closure([P("XI"), P("ZI")])

    def test_dependent_rejected(self):
        with pytest.raises(StructureError):
            group_closure([P("XX"), P("ZZ"), P("-YY")])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(StructureError):
            group_closure([P("XX"), P("ZZZ")])


class TestXzSubset:
    def test_ghz2(self):
        sub = xz_subset(group_closure(ghz_generators(2)))
        assert set(sub) == {P("XX"), P("ZZ")}

    def test_ghz3(self):
        sub = xz_subset(group_closure(ghz_generators(3)))
        assert set(sub) == {P("XXX"), P("ZZI"), P("IZZ"), P("ZIZ")}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_size(self, n):
        sub = xz_subset(group_closure(ghz_generators(n)))
        assert len(sub) == 2 ** (n - 1)
