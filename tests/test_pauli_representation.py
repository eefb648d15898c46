"""The binary symplectic representation of a Pauli string round-trips
its factor tuple, text, equality, hashing and canonical order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import PauliString

factor_tuples = st.integers(1, 10).flatmap(
    lambda n: st.tuples(*[st.sampled_from("IXYZ")] * n)
)
signs = st.sampled_from([1, -1])


class TestRepresentation:
    @given(factor_tuples, signs)
    @settings(max_examples=200, deadline=None)
    def test_factors_and_text_round_trip(self, factors, sign):
        p = PauliString(factors, sign)
        assert p.factors == factors
        assert p.n == len(factors)
        assert PauliString.from_text(str(p)) == p
        assert str(p) == ("+" if sign == 1 else "-") + "".join(factors)

    @given(factor_tuples, signs, factor_tuples, signs)
    @settings(max_examples=200, deadline=None)
    def test_equality_hash_and_order_follow_factors(self, fa, sa, fb, sb):
        a, b = PauliString(fa, sa), PauliString(fb, sb)
        assert (a == b) == ((fa, sa) == (fb, sb))
        if a == b:
            assert hash(a) == hash(b)
        # I < X < Y < Z is also the order of the factor letters
        assert (a.sort_key()[0] < b.sort_key()[0]) == (fa < fb)
        assert (a.sort_key() < b.sort_key()) == ((fa, -sa) < (fb, -sb))

    def test_masks(self):
        # factor 0 owns the most significant bit; Y sets both masks
        p = PauliString.from_text("-XYZI")
        assert (p.n, p.x, p.z, p.phase) == (4, 0b1100, 0b0110, -1)
