"""Symbolic Pauli-string algebra and stabilizer-group enumeration.

Pauli strings are kept symbolic (a factor tuple plus a sign) rather than
as dense matrices: every string is a signed permutation with one nonzero
per row, so expectations and gradients stay O(2^n) instead of O(4^n).
Dense realization lives in :mod:`qpac.states` and is used as a test
oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import PauliPhaseError, StructureError

FACTORS = "IXYZ"

# Single-qubit products a*b -> (phase exponent k with a*b = i^k * c, factor c).
# Only the anti-diagonal entries pick up imaginary phases.
_MUL = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("X", "X"): (0, "I"), ("X", "Y"): (1, "Z"), ("X", "Z"): (3, "Y"),
    ("Y", "I"): (0, "Y"), ("Y", "X"): (3, "Z"), ("Y", "Y"): (0, "I"), ("Y", "Z"): (1, "X"),
    ("Z", "I"): (0, "Z"), ("Z", "X"): (1, "Y"), ("Z", "Y"): (3, "X"), ("Z", "Z"): (0, "I"),
}


@dataclass(frozen=True)
class PauliString:
    """A signed tensor product of single-qubit Pauli factors.

    The phase is restricted to +1/-1: Hermitian stabilizer elements of
    real stabilizer states never need +-i, and rejecting those at the
    type boundary catches logic errors early.
    """

    factors: tuple[str, ...]
    phase: int = 1

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("need at least one qubit factor")
        bad = set(self.factors) - set(FACTORS)
        if bad:
            raise ValueError(f"invalid Pauli factors: {sorted(bad)}")
        if self.phase not in (1, -1):
            raise PauliPhaseError(f"phase must be +1 or -1, got {self.phase}")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def is_identity(self) -> bool:
        return all(f == "I" for f in self.factors)

    def commutes_with(self, other: "PauliString") -> bool:
        """Symplectic rule: commute iff the count of positions where both
        factors are non-identity and different is even."""
        if self.n != other.n:
            raise ValueError("length mismatch")
        anti = sum(
            1
            for a, b in zip(self.factors, other.factors)
            if a != "I" and b != "I" and a != b
        )
        return anti % 2 == 0

    def sort_key(self):
        """Canonical order: lexicographic on factors with I < X < Y < Z,
        so the identity string sorts first."""
        return tuple(FACTORS.index(f) for f in self.factors), -self.phase

    def __str__(self) -> str:
        return ("+" if self.phase == 1 else "-") + "".join(self.factors)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse e.g. ``"-YY"`` or ``"+ZIZ"`` or ``"XX"`` (sign optional)."""
        text = text.strip()
        phase = 1
        if text[:1] in "+-":
            phase = 1 if text[0] == "+" else -1
            text = text[1:]
        if not text:
            raise ValueError("empty Pauli string")
        return cls(tuple(text.upper()), phase)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(("I",) * n, 1)


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product of two Pauli strings with the accumulated sign.

    Raises :class:`PauliPhaseError` if the accumulated phase is +-i.
    That cannot happen for products within the stabilizer group of a
    real stabilizer state, so it signals a caller bug.
    """
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    k = 0
    out = []
    for fa, fb in zip(a.factors, b.factors):
        dk, fc = _MUL[(fa, fb)]
        k += dk
        out.append(fc)
    k %= 4
    if k % 2 == 1:
        raise PauliPhaseError(f"product {a} * {b} has imaginary phase i^{k}")
    phase = a.phase * b.phase * (1 if k == 0 else -1)
    return PauliString(tuple(out), phase)


@dataclass(frozen=True)
class StabilizerGroup:
    """A stabilizer group as a canonically ordered element tuple.

    Built through :func:`group_closure`; elements are closed under
    multiplication and include the identity with phase +1.
    """

    elements: tuple[PauliString, ...]

    @property
    def n(self) -> int:
        return self.elements[0].n

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def non_identity(self) -> tuple[PauliString, ...]:
        return tuple(p for p in self.elements if not p.is_identity)


def ghz_generators(n: int) -> tuple[PauliString, ...]:
    """Stabilizer generators of the n-qubit GHZ state.

    X on every qubit, plus Z on each nearest-neighbour pair:
    ``ghz_generators(3) -> (+XXX, +ZZI, +IZZ)``.
    """
    if n < 2:
        raise ValueError(f"GHZ state needs n >= 2 qubits, got {n}")
    gens = [PauliString(("X",) * n)]
    for i in range(n - 1):
        factors = ["I"] * n
        factors[i] = "Z"
        factors[i + 1] = "Z"
        gens.append(PauliString(tuple(factors)))
    return tuple(gens)


def group_closure(generators: Sequence[PauliString]) -> StabilizerGroup:
    """All 2^k subset products of k independent commuting generators.

    Returns elements in canonical order (lexicographic on factors,
    identity first). Raises :class:`StructureError` for non-commuting
    or dependent generator sets.
    """
    gens = list(generators)
    if not gens:
        raise StructureError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise StructureError("generators act on different qubit counts")
    for a, b in combinations(gens, 2):
        if not a.commutes_with(b):
            raise StructureError(f"generators {a} and {b} do not commute")

    elements = {PauliString.identity(n)}
    for g in gens:
        elements |= {pauli_multiply(g, e) for e in elements}

    if len(elements) != 2 ** len(gens):
        raise StructureError(
            f"generators are dependent: closure has {len(elements)} elements, "
            f"expected {2 ** len(gens)}"
        )
    if len({e.factors for e in elements}) != len(elements):
        raise StructureError("closure contains P and -P; not a stabilizer group")
    return StabilizerGroup(tuple(sorted(elements, key=PauliString.sort_key)))


def xz_subset(group: StabilizerGroup) -> tuple[PauliString, ...]:
    """Non-identity group elements free of Y factors, in canonical order.

    For the GHZ_n group this has exactly 2^(n-1) members: the even-weight
    Z-type elements plus the all-X string.
    """
    return tuple(
        p
        for p in group.elements
        if not p.is_identity and all(f in "IXZ" for f in p.factors)
    )
