"""Symbolic Pauli-string algebra and stabilizer-group enumeration.

A Pauli string on n qubits is stored in the binary symplectic form of
Aaronson & Gottesman (2004): two n-bit masks ``x`` and ``z`` and a sign.
Bit n-1-q of ``x`` is set when factor q is X or Y, bit n-1-q of ``z``
when it is Z or Y, and the string is phase * i^|x&z| * X^x Z^z, so each
Y = iXZ contributes one factor of i. Products, commutation and the
identity test are XORs and popcounts on the masks, and
:class:`qpac.states.EffectBatch` reads each string's signed permutation
from them: expectations and gradients stay O(2^n) instead of O(4^n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import PauliPhaseError, StructureError

FACTORS = "IXYZ"

# factor q -> its x and z bits; the factor of bits (x, z) is "IXZY"[x + 2z]
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


@dataclass(frozen=True, init=False)
class PauliString:
    """A signed tensor product of single-qubit Pauli factors.

    Built from a factor tuple, e.g. ``PauliString(("X", "Y"), -1)``, and
    stored as ``n``, the masks ``x`` and ``z`` and ``phase`` (see the
    module docstring); equality and hashing use those four. ``factors``
    is derived from the masks.

    The phase is restricted to +1/-1: Hermitian stabilizer elements of
    real stabilizer states never need +-i, and rejecting those at the
    type boundary catches logic errors early.
    """

    n: int
    x: int
    z: int
    phase: int

    def __init__(self, factors: Iterable[str], phase: int = 1):
        factors = tuple(factors)
        if len(factors) < 1:
            raise ValueError("need at least one qubit factor")
        bad = set(factors) - set(FACTORS)
        if bad:
            raise ValueError(f"invalid Pauli factors: {sorted(bad)}")
        if phase not in (1, -1):
            raise PauliPhaseError(f"phase must be +1 or -1, got {phase}")
        text = "".join(factors)
        x, z = int(text.translate(_X_BITS), 2), int(text.translate(_Z_BITS), 2)
        self.__dict__.update(n=len(factors), x=x, z=z, phase=phase)

    @classmethod
    def _from_masks(cls, n: int, x: int, z: int, phase: int) -> "PauliString":
        p = object.__new__(cls)
        p.__dict__.update(n=n, x=x, z=z, phase=phase)
        return p

    @property
    def factors(self) -> tuple[str, ...]:
        xs, zs = format(self.x, f"0{self.n}b"), format(self.z, f"0{self.n}b")
        return tuple("IXZY"[int(a) + 2 * int(b)] for a, b in zip(xs, zs))

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def commutes_with(self, other: "PauliString") -> bool:
        """Symplectic rule: commute iff (x1 & z2) ^ (z1 & x2) has an even
        popcount."""
        if self.n != other.n:
            raise ValueError("length mismatch")
        return ((self.x & other.z) ^ (self.z & other.x)).bit_count() % 2 == 0

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
        if text.startswith(("+", "-")):
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

    X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1&x2| X^(x1^x2) Z^(z1^z2), so the
    product is i^k times the string of masks x1^x2, z1^z2 with
    k = |x1&z1| + |x2&z2| - |x&z| + 2|z1&x2| (mod 4).

    Raises :class:`PauliPhaseError` if k is odd, i.e. the phase is +-i.
    That cannot happen for products within the stabilizer group of a
    real stabilizer state, so it signals a caller bug.
    """
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    x, z = a.x ^ b.x, a.z ^ b.z
    k = ((a.x & a.z).bit_count() + (b.x & b.z).bit_count() - (x & z).bit_count()
         + 2 * (a.z & b.x).bit_count()) % 4
    if k % 2 == 1:
        raise PauliPhaseError(f"product {a} * {b} has imaginary phase i^{k}")
    phase = a.phase * b.phase * (1 if k == 0 else -1)
    return PauliString._from_masks(a.n, x, z, phase)


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
    return (PauliString.from_text("X" * n),) + tuple(
        PauliString.from_text("I" * i + "ZZ" + "I" * (n - 2 - i)) for i in range(n - 1)
    )


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
    if len({(e.x, e.z) for e in elements}) != len(elements):
        raise StructureError("closure contains P and -P; not a stabilizer group")
    return StabilizerGroup(tuple(sorted(elements, key=PauliString.sort_key)))


@lru_cache
def stabilizer_group(generators: tuple[PauliString, ...]) -> StabilizerGroup:
    """The :func:`group_closure` of a generator tuple, closed once per
    process: a target's state and each of its supports, GHZ or custom,
    read the same group. Raises :class:`StructureError` as the closure
    does."""
    return group_closure(generators)


def xz_subset(group: StabilizerGroup) -> tuple[PauliString, ...]:
    """Non-identity group elements free of Y factors (x & z = 0), in
    canonical order.

    For the GHZ_n group this has exactly 2^(n-1) members: the even-weight
    Z-type elements plus the all-X string.
    """
    return tuple(p for p in group.elements if not p.is_identity and not p.x & p.z)
