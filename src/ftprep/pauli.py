"""Phase-free Pauli operators as X/Z bit-vector pairs.

Global phase is never tracked: syndromes, equivalence classes and the
fault-tolerance tests all depend only on commutation relations.  Bit i of
``x``/``z`` is the X/Z component on qubit i.
"""

from __future__ import annotations

from dataclasses import dataclass


def parity(mask: int) -> int:
    """Parity of the popcount of a python int."""
    return bin(mask).count("1") & 1


def popcount(mask: int) -> int:
    return bin(mask).count("1")


@dataclass(frozen=True)
class PauliOperator:
    """A Pauli operator over ``n`` qubits, up to phase."""

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self) -> None:
        limit = (1 << self.n) - 1
        if self.x & ~limit or self.z & ~limit:
            raise ValueError("operator support exceeds qubit count")

    @classmethod
    def from_string(cls, pauli: str) -> PauliOperator:
        """Parse a string over ``I X Y Z`` (qubit 0 first)."""
        x = z = 0
        for i, ch in enumerate(pauli.strip().upper()):
            if ch == "X":
                x |= 1 << i
            elif ch == "Z":
                z |= 1 << i
            elif ch == "Y":
                x |= 1 << i
                z |= 1 << i
            elif ch != "I":
                raise ValueError(f"invalid Pauli character {ch!r}")
        return cls(len(pauli.strip()), x, z)

    def to_string(self) -> str:
        chars = []
        for i in range(self.n):
            xb = (self.x >> i) & 1
            zb = (self.z >> i) & 1
            chars.append("IXZY"[xb + 2 * zb] if xb + 2 * zb != 3 else "Y")
        return "".join(chars)

    @property
    def support(self) -> int:
        return self.x | self.z

    @property
    def weight(self) -> int:
        return popcount(self.x | self.z)

    def compose(self, other: PauliOperator) -> PauliOperator:
        """Product up to phase (component-wise XOR)."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return PauliOperator(self.n, self.x ^ other.x, self.z ^ other.z)

