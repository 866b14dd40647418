"""The noiseless check: a circuit prepares its CSS state with +1 flags.

Every op here is an |0> or |+> initialization, a CX or a flag measurement,
so the image of each Init's stabilizer (Z for |0>, X for |+>) stays a pure
Z or pure X Pauli with sign +, and no stabilizer tableau (Aaronson &
Gottesman, PRA 70, 052328 (2004), arXiv:quant-ph/0406196) is needed.  The
check is the zero-fault case of :func:`circuit.propagate_backward`, seeded
with each code qubit's own bit: an Init's image is its own qubit's entry at
its own position on its own side, the flags it flips in the low bits and
its code-qubit mask above them.

- While every earlier flag is deterministic the state is the images'
  state, so a flag is random exactly when an image of the other type
  flips it.  A deterministic flag reads +1, since products of pure-type
  Paulis with sign + have sign +.
- With every flag deterministic the images generate a maximal stabilizer
  group whose signs are all +.  So a state generator stabilizes the state,
  with sign +, exactly when it commutes with every image of the other type.

A flag or stabilizer of sign -1 therefore cannot occur.  The tableau
itself is a test oracle in ``tests/_reference.py``.  The module keeps its
name because the benchmark harness times
``ftprep.tableau.tableau_check_circuit`` by that name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, FlagMeasure, Init, propagate_backward
from .css import CssState


@dataclass(frozen=True)
class TableauMismatch:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def tableau_check_circuit(circuit: Circuit, state: CssState) -> TableauMismatch | None:
    """The circuit must prepare ``state`` exactly: every flag deterministic
    (and so +1), and every generator of the CSS state, state-stabilizing
    logicals included, stabilizing the final state.

    Returns None when all holds, else the first random flag in op order
    (``nondeterministic-flag``), else the first failing generator in
    ``reduction_group("X")`` then ``("Z")`` order
    (``unsatisfied-stabilizer``).  Raises ValueError when the circuit
    fails :meth:`Circuit.validate` or its code qubits are not exactly
    ``0..state.n-1``.
    """
    circuit.validate()
    unit = [1 << q for q in range(state.n)]
    images: dict[str, list[int]] = {}
    for i, side in enumerate("XZ"):
        cols = propagate_backward(circuit, unit, side)
        images[side] = [
            cols[pos][i][op.qubit] for pos, op in enumerate(circuit.ops)
            if isinstance(op, Init) and (op.basis == "+") == (side == "X")
        ]
    flipped = 0
    for image in images["X"] + images["Z"]:
        flipped |= image
    for op in circuit.ops:
        if isinstance(op, FlagMeasure) and flipped >> op.outcome & 1:
            return TableauMismatch("nondeterministic-flag", f"flag outcome {op.outcome}")
    n_flags = circuit.flag_count
    for typ, other in (("X", "Z"), ("Z", "X")):
        codes = [image >> n_flags for image in images[other]]
        for gen in state.reduction_group(typ):
            if any((gen & code).bit_count() & 1 for code in codes):
                detail = "".join(typ if gen >> q & 1 else "I" for q in range(state.n))
                return TableauMismatch("unsatisfied-stabilizer", detail)
    return None
