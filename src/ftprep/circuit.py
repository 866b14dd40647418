"""Time-ordered circuit model for preparation circuits and gadgets.

A circuit is its code-qubit map and its ops.  Qubits are integer-indexed;
``code_index`` maps each one to its code qubit, or to None for a flag.
Operations appear in time order: every qubit is initialized exactly once
before its first gate, flags are measured exactly once after their last
gate, and code qubits are only read by the final transversal Z
measurement, which stays implicit and noiseless.  A qubit's role follows
from its ops: code qubits started in |+> are the controls of the bipartite
preparation graph and those started in |0> its targets; a flag measured in
Z detects X errors and one measured in X detects Z errors.

The module also owns the backward transfer-map sweep that the noiseless
check, the exhaustive verifier and the Monte Carlo effect tables are built
from (it returns the transfer-map columns only), and the packed flag layout.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class Init:
    qubit: int
    basis: str  # "0" or "+"


@dataclass(frozen=True)
class CXGate:
    control: int
    target: int


@dataclass(frozen=True)
class FlagMeasure:
    qubit: int
    basis: str  # "Z" or "X"
    outcome: int  # index into the circuit's flag-outcome vector


Operation = Init | CXGate | FlagMeasure


@dataclass(frozen=True)
class Circuit:
    """An executable preparation circuit."""

    code_index: tuple[int | None, ...]  # circuit qubit -> code qubit, None for flags
    ops: tuple[Operation, ...]

    @property
    def n_qubits(self) -> int:
        return len(self.code_index)

    @property
    def cx_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, CXGate))

    @property
    def flag_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, FlagMeasure))

    def validate(self) -> None:
        """Raise ValueError if the op sequence breaks the circuit invariants.

        Besides the init/measure order, flag outcome indices must be
        distinct and lie in ``range(flag_count)``, no CX may act on one qubit
        as both control and target, and no two circuit qubits may map to one
        code qubit.
        """
        code = [ci for ci in self.code_index if ci is not None]
        if len(set(code)) != len(code):
            dup = next(ci for ci in code if code.count(ci) > 1)
            raise ValueError(f"code qubit {dup} mapped from two circuit qubits")
        inited: set[int] = set()
        measured: set[int] = set()
        outcomes: set[int] = set()
        n_flags = self.flag_count
        for op in self.ops:
            if isinstance(op, Init):
                if op.qubit in inited:
                    raise ValueError(f"qubit {op.qubit} initialized twice")
                inited.add(op.qubit)
            elif isinstance(op, CXGate):
                if op.control == op.target:
                    raise ValueError(f"CX on qubit {op.control} has it as both control and target")
                for q in (op.control, op.target):
                    if q not in inited:
                        raise ValueError(f"qubit {q} used before initialization")
                    if q in measured:
                        raise ValueError(f"qubit {q} used after measurement")
            elif isinstance(op, FlagMeasure):
                if op.qubit in measured:
                    raise ValueError(f"flag {op.qubit} measured twice")
                if self.code_index[op.qubit] is not None:
                    raise ValueError("code qubits may only be measured transversally")
                if not 0 <= op.outcome < n_flags:
                    raise ValueError(f"flag outcome m{op.outcome} outside 0..{n_flags - 1}")
                if op.outcome in outcomes:
                    raise ValueError(f"flag outcome m{op.outcome} recorded twice")
                measured.add(op.qubit)
                outcomes.add(op.outcome)
        for q in range(self.n_qubits):
            if q not in inited:
                raise ValueError(f"qubit {q} never initialized")
            if self.code_index[q] is None and q not in measured:
                raise ValueError(f"flag {q} never measured")


def propagate_backward(
    circuit: Circuit, key_cols: list[int], error_side: str
) -> dict[int, tuple[list[int], list[int]]]:
    """Transfer-map columns right after every Init and CX, by op position.

    The columns at a position are ``(col_x, col_z)`` over all qubits: entry
    q is the end-of-circuit effect (a bitmask) of an X (``col_x``) or Z
    (``col_z``) on q inserted right after that op.  A backward walk over the
    ops starts them as the effect of a Pauli that survives to the end: on
    ``error_side``, code qubit i's coset key ``key_cols[i]`` (the caller's
    :func:`css.coset_key_columns`) shifted above the flag bits, and 0
    otherwise, so every effect reads
    ``key << flag_count | flag flips``.  Through a CX, X frames flow
    control -> target and Z frames target -> control.  A flag measurement
    sets its qubit's column to ``1 << outcome`` on the side it detects
    (``col_x`` for a Z-basis measurement, ``col_z`` for an X-basis one) and
    to 0 on the other.  Raises ValueError unless the circuit's code qubits
    are exactly ``0..len(key_cols)-1``, each used once, and for an outcome
    index outside ``range(circuit.flag_count)``, whose bit would land among
    the key bits.
    """
    n = len(key_cols)
    if sorted(ci for ci in circuit.code_index if ci is not None) != list(range(n)):
        raise ValueError(f"circuit code qubits are not exactly 0..{n - 1}, each used once")
    n_flags = circuit.flag_count
    seed = [0 if ci is None else key_cols[ci] << n_flags for ci in circuit.code_index]
    zeros = [0] * circuit.n_qubits
    col_x, col_z = (seed, zeros) if error_side == "X" else (zeros, seed)
    cols: dict[int, tuple[list[int], list[int]]] = {}
    for pos in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[pos]
        if isinstance(op, FlagMeasure):
            if not 0 <= op.outcome < n_flags:
                raise ValueError(f"flag outcome m{op.outcome} outside 0..{n_flags - 1}")
            bit = 1 << op.outcome
            col_x[op.qubit] = bit if op.basis == "Z" else 0
            col_z[op.qubit] = bit if op.basis == "X" else 0
            continue
        cols[pos] = (col_x[:], col_z[:])
        if isinstance(op, CXGate):
            col_x[op.control] ^= col_x[op.target]
            col_z[op.target] ^= col_z[op.control]
    return cols


def pack_effects(effects: list[int], n_flags: int) -> tuple[np.ndarray, np.ndarray]:
    """Split effects ``code << n_flags | flags`` into numpy arrays.

    Returns the flag part as word-major uint64 words of shape (W, V), with
    W = ceil(n_flags / 64) and V = len(effects), and the code part (at most
    64 bits) as a 1-D uint64 array.  Word-major rows keep each per-word
    gather contiguous.  One pass writes every effect's little-endian words.
    """
    n_words, shift = divmod(n_flags, 64)
    width = (n_flags + 127) // 64  # words reaching the code's top bit
    words = np.frombuffer(
        b"".join(e.to_bytes(8 * width, "little") for e in effects), dtype="<u8"
    ).reshape(len(effects), width)
    flags = np.array(words[:, : -(-n_flags // 64)].T, dtype=np.uint64, order="C")
    code = words[:, n_words].astype(np.uint64)
    if shift:
        flags[-1] &= np.uint64((1 << shift) - 1)
        code >>= np.uint64(shift)
        code |= words[:, n_words + 1] << np.uint64(64 - shift)
    return flags, code
