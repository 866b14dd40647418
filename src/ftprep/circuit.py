"""Time-ordered circuit model for preparation circuits and gadgets.

A circuit is its code-qubit map and its ops.  Qubits are integer-indexed;
``code_index`` maps each one to its code qubit, or to None for a flag.
Operations appear in time order: every qubit is initialized exactly once
before its first gate, flags are measured exactly once after their last
gate (the k-th flag measurement records flag outcome k), and code qubits
are only read by the final transversal Z measurement, which stays implicit
and noiseless.  A qubit's role follows from its ops: code qubits started
in |+> are the controls of the bipartite preparation graph and those
started in |0> its targets; a flag measured in Z detects X errors and one
measured in X detects Z errors.

The module also owns the backward sweep that the noiseless check, the
exhaustive verifier and the Monte Carlo effect tables read every fault off
(how a Pauli propagates and what a flag flip is are encoded there only,
and it rejects a circuit outside the model), and the packed flag layout.
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
    """A flag's measurement; the k-th in op order records flag outcome k."""

    qubit: int
    basis: str  # "Z" or "X"


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

        Besides the init/measure order, no CX may act on one qubit as both
        control and target, and no two circuit qubits may map to one code
        qubit.  Flag outcomes follow the measurement order, so they need no
        check.
        """
        code = [ci for ci in self.code_index if ci is not None]
        if len(set(code)) != len(code):
            dup = next(ci for ci in code if code.count(ci) > 1)
            raise ValueError(f"code qubit {dup} mapped from two circuit qubits")
        inited: set[int] = set()
        measured: set[int] = set()
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
                measured.add(op.qubit)
        for q in range(self.n_qubits):
            if q not in inited:
                raise ValueError(f"qubit {q} never initialized")
            if self.code_index[q] is None and q not in measured:
                raise ValueError(f"flag {q} never measured")


def propagate_backward(
    circuit: Circuit, key_cols: list[int], error_side: str
) -> dict[tuple[int, int], tuple[int, int]]:
    """The fault-site record: ``(x, z)`` per op position and qubit of that op.

    Entry ``(pos, q)`` holds the end-of-circuit effects (bitmasks) of an X
    and of a Z on q right after op ``pos``, an Init or a CX, or right before
    it, a flag measurement.  A fault's effect is the XOR of its qubits'
    entries at its site; a qubit's effect changes only at its own ops.  The
    backward walk starts each effect as that of a Pauli surviving to the
    end: on ``error_side``, code qubit i's coset key ``key_cols[i]``
    (:func:`css.coset_key_columns`) shifted above the flag bits, else 0, so
    every effect reads ``key << flag_count | flag flips``.  Through a CX, X
    effects flow control -> target and Z effects target -> control.  The
    k-th flag measurement's entry is its flip ``1 << k`` on the side it
    detects (x for a Z-basis measurement, z for an X-basis one), 0 on the
    other.  Raises ValueError when the circuit fails
    :meth:`Circuit.validate` or its code qubits are not exactly
    ``0..len(key_cols)-1``, each used once.
    """
    circuit.validate()
    n = len(key_cols)
    if sorted(ci for ci in circuit.code_index if ci is not None) != list(range(n)):
        raise ValueError(f"circuit code qubits are not exactly 0..{n - 1}, each used once")
    k = n_flags = circuit.flag_count  # the walk meets flag outcomes last to first
    seed = [0 if ci is None else key_cols[ci] << n_flags for ci in circuit.code_index]
    zeros = [0] * circuit.n_qubits
    col_x, col_z = (seed, zeros) if error_side == "X" else (zeros, seed)
    sites: dict[tuple[int, int], tuple[int, int]] = {}
    for pos in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[pos]
        if isinstance(op, CXGate):
            c, t = op.control, op.target
            sites[pos, c], sites[pos, t] = (col_x[c], col_z[c]), (col_x[t], col_z[t])
            col_x[c] ^= col_x[t]
            col_z[t] ^= col_z[c]
        elif isinstance(op, Init):
            sites[pos, op.qubit] = col_x[op.qubit], col_z[op.qubit]
        else:
            k -= 1
            q, bit = op.qubit, 1 << k
            sites[pos, q] = (col_x[q], col_z[q]) = (bit, 0) if op.basis == "Z" else (0, bit)
    return sites


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
