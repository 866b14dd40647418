"""Stabilizer tableau simulation, used as the noiseless oracle.

Standard destabilizer/stabilizer tableau with sign tracking
(Aaronson-Gottesman, quant-ph/0406196).  Each row is a Pauli held as two
Python-int qubit masks plus a sign bit, so gates, Pauli faults and row
products are mask operations on rows of any width.  This is the
slow-but-trusted reference against which the bit-level Pauli-frame machinery
is checked: it validates that synthesized circuits prepare their target
state and that flag measurements are deterministic.  Pauli faults and
random measurement outcomes are applied through ``apply_pauli`` and
``measure_z(q, rng)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CXGate, FlagMeasure, Init
from .css import CssState


def _product(x1: int, z1: int, r1: int, x2: int, z2: int, r2: int) -> tuple[int, int, int]:
    """Row (x1, z1, r1) times row (x2, z2, r2), both Hermitian Paulis.

    On each qubit the product picks up i when the second factor follows the
    first in the cycle X -> Y -> Z -> X and -i when it precedes it; the two
    popcounts count those qubits.
    """
    y1, y2 = x1 & z1, x2 & z2
    xo1, zo1, xo2, zo2 = x1 ^ y1, z1 ^ y1, x2 ^ y2, z2 ^ y2
    plus = (xo1 & y2) | (y1 & zo2) | (zo1 & xo2)
    minus = (xo1 & zo2) | (y1 & xo2) | (zo1 & y2)
    phase = 2 * (r1 + r2) + plus.bit_count() - minus.bit_count()
    return x1 ^ x2, z1 ^ z2, (phase % 4) // 2


class Tableau:
    """Aaronson-Gottesman tableau over ``n`` qubits, all starting in |0>.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; ``x[i]`` and
    ``z[i]`` are row i's qubit masks and ``r[i]`` its sign bit.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.x = [1 << i for i in range(n)] + [0] * n  # destabilizers X_i
        self.z = [0] * n + [1 << i for i in range(n)]  # stabilizers Z_i
        self.r = [0] * (2 * n)

    # -- gates ---------------------------------------------------------------

    def h(self, q: int) -> None:
        m = 1 << q
        xs, zs, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xb, zb = xs[i] & m, zs[i] & m
            if xb and zb:
                r[i] ^= 1
            elif xb or zb:
                xs[i] ^= m
                zs[i] ^= m

    def cx(self, a: int, b: int) -> None:
        ma, mb = 1 << a, 1 << b
        xs, zs, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            x, z = xs[i], zs[i]
            if x & ma:
                if z & mb and bool(x & mb) == bool(z & ma):
                    r[i] ^= 1
                xs[i] = x ^ mb
            if z & mb:
                zs[i] = z ^ ma

    def apply_pauli(self, x_mask: int, z_mask: int) -> None:
        """Apply a Pauli error: row signs flip on anticommutation."""
        xs, zs, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            r[i] ^= ((xs[i] & z_mask) ^ (zs[i] & x_mask)).bit_count() & 1

    # -- internals -------------------------------------------------------------

    def _stabilizer_product(self, rows: list[int]) -> tuple[int, int, int]:
        """Product of stabilizer rows ``n + i`` for ``i`` in ``rows``, in order."""
        x = z = r = 0
        for i in rows:
            j = i + self.n
            x, z, r = _product(self.x[j], self.z[j], self.r[j], x, z, r)
        return x, z, r

    # -- measurements ----------------------------------------------------------

    def measure_z(self, q: int, rng: np.random.Generator | None = None) -> tuple[int, bool]:
        """Measure Z on qubit q.  Returns (outcome bit, deterministic)."""
        n, m = self.n, 1 << q
        p = next((i for i in range(n, 2 * n) if self.x[i] & m), -1)
        if p >= 0:
            xs, zs, r = self.x, self.z, self.r
            for i in range(2 * n):
                if i != p and xs[i] & m:
                    xs[i], zs[i], r[i] = _product(xs[p], zs[p], r[p], xs[i], zs[i], r[i])
            xs[p - n], zs[p - n], r[p - n] = xs[p], zs[p], r[p]
            outcome = int(rng.integers(0, 2)) if rng is not None else 0
            xs[p], zs[p], r[p] = 0, m, outcome
            return outcome, False
        return self._stabilizer_product([i for i in range(n) if self.x[i] & m])[2], True

    def measure_x(self, q: int, rng: np.random.Generator | None = None) -> tuple[int, bool]:
        self.h(q)
        out = self.measure_z(q, rng)
        self.h(q)
        return out

    def stabilizer_sign(self, x: int, z: int) -> int | None:
        """Sign with which the Pauli of X mask ``x`` and Z mask ``z``
        stabilizes the state: 0 for +, 1 for -, or None when it is not in
        the stabilizer group at all."""
        # The Pauli anticommutes with destabilizer i  <=>  stabilizer i appears.
        rows = [
            i for i in range(self.n)
            if ((self.x[i] & z) ^ (self.z[i] & x)).bit_count() & 1
        ]
        px, pz, r = self._stabilizer_product(rows)
        return r if (px, pz) == (x, z) else None


@dataclass(frozen=True)
class TableauMismatch:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def run_tableau(circuit: Circuit) -> tuple[Tableau, list[int], list[bool]]:
    """Run a circuit noiselessly on a tableau.  Returns the final tableau,
    flag outcomes, and per-flag determinism."""
    tab = Tableau(circuit.n_qubits)
    outcomes = [0] * circuit.flag_count
    deterministic = [True] * circuit.flag_count
    for op in circuit.ops:
        if isinstance(op, Init):
            if op.basis == "+":
                tab.h(op.qubit)
        elif isinstance(op, CXGate):
            tab.cx(op.control, op.target)
        elif isinstance(op, FlagMeasure):
            measure = tab.measure_z if op.basis == "Z" else tab.measure_x
            outcomes[op.outcome], deterministic[op.outcome] = measure(op.qubit)
    return tab, outcomes, deterministic


def tableau_check_circuit(circuit: Circuit, state: CssState) -> TableauMismatch | None:
    """Noiseless oracle: the circuit must prepare ``state`` exactly.

    Checks that every flag measurement is deterministically +1 and that the
    post-measurement state is stabilized (with + sign) by every generator of
    the CSS state, including the state-stabilizing logicals.  Returns None
    when everything holds, otherwise the first mismatch.
    """
    tab, outcomes, deterministic = run_tableau(circuit)
    for meas in (op for op in circuit.ops if isinstance(op, FlagMeasure)):
        if not deterministic[meas.outcome]:
            return TableauMismatch("nondeterministic-flag", f"flag outcome {meas.outcome}")
        if outcomes[meas.outcome] != 0:
            return TableauMismatch("flag-sign", f"flag outcome {meas.outcome} is -1")
    lift = [(ci, q) for q, ci in enumerate(circuit.code_index) if ci is not None]
    for typ in ("X", "Z"):
        for gen in state.reduction_group(typ):
            # Lift the code-qubit mask to circuit qubits.
            mask = sum(((gen >> ci) & 1) << q for ci, q in lift)
            sign = tab.stabilizer_sign(*((mask, 0) if typ == "X" else (0, mask)))
            if sign != 0:
                kind = "unsatisfied-stabilizer" if sign is None else "stabilizer-sign"
                return TableauMismatch(kind, "".join(typ if gen >> q & 1 else "I" for q in range(state.n)))
    return None
