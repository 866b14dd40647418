"""Exhaustive fault-tolerance verification of whole preparation circuits.

The criterion, tested separately for X-type and Z-type faults: every
combination of f <= t faults either flips at least one flag measurement or
leaves a residual error on the code qubits whose minimum weight modulo the
same-type stabilizer group of the state (including state-stabilizing
logicals) is at most f.

Faults are single-type Pauli patterns: one variant after each qubit
initialization the pattern does not stabilize, three after each CX, and a
flip of each flag measurement the pattern anticommutes with.  Idle
locations carry noise in simulation but are not adversarial fault sites.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CXGate, FlagMeasure, Init, pack_effects, propagate_backward
from .css import CssState, coset_enumeration, coset_key_columns, coset_keys
from .pauli import popcount


COMBINATION_BLOCK = 1 << 20  # fault combinations checked per streamed block
COMBINATION_CAP = 200_000_000  # fault combinations one call may check


class VerificationBudgetError(RuntimeError):
    """The exhaustive combination space exceeds the configured cap."""


@dataclass(frozen=True)
class FaultLocation:
    """One fault site with its insertable single-type patterns.

    ``site`` names the op index in the scheduled circuit; each variant is a
    qubit mask of the inserted Pauli (of the run's single type).
    """

    site: int
    kind: str  # "init" | "cx" | "meas"
    variants: tuple[int, ...]


@dataclass(frozen=True)
class Counterexample:
    fault_type: str
    faults: tuple[tuple[int, int], ...]  # (op index, inserted pattern mask)
    flag_flips: int
    residual_code_mask: int
    reduced_weight: int

    def __str__(self) -> str:
        sites = ", ".join(f"op{s}:{m:#x}" for s, m in self.faults)
        return (
            f"{len(self.faults)} {self.fault_type} fault(s) [{sites}] -> "
            f"undetected residual {self.residual_code_mask:#x} of reduced weight {self.reduced_weight}"
        )


def enumerate_fault_locations(circuit: Circuit, fault_type: str) -> list[FaultLocation]:
    """Adversarial fault sites of one type in a scheduled circuit.

    Initializations the inserted Pauli stabilizes are skipped (X after |+>,
    Z after |0>), CX gates contribute the three two-qubit patterns, and flag
    measurements contribute a flip only when the type anticommutes with the
    measurement basis.  The final transversal measurement is noiseless.
    """
    if fault_type not in ("X", "Z"):
        raise ValueError("fault_type must be 'X' or 'Z'")
    locations: list[FaultLocation] = []
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, Init):
            stabilized = (op.basis == "+") if fault_type == "X" else (op.basis == "0")
            if not stabilized:
                locations.append(FaultLocation(pos, "init", (1 << op.qubit,)))
        elif isinstance(op, CXGate):
            a, b = 1 << op.control, 1 << op.target
            locations.append(FaultLocation(pos, "cx", (a, b, a | b)))
        elif isinstance(op, FlagMeasure):
            flips = (op.basis == "Z") if fault_type == "X" else (op.basis == "X")
            if flips:
                locations.append(FaultLocation(pos, "meas", (1 << op.qubit,)))
    return locations


def _fault_effects(
    circuit: Circuit, locations: list[FaultLocation], fault_type: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Per-variant (flag words, residual code mask, location index, fault).

    The residual rides above the flag bits in the shared backward sweep,
    seeded on the side of ``fault_type`` only; a variant's fault is its
    (op index, inserted pattern mask).
    """
    n_flags = circuit.flag_count
    seed = [0 if ci is None else 1 << (n_flags + ci) for ci in circuit.code_index]
    zeros = [0] * circuit.n_qubits
    side = 0 if fault_type == "X" else 1
    sweep = propagate_backward(circuit, *((seed, zeros) if side == 0 else (zeros, seed)))
    effects: list[int] = []
    loc_idx: list[int] = []
    faults: list[tuple[int, int]] = []
    for i, loc in enumerate(locations):
        op = circuit.ops[loc.site]
        if loc.kind == "meas":
            effs = [1 << op.outcome]
        else:
            col = sweep.cols[loc.site][side]
            if loc.kind == "init":
                effs = [col[op.qubit]]
            else:
                effs = [col[op.control], col[op.target], col[op.control] ^ col[op.target]]
        effects.extend(effs)
        loc_idx.extend([i] * len(effs))
        faults.extend((loc.site, mask) for mask in loc.variants)
    flags, resid = pack_effects(effects, n_flags)
    return flags, resid, np.array(loc_idx, dtype=np.int64), faults


def verify_fault_tolerance(
    circuit: Circuit,
    state: CssState,
    t: int,
    fault_type: str,
) -> Counterexample | None:
    """Exhaustively test the FT criterion for one fault type.

    Returns None on a pass, otherwise a counterexample with the smallest
    fault count found.  Raises VerificationBudgetError when the combination
    space exceeds COMBINATION_CAP, and ValueError when the code has more
    than 64 qubits.

    An undetected residual has reduced weight above f exactly when its coset
    key is not among the keys of the errors of weight <= f.  Combinations
    are streamed in fixed-size blocks, so memory stays bounded at any t.
    """
    n_code = circuit.n_code
    if n_code > 64:
        raise ValueError(f"{n_code} code qubits exceed the 64-bit residual width")
    locations = enumerate_fault_locations(circuit, fault_type)
    flags, resid, loc_idx, faults = _fault_effects(circuit, locations, fault_type)
    nv = len(resid)
    total = sum(math.comb(nv, f) for f in range(1, t + 1))
    if total > COMBINATION_CAP:
        raise VerificationBudgetError(
            f"{total} fault combinations exceed the cap {COMBINATION_CAP} "
            f"({nv} variants over {len(locations)} locations, t={t})"
        )
    cols = coset_key_columns(state, fault_type)
    keys = coset_keys(resid, cols)
    light: dict[int, int] = {}  # coset key -> minimum weight, up to t
    for w, key in coset_enumeration(cols, t):
        light.setdefault(key, w)

    for f in range(1, t + 1):
        allowed = np.array([key for key, w in light.items() if w <= f], dtype=np.uint64)
        for arr in _combination_blocks(nv, f):
            # Variants of one location are contiguous, so within a sorted
            # combination a repeated location shows up in adjacent columns.
            arr = arr[(loc_idx[arr[:, 1:]] != loc_idx[arr[:, :-1]]).all(axis=1)]
            for words in flags:
                arr = arr[_xor_gather(words, arr) == 0]
            arr_keys = _xor_gather(keys, arr)
            bad = np.nonzero(~np.isin(arr_keys, allowed))[0]
            if len(bad):
                member = arr[bad[0]]
                residual = int(_xor_gather(resid, member[None, :])[0])
                # The residual is in its own coset, so the first error of
                # the weight-ordered enumeration sharing its key comes by
                # its popcount.
                key = int(arr_keys[bad[0]])
                reduced = next(
                    w for w, k in coset_enumeration(cols, popcount(residual)) if k == key
                )
                return Counterexample(
                    fault_type=fault_type,
                    faults=tuple(faults[i] for i in member),
                    flag_flips=0,
                    residual_code_mask=residual,
                    reduced_weight=reduced,
                )
    return None


def _combination_blocks(nv: int, f: int) -> Iterator[np.ndarray]:
    """``itertools.combinations(range(nv), f)`` as (m, f) arrays of at most
    COMBINATION_BLOCK rows, in order."""
    combos = itertools.combinations(range(nv), f)
    row = np.dtype((np.int64, (f,)))
    while True:
        block = np.fromiter(itertools.islice(combos, COMBINATION_BLOCK), dtype=row)
        if not len(block):
            return
        yield block


def _xor_gather(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """XOR of ``values[idx[:, j]]`` over the columns j of ``idx``."""
    out = values[idx[:, 0]]
    for j in range(1, idx.shape[1]):
        out ^= values[idx[:, j]]
    return out


def replay_faults(
    circuit: Circuit, state: CssState, fault_type: str, faults: list[tuple[int, int]]
) -> tuple[int, int]:
    """Forward-propagate an explicit fault set; returns (flag flips, residual).

    Independent of the backward-sweep machinery, so counterexamples can be
    checked against it directly.
    """
    frame = 0
    flag_flips = 0
    pending = dict()
    for pos, mask in faults:
        pending.setdefault(pos, 0)
        pending[pos] ^= mask
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, CXGate):
            if fault_type == "X":
                if (frame >> op.control) & 1:
                    frame ^= 1 << op.target
            else:
                if (frame >> op.target) & 1:
                    frame ^= 1 << op.control
        elif isinstance(op, FlagMeasure):
            flips = (op.basis == "Z") if fault_type == "X" else (op.basis == "X")
            if flips and (frame >> op.qubit) & 1:
                flag_flips ^= 1 << op.outcome
        if pos in pending:
            if isinstance(op, FlagMeasure):
                flag_flips ^= 1 << op.outcome  # measurement flip fault
            else:
                frame ^= pending[pos]
    return flag_flips, circuit.code_mask(frame)
