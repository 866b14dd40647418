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
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CXGate, FlagMeasure, Init, pack_effects, propagate_backward
from .css import CssState, coset_min_weights
from .pauli import popcount


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-variant (flag words, residual code mask, location index).

    The residual rides above the flag bits in the shared backward sweep,
    seeded on the side of ``fault_type`` only.
    """
    n_flags = circuit.flag_count
    seed = [0 if ci is None else 1 << (n_flags + ci) for ci in circuit.code_index]
    zeros = [0] * circuit.n_qubits
    side = 0 if fault_type == "X" else 1
    sweep = propagate_backward(circuit, *((seed, zeros) if side == 0 else (zeros, seed)))
    effects: list[int] = []
    loc_idx: list[int] = []
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
    flags, resid = pack_effects(effects, n_flags)
    return flags, resid, np.array(loc_idx, dtype=np.int64)


def verify_fault_tolerance(
    circuit: Circuit,
    state: CssState,
    t: int,
    fault_type: str,
    combination_cap: int = 200_000_000,
) -> Counterexample | None:
    """Exhaustively test the FT criterion for one fault type.

    Returns None on a pass, otherwise a counterexample with the smallest
    fault count found.  Raises when the combination space exceeds the cap,
    and ValueError when the code has more than 64 qubits.
    """
    n_code = circuit.n_code
    if n_code > 64:
        raise ValueError(f"{n_code} code qubits exceed the 64-bit residual width")
    locations = enumerate_fault_locations(circuit, fault_type)
    flags, resid, loc_idx = _fault_effects(circuit, locations, fault_type)
    nv = len(resid)
    group_masks = [
        (op.x if fault_type == "X" else op.z) for op in state.reduction_group(fault_type)
    ]
    combos = coset_min_weights(group_masks)

    def reduced_weight_many(res: np.ndarray) -> np.ndarray:
        # min over the group of popcount(res ^ g); vectorized in blocks.
        out = np.full(res.shape, 64, dtype=np.uint64)
        for start in range(0, len(combos), 4096):
            block = combos[start : start + 4096]
            w = np.bitwise_count(res[:, None] ^ block[None, :]).min(axis=1)
            out = np.minimum(out, w)
        return out

    total = 0
    for f in range(1, t + 1):
        total += _count_combinations(loc_idx, f)
    if total > combination_cap:
        raise VerificationBudgetError(
            f"{total} fault combinations exceed the cap {combination_cap} "
            f"({nv} variants over {len(locations)} locations, t={t})"
        )

    for f in range(1, t + 1):
        if f == 1:
            members: list[tuple[int, ...]] = [(i,) for i in range(nv)]
        else:
            members = [
                c
                for c in itertools.combinations(range(nv), f)
                if len({int(loc_idx[i]) for i in c}) == f
            ]
            if not members:
                continue
        arr = np.array(members, dtype=np.int64)
        undetected = np.ones(len(arr), dtype=bool)
        for words in flags:
            undetected &= _xor_gather(words, arr) == 0
        if not undetected.any():
            continue
        idx_und = np.nonzero(undetected)[0]
        cand_resid = _xor_gather(resid, arr[idx_und])
        weights = reduced_weight_many(cand_resid)
        bad = np.nonzero(weights > f)[0]
        if len(bad):
            member = members[int(idx_und[bad[0]])]
            faults = tuple(
                (locations[int(loc_idx[i])].site, int(_variant_mask(locations, loc_idx, i)))
                for i in member
            )
            return Counterexample(
                fault_type=fault_type,
                faults=faults,
                flag_flips=0,
                residual_code_mask=int(cand_resid[bad[0]]),
                reduced_weight=int(weights[bad[0]]),
            )
    return None


def _xor_gather(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """XOR of ``values[idx[:, j]]`` over the columns j of ``idx``."""
    out = values[idx[:, 0]]
    for j in range(1, idx.shape[1]):
        out ^= values[idx[:, j]]
    return out


def _variant_mask(locations: list[FaultLocation], loc_idx: np.ndarray, i: int) -> int:
    loc = locations[int(loc_idx[i])]
    offset = 0
    for j in range(i):
        if int(loc_idx[j]) == int(loc_idx[i]):
            offset += 1
    return loc.variants[offset]


def _count_combinations(loc_idx: np.ndarray, f: int) -> int:
    from math import comb

    nv = len(loc_idx)
    return comb(nv, f)


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
