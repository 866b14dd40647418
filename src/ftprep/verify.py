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

Each variant's flag flips and residual coset key are read, in the one loop
over the fault locations, off the backward sweep that also builds the Monte
Carlo effect tables, seeded with the coset key columns that also key the
light-error table and the counterexample's reduced weight.  A
combination goes undetected exactly when its last variant's flag words
equal the XOR of the other variants' words, so each (f - 1)-combination is
joined only to the later variants carrying that XOR, and only these joined
candidates have their coset keys checked.  A counterexample's residual on
the code qubits comes off the same sweep, seeded with each code qubit's
own bit instead of its key column.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import xor

import numpy as np

from .circuit import Circuit, CXGate, FlagMeasure, Init, pack_effects, propagate_backward
from .css import CssState, coset_enumeration, coset_key_columns


JOIN_BLOCK = 1 << 18  # prefixes or joined candidates built per block
COMBINATION_CAP = 200_000_000  # fault combinations one call may cover


class VerificationBudgetError(RuntimeError):
    """The exhaustive combination space exceeds the configured cap."""


@dataclass(frozen=True)
class FaultLocation:
    """One fault site with its insertable single-type patterns.

    ``site`` names the op index in the scheduled circuit, whose op says
    what the site is; each variant is a qubit mask of the inserted Pauli
    (of the run's single type).
    """

    site: int
    variants: tuple[int, ...]


@dataclass(frozen=True)
class Counterexample:
    fault_type: str
    faults: tuple[tuple[int, int], ...]  # (op index, inserted pattern mask)
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
    measurement basis, that is when the basis differs from the type.  The
    final transversal measurement is noiseless.
    """
    if fault_type not in ("X", "Z"):
        raise ValueError("fault_type must be 'X' or 'Z'")
    stabilized = "+" if fault_type == "X" else "0"  # the Init basis the type leaves alone
    locations: list[FaultLocation] = []
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, CXGate):
            a, b = 1 << op.control, 1 << op.target
            locations.append(FaultLocation(pos, (a, b, a | b)))
        elif op.basis != (fault_type if isinstance(op, FlagMeasure) else stabilized):
            locations.append(FaultLocation(pos, (1 << op.qubit,)))
    return locations


def verify_fault_tolerance(
    circuit: Circuit,
    state: CssState,
    t: int,
    fault_type: str,
) -> Counterexample | None:
    """Exhaustively test the FT criterion for one fault type.

    Returns None on a pass, otherwise the lexicographically first failing
    combination of variants at the smallest failing fault count.  Raises
    VerificationBudgetError when the combination space exceeds
    COMBINATION_CAP, and ValueError when t < 1 or syndrome plus class bits
    exceed 64.

    An undetected residual has reduced weight above f exactly when its coset
    key is not among the keys of the errors of weight <= f.
    """
    if t < 1:
        raise ValueError(f"require t >= 1, got t={t}")
    locations = enumerate_fault_locations(circuit, fault_type)
    nv = sum(len(loc.variants) for loc in locations)
    total = sum(math.comb(nv, f) for f in range(1, t + 1))
    if total > COMBINATION_CAP:
        raise VerificationBudgetError(
            f"{total} fault combinations exceed the cap {COMBINATION_CAP} "
            f"({nv} variants over {len(locations)} locations, t={t})"
        )
    key_cols = coset_key_columns(state, fault_type)
    cols = propagate_backward(circuit, key_cols, fault_type)
    side = 0 if fault_type == "X" else 1
    # Each variant's (site, mask), its effect ``key << flag_count | flags``
    # in the variant order of enumerate_fault_locations, and the index of
    # the first variant at a later location.
    faults: list[tuple[int, int]] = []
    effects: list[int] = []
    nxt: list[int] = []
    for loc in locations:
        op = circuit.ops[loc.site]
        if isinstance(op, FlagMeasure):
            effects.append(1 << op.outcome)
        elif isinstance(op, Init):
            effects.append(cols[loc.site][side][op.qubit])
        else:
            col = cols[loc.site][side]
            a, b = col[op.control], col[op.target]
            effects += (a, b, a ^ b)
        faults += [(loc.site, mask) for mask in loc.variants]
        nxt += [len(faults)] * len(loc.variants)
    flags, keys = pack_effects(effects, circuit.flag_count)
    del cols, effects  # the sweep's Python ints are not needed by the join
    words = np.ascontiguousarray(flags.T) if len(flags) else np.zeros((nv, 1), np.uint64)
    light = list(coset_enumeration(key_cols, t))  # (weight, key) of every error of weight <= t

    # Variants sorted by (flag words, index) as ``words rank * nv + index``:
    # the later variants with given flag words are one contiguous run of
    # codes.  A variant's row of words compares as one byte string.
    as_bytes = np.dtype((np.void, words.itemsize * words.shape[1]))
    groups, rank = np.unique(words.view(as_bytes)[:, 0], return_inverse=True)
    codes = np.sort(rank * nv + np.arange(nv))
    sorted_keys = keys[codes % nv]
    nxt = np.array(nxt, dtype=np.int64)
    for f in range(1, t + 1):
        allowed = np.array([key for w, key in light if w <= f], dtype=np.uint64)
        for prefix, start in _prefixes(f - 1, nxt):
            pre_words = np.zeros((len(prefix), words.shape[1]), dtype=np.uint64)
            pre_key = np.zeros(len(prefix), dtype=np.uint64)
            for col in prefix.T:
                pre_words ^= words[col]
                pre_key ^= keys[col]
            # The run of codes from the prefix's flag-word group on: a group
            # that is absent has the same left and right rank, so an empty run.
            query = pre_words.view(as_bytes)[:, 0]
            lo = np.searchsorted(codes, np.searchsorted(groups, query, "left") * nv + start)
            hi = np.maximum(lo, np.searchsorted(codes, np.searchsorted(groups, query, "right") * nv))
            for rows, pos in _ranges(lo, hi):
                bad = np.flatnonzero(~np.isin(sorted_keys[pos] ^ pre_key[rows], allowed))
                if len(bad):
                    i = bad[0]
                    members = [*prefix[rows[i]], codes[pos[i]] % nv]
                    found = tuple(faults[v] for v in members)
                    # The residual is the XOR of the members' entries (a flag flip
                    # has none) in the sweep seeded with each code qubit's own bit.
                    unit = propagate_backward(circuit, [1 << q for q in range(state.n)], fault_type)
                    residual = reduce(xor, (
                        unit[site][side][q] for site, mask in found if site in unit
                        for q in range(circuit.n_qubits) if mask >> q & 1
                    ), 0) >> circuit.flag_count
                    # The residual is in its own coset, so the first error of the
                    # weight-ordered enumeration sharing its key comes by its popcount.
                    key = sorted_keys[pos[i]] ^ pre_key[rows[i]]
                    enum = coset_enumeration(key_cols, residual.bit_count())
                    reduced = next(w for w, k in enum if k == key)
                    return Counterexample(fault_type, found, residual, reduced)
    return None


def _prefixes(k: int, nxt: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The k-combinations of variants at distinct locations in lexicographic
    order, as (m, k) blocks of about JOIN_BLOCK rows, each with the index of
    the first variant that may extend each row."""
    if k == 0:
        yield np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
        return
    for block, start in _prefixes(k - 1, nxt):
        for rows, pos in _ranges(start, np.full(len(block), len(nxt))):
            yield np.column_stack((block[rows], pos)), nxt[pos]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair (r, p) with lo[r] <= p < hi[r], in order, as (rows, ps)
    blocks of about JOIN_BLOCK pairs (a longer single row stays whole)."""
    counts = hi - lo
    ends = np.cumsum(counts)
    starts = ends - counts
    shift = lo - starts  # position minus flat pair index, per row
    first = 0
    while first < len(lo):
        stop = max(int(np.searchsorted(ends, starts[first] + JOIN_BLOCK, "right")), first + 1)
        rows = np.repeat(np.arange(first, stop), counts[first:stop])
        yield rows, np.arange(starts[first], ends[stop - 1]) + shift[rows]
        first = stop
