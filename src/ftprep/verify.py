"""Exhaustive fault-tolerance verification of whole preparation circuits.

The criterion, tested separately for X-type and Z-type faults: every
combination of f <= t faults either flips at least one flag measurement or
leaves a residual error on the code qubits whose minimum weight modulo the
same-type stabilizer group of the state (including state-stabilizing
logicals) is at most f.

Faults are single-type Pauli patterns at two kinds of site: the pattern on
both qubits right after each CX, and a flip of each flag measurement the
pattern anticommutes with.  A CX copies X from control to target and Z
from target to control, so X_c X_t after it is X_c before it and Z_c Z_t
after it is Z_t before it.  Any other single-qubit fault (after an
initialization, or on one qubit after a CX) moves forward unchanged to the
next gate that copies it, where it is that gate's pattern, or to the end of
its qubit: a listed flag flip, nothing, or one code-qubit bit.  Moved faults
meeting at one site merge or cancel.  A code-qubit bit changes the reduced
weight by at most one, so a failing combination of f faults still fails at
f - 1 without it.  So every failing combination becomes a failing one of at
most f listed faults with the same flags, and verdicts and the smallest
failing f are those over every single-qubit site: the hook-error argument
of Chao & Reichardt, PRL 121, 050502 (2018), arXiv:1705.02329, which the
gadget search's incremental test (``gadgets.discover_gadget``) shares.
Idle locations carry noise in simulation but are not adversarial fault
sites.

Each fault's flag flips and residual coset key, its effect, are the XOR of
its qubits' entries at its site in the backward sweep's record, which also
builds the Monte Carlo effect tables, seeded with the coset key columns
that also key the light-error table and the counterexample's reduced
weight.  A combination goes undetected exactly when its last fault's flag
words equal the XOR of the other faults' words, so each (f - 1)-combination
is joined only to the later faults carrying that XOR, and only these
joined candidates have their coset keys checked.  A counterexample's residual on
the code qubits is read by the same rule off the record seeded with each
code qubit's own bit instead of its key column.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import xor

import numpy as np

from .circuit import Circuit, CXGate, FlagMeasure, pack_effects, propagate_backward
from .css import CssState, coset_enumeration, coset_key_columns


JOIN_BLOCK = 1 << 18  # prefixes or joined candidates built per block
COMBINATION_CAP = 200_000_000  # fault combinations one call may cover


class VerificationBudgetError(ValueError):
    """The exhaustive combination space exceeds the configured cap."""


@dataclass(frozen=True)
class FaultLocation:
    """One fault site with its insertable single-type pattern.

    ``site`` names the op index in the scheduled circuit, whose op says
    what the site is; ``variants`` holds one qubit mask of the inserted
    Pauli (of the run's single type).
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

    Each CX contributes its one two-qubit pattern, and each flag measurement
    a flip when the type anticommutes with the measurement basis, that is
    when the basis differs from the type; every other single-type fault
    moves forward to one of these (module docstring).  The final transversal
    measurement is noiseless.
    """
    if fault_type not in ("X", "Z"):
        raise ValueError("fault_type must be 'X' or 'Z'")
    locations: list[FaultLocation] = []
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, CXGate):
            locations.append(FaultLocation(pos, (1 << op.control | 1 << op.target,)))
        elif isinstance(op, FlagMeasure) and op.basis != fault_type:
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
    combination of faults at the smallest failing fault count.  Raises
    VerificationBudgetError when the combination space exceeds
    COMBINATION_CAP, and ValueError when t < 1, syndrome plus class bits
    exceed 64 or the circuit is outside the model.

    An undetected residual has reduced weight above f exactly when its coset
    key is not among the keys of the errors of weight <= f.
    """
    if t < 1:
        raise ValueError(f"require t >= 1, got t={t}")
    key_cols = coset_key_columns(state, fault_type)
    # The sweep validates the circuit, so that error comes before the cap's.
    sites = propagate_backward(circuit, key_cols, fault_type)
    locations = enumerate_fault_locations(circuit, fault_type)
    nloc = len(locations)
    total = sum(math.comb(nloc, f) for f in range(1, t + 1))
    if total > COMBINATION_CAP:
        raise VerificationBudgetError(
            f"{total} fault combinations exceed the cap {COMBINATION_CAP} "
            f"({nloc} fault locations, t={t})"
        )
    side = "XZ".index(fault_type)
    # Each fault's (site, mask) and its effect ``key << flag_count | flags``.
    faults = [(loc.site, loc.variants[0]) for loc in locations]
    effects = [_effect(sites, fault, side) for fault in faults]
    flags, keys = pack_effects(effects, circuit.flag_count)
    del sites, effects  # the sweep's Python ints are not needed by the join
    words = np.ascontiguousarray(flags.T) if len(flags) else np.zeros((nloc, 1), np.uint64)
    light = list(coset_enumeration(key_cols, t))  # (weight, key) of every error of weight <= t

    # Faults sorted by (flag words, index) as ``words rank * nloc + index``:
    # the later faults with given flag words are one contiguous run of
    # codes.  A fault's row of words compares as one byte string.
    as_bytes = np.dtype((np.void, words.itemsize * words.shape[1]))
    groups, rank = np.unique(words.view(as_bytes)[:, 0], return_inverse=True)
    codes = np.sort(rank * nloc + np.arange(nloc))
    sorted_keys = keys[codes % nloc]
    for f in range(1, t + 1):
        # Sorted, for membership by search; it holds key 0, so it is never
        # empty and the clipped index is valid.
        allowed = np.sort(np.array([key for w, key in light if w <= f], dtype=np.uint64))
        for prefix, start in _prefixes(f - 1, nloc):
            pre_words = np.zeros((len(prefix), words.shape[1]), dtype=np.uint64)
            pre_key = np.zeros(len(prefix), dtype=np.uint64)
            for col in prefix.T:
                pre_words ^= words[col]
                pre_key ^= keys[col]
            # The run of codes from the prefix's flag-word group on: a group
            # that is absent has the same left and right rank, so an empty run.
            query = pre_words.view(as_bytes)[:, 0]
            lo = np.searchsorted(codes, np.searchsorted(groups, query, "left") * nloc + start)
            hi = np.maximum(lo, np.searchsorted(codes, np.searchsorted(groups, query, "right") * nloc))
            for rows, pos in _ranges(lo, hi):
                cand = sorted_keys[pos] ^ pre_key[rows]
                at = np.minimum(np.searchsorted(allowed, cand), len(allowed) - 1)
                bad = np.flatnonzero(allowed[at] != cand)
                if len(bad):
                    i = bad[0]
                    members = [*prefix[rows[i]], codes[pos[i]] % nloc]
                    found = tuple(faults[v] for v in members)
                    # The residual: the members' effects in the record seeded
                    # with each code qubit's own bit, above the flag bits.
                    unit = propagate_backward(circuit, [1 << q for q in range(state.n)], fault_type)
                    residual = reduce(xor, (_effect(unit, f, side) for f in found)) >> circuit.flag_count
                    # The residual is in its own coset, so the first error of the
                    # weight-ordered enumeration sharing its key comes by its popcount.
                    key = sorted_keys[pos[i]] ^ pre_key[rows[i]]
                    enum = coset_enumeration(key_cols, residual.bit_count())
                    reduced = next(w for w, k in enum if k == key)
                    return Counterexample(fault_type, found, residual, reduced)
    return None


def _effect(sites: dict[tuple[int, int], tuple[int, int]], fault: tuple[int, int], side: int) -> int:
    """A fault's effect: the XOR of its qubits' entries at its site in the
    record ``sites``, on ``side`` (0 for X, 1 for Z)."""
    (site, mask), effect = fault, 0
    while mask:
        effect ^= sites[site, (mask & -mask).bit_length() - 1][side]
        mask &= mask - 1
    return effect


def _prefixes(k: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The k-combinations of range(n) in lexicographic order, as (m, k)
    blocks of about JOIN_BLOCK rows, each with the first index that may
    extend each row."""
    if k == 0:
        yield np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
        return
    for block, start in _prefixes(k - 1, n):
        for rows, pos in _ranges(start, np.full(len(block), n)):
            yield np.column_stack((block[rows], pos)), pos + 1


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
