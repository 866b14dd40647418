"""CSS states: generator data, validation, syndromes and coset weights.

A *CSS state* is a stabilizer state generated by pure X-type and pure Z-type
operators: the code generators plus the logical representatives that
stabilize the chosen logical state (the Z logicals for ``|0..0>``-type
states, the X logicals for ``|+..+>``-type states).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf2 import rank
from .pauli import PauliOperator, parity, popcount


class GroupTooLargeError(ValueError):
    """Enumerating the requested stabilizer subgroup would exceed the cap."""


MIN_WEIGHT_CAP = 20  # min_weight_modulo enumerates at most 2**20 products
COSET_CAP = 24  # max_coset_weight caps the opposite-type quotient at 2**24


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(i) for i in self.issues)


@dataclass(frozen=True)
class CssState:
    """A CSS code prepared in a fixed logical basis state.

    ``stabilizing_basis`` marks which logical representatives stabilize the
    prepared state: "Z" for logical zero states, "X" for logical plus states.
    """

    name: str
    n: int
    k: int
    d: int
    x_generators: tuple[PauliOperator, ...]
    z_generators: tuple[PauliOperator, ...]
    logical_x_reps: tuple[PauliOperator, ...]
    logical_z_reps: tuple[PauliOperator, ...]
    stabilizing_basis: str = "Z"
    state_label: str = "|0>"

    @property
    def t(self) -> int:
        return self.d // 2

    @property
    def state_stabilizing_logicals(self) -> tuple[PauliOperator, ...]:
        if self.stabilizing_basis == "Z":
            return self.logical_z_reps
        return self.logical_x_reps

    def x_type_state_generators(self) -> list[PauliOperator]:
        """All X-type generators of the state (code generators plus any
        X-type state-stabilizing logicals)."""
        gens = list(self.x_generators)
        if self.stabilizing_basis == "X":
            gens.extend(self.logical_x_reps)
        return gens

    def z_type_state_generators(self) -> list[PauliOperator]:
        gens = list(self.z_generators)
        if self.stabilizing_basis == "Z":
            gens.extend(self.logical_z_reps)
        return gens

    def reduction_group(self, error_type: str) -> list[PauliOperator]:
        """Same-type stabilizers of the state used for weight reduction."""
        if error_type == "X":
            return self.x_type_state_generators()
        if error_type == "Z":
            return self.z_type_state_generators()
        raise ValueError(f"error_type must be 'X' or 'Z', got {error_type!r}")

    def checking_generators(self, error_type: str) -> list[PauliOperator]:
        """Opposite-type code generators whose anticommutation gives the
        syndrome of an error of ``error_type``."""
        if error_type == "X":
            return list(self.z_generators)
        if error_type == "Z":
            return list(self.x_generators)
        raise ValueError(f"error_type must be 'X' or 'Z', got {error_type!r}")

    def class_logicals(self, error_type: str) -> list[PauliOperator]:
        """State-stabilizing logical representatives that grade errors of
        ``error_type`` into equivalence classes."""
        logicals = self.state_stabilizing_logicals
        # Only opposite-type logicals can anticommute with a pure-type error.
        if error_type == "X" and self.stabilizing_basis == "Z":
            return list(logicals)
        if error_type == "Z" and self.stabilizing_basis == "X":
            return list(logicals)
        return []


def _masks(ops: list[PauliOperator], error_type: str) -> list[int]:
    if error_type == "X":
        return [op.x for op in ops]
    return [op.z for op in ops]


def min_weight_modulo(error: PauliOperator, group_generators: list[PauliOperator]) -> int:
    """Exact minimum weight of ``error`` over products with the group.

    Enumerates all 2**g group elements in Gray-code order so each step is a
    single XOR; raises GroupTooLargeError beyond the 2**20 cap.
    """
    g = len(group_generators)
    if g > MIN_WEIGHT_CAP:
        raise GroupTooLargeError(f"{g} generators exceed the 2^{MIN_WEIGHT_CAP} cap")
    best_x, best_z = error.x, error.z
    best = popcount(best_x | best_z)
    cur_x, cur_z = error.x, error.z
    gx = [op.x for op in group_generators]
    gz = [op.z for op in group_generators]
    for i in range(1, 1 << g):
        j = (i & -i).bit_length() - 1  # Gray code: flip generator j
        cur_x ^= gx[j]
        cur_z ^= gz[j]
        w = popcount(cur_x | cur_z)
        if w < best:
            best = w
    return best


def coset_key_columns(state: CssState, error_type: str) -> list[int]:
    """Coset key of a single-qubit pure-type error on each qubit.

    Syndrome bits (one per checking generator) sit low and class bits (one
    per class logical) above them.  Keys are linear, and two pure-type
    errors share a key exactly when they differ by an element of
    ``state.reduction_group(error_type)``.  Raises ValueError when syndrome
    plus class bits exceed the 64-bit key word every packed table uses.
    """
    comp = "X" if error_type == "Z" else "Z"
    rows = _masks(state.checking_generators(error_type), comp)
    class_rows = [op.x | op.z for op in state.class_logicals(error_type)]
    if len(rows) + len(class_rows) > 64:
        raise ValueError(
            f"{len(rows)} syndrome + {len(class_rows)} class bits exceed the 64-bit key width"
        )
    rows += class_rows
    return [
        sum(((row >> q) & 1) << i for i, row in enumerate(rows)) for q in range(state.n)
    ]


def coset_keys(masks: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Coset keys of packed uint64 qubit masks, given per-qubit key columns."""
    out = np.zeros(masks.shape, dtype=np.uint64)
    for q, col in enumerate(cols):
        out ^= ((masks >> np.uint64(q)) & np.uint64(1)) * np.uint64(col)
    return out


def coset_enumeration(cols: Sequence[int], w_max: int) -> Iterator[tuple[int, int]]:
    """(weight, key) of every error of weight 0..w_max, lightest first.

    The empty error comes first; errors of one weight follow in
    ``itertools.combinations`` order of their qubits.  The first key hit at
    weight w therefore has coset-minimum weight w.
    """
    yield 0, 0
    for w in range(1, w_max + 1):
        for qubit_cols in combinations(cols, w):
            key = 0
            for col in qubit_cols:
                key ^= col
            yield w, key


def syndrome_and_class(
    error: PauliOperator, state: CssState, error_type: str
) -> tuple[int, int]:
    """Syndrome and equivalence-class bits of a pure-type error.

    Syndrome bit i is the anticommutation with the i-th opposite-type code
    generator; class bit j is the anticommutation with the j-th
    state-stabilizing logical representative.  Both are returned as packed
    integer masks.
    """
    err_mask = error.x | error.z
    checks = _masks(state.checking_generators(error_type), "X" if error_type == "Z" else "Z")
    synd = 0
    for i, c in enumerate(checks):
        if parity(err_mask & c):
            synd |= 1 << i
    cls = 0
    log_masks = [op.x | op.z for op in state.class_logicals(error_type)]
    for j, mask in enumerate(log_masks):
        if parity(err_mask & mask):
            cls |= 1 << j
    return synd, cls


def max_coset_weight(state: CssState, error_type: str) -> int:
    """Largest coset-minimum weight over all pure-type errors.

    The quotient is taken modulo the full same-type stabilizer group of the
    state (code generators plus state-stabilizing logicals), so cosets are
    indexed by the coset key.  Found by enumerating errors in order of
    increasing weight until every key has been reached.
    """
    group = state.reduction_group(error_type)
    key_bits = len(state.checking_generators(error_type)) + len(state.class_logicals(error_type))
    n_cosets_log = state.n - len(group)
    if n_cosets_log > COSET_CAP or key_bits > COSET_CAP:
        raise GroupTooLargeError(
            f"2^{n_cosets_log} cosets exceed the 2^{COSET_CAP} enumeration cap"
        )
    target = 1 << key_bits
    seen = np.zeros(target, dtype=bool)
    found = 0
    for w, key in coset_enumeration(coset_key_columns(state, error_type), state.n):
        if not seen[key]:
            seen[key] = True
            found += 1
            if found == target:
                return w
    return 0  # only reachable for trivial codes


def validate_css_state(state: CssState) -> ValidationReport:
    """Check the structural invariants of a CSS state.

    Verifies type purity, pairwise commutation, full rank of each generator
    block, and that generators plus state-stabilizing logicals form n
    independent operators.
    """
    issues: list[ValidationIssue] = []
    for label, ops, comp in (
        ("x_generator", state.x_generators, "z"),
        ("z_generator", state.z_generators, "x"),
    ):
        for i, op in enumerate(ops):
            bad = op.z if comp == "z" else op.x
            if bad:
                issues.append(ValidationIssue("type-purity", f"{label}[{i}] has {comp.upper()} support"))
            if op.n != state.n:
                issues.append(ValidationIssue("length", f"{label}[{i}] acts on {op.n} != {state.n} qubits"))
    # X/Z generator pairs must have even overlap.
    for i, gx in enumerate(state.x_generators):
        for j, gz in enumerate(state.z_generators):
            if parity(gx.x & gz.z):
                issues.append(
                    ValidationIssue("commutation", f"x_generator[{i}] anticommutes with z_generator[{j}]")
                )
    for kind, logicals, opposite in (
        ("logical_x", state.logical_x_reps, state.z_generators),
        ("logical_z", state.logical_z_reps, state.x_generators),
    ):
        for i, rep in enumerate(logicals):
            mask = rep.x | rep.z
            for j, gen in enumerate(opposite):
                if parity(mask & (gen.x | gen.z)):
                    issues.append(
                        ValidationIssue("commutation", f"{kind}[{i}] anticommutes with a code generator ({j})")
                    )
    if rank([op.x for op in state.x_generators]) != len(state.x_generators):
        issues.append(ValidationIssue("rank", "x_generators are linearly dependent"))
    if rank([op.z for op in state.z_generators]) != len(state.z_generators):
        issues.append(ValidationIssue("rank", "z_generators are linearly dependent"))
    # Full state group must have n independent generators.
    total = rank([op.x for op in state.x_type_state_generators()])
    total += rank([op.z for op in state.z_type_state_generators()])
    if total != state.n:
        issues.append(
            ValidationIssue("rank", f"state group has rank {total}, expected {state.n}")
        )
    expected_counts = len(state.x_generators) + len(state.z_generators) + state.k
    if expected_counts != state.n:
        issues.append(
            ValidationIssue(
                "counts",
                f"{len(state.x_generators)}+{len(state.z_generators)} generators with k={state.k} "
                f"do not account for n={state.n}",
            )
        )
    if len(state.logical_x_reps) != state.k or len(state.logical_z_reps) != state.k:
        issues.append(ValidationIssue("counts", "logical representative count differs from k"))
    return ValidationReport(tuple(issues))
