"""CSS states: generator masks, validation, syndromes and coset weights.

A *CSS state* here is the logical ``|0..0>`` of a CSS code: it is generated
by the code's pure X-type and pure Z-type stabilizers plus its Z logicals.
Every stabilizer and logical is one qubit mask (bit i is qubit i), the X
support of an X-type operator or the Z support of a Z-type one.  The
logical ``|+..+>`` is the ``|0..0>`` of the X<->Z swapped code
(:func:`swap_xz`).  :func:`validate_css_state` returns None for a valid
state and otherwise raises one ValueError naming every broken invariant.
:func:`max_coset_weight` and the decoder's tables read one lightest-first
cover of the cosets or syndromes, :func:`lightest_cover`, capped up front.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import combinations, islice
from math import comb

from .gf2 import rank


class GroupTooLargeError(ValueError):
    """Enumerating the requested stabilizer subgroup would exceed the cap."""


ENUMERATION_CAP = 10_000_000  # values a cover may reach; errors build_mw_lut may enumerate


@dataclass(frozen=True)
class CssState:
    """The logical ``|0..0>`` state of a CSS code, as qubit masks.

    ``state_label`` names the logical state of the original code the masks
    prepare: "|+>" after :func:`swap_xz`.
    """

    name: str
    n: int
    k: int
    d: int
    x_stabilizers: tuple[int, ...]
    z_stabilizers: tuple[int, ...]
    logical_x: tuple[int, ...]
    logical_z: tuple[int, ...]
    state_label: str = "|0>"

    @property
    def t(self) -> int:
        return self.d // 2

    def reduction_group(self, error_type: str) -> tuple[int, ...]:
        """Same-type stabilizers of the state used for weight reduction:
        the X stabilizers, or the Z stabilizers plus the Z logicals."""
        if error_type == "X":
            return self.x_stabilizers
        if error_type == "Z":
            return self.z_stabilizers + self.logical_z
        raise ValueError(f"error_type must be 'X' or 'Z', got {error_type!r}")

    def checking_generators(self, error_type: str) -> tuple[int, ...]:
        """Opposite-type stabilizers whose anticommutation gives the
        syndrome of an error of ``error_type``."""
        if error_type == "X":
            return self.z_stabilizers
        if error_type == "Z":
            return self.x_stabilizers
        raise ValueError(f"error_type must be 'X' or 'Z', got {error_type!r}")

    def class_logicals(self, error_type: str) -> tuple[int, ...]:
        """State-stabilizing logicals that grade errors of ``error_type``
        into equivalence classes: the Z logicals grade X errors, and nothing
        grades Z errors."""
        return self.logical_z if error_type == "X" else ()


def swap_xz(state: CssState) -> CssState:
    """The code's other basis state: X and Z roles swapped, so the
    ``|0..0>`` masks become those of ``|+..+>`` and back."""
    return replace(
        state,
        x_stabilizers=state.z_stabilizers,
        z_stabilizers=state.x_stabilizers,
        logical_x=state.logical_z,
        logical_z=state.logical_x,
        state_label="|+>" if state.state_label == "|0>" else "|0>",
    )


def coset_key_columns(state: CssState, error_type: str) -> list[int]:
    """Coset key of a single-qubit pure-type error on each qubit.

    Syndrome bits (one per checking stabilizer) sit low and class bits (one
    per class logical) above them.  Keys are linear, and two pure-type
    errors share a key exactly when they differ by an element of
    ``state.reduction_group(error_type)``.  Raises ValueError when syndrome
    plus class bits exceed the 64-bit key word every packed table uses.
    """
    synd_rows = state.checking_generators(error_type)
    class_rows = state.class_logicals(error_type)
    if len(synd_rows) + len(class_rows) > 64:
        raise ValueError(
            f"{len(synd_rows)} syndrome + {len(class_rows)} class bits exceed the 64-bit key width"
        )
    rows = synd_rows + class_rows
    return [
        sum(((row >> q) & 1) << i for i, row in enumerate(rows)) for q in range(state.n)
    ]


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


def lightest_cover(cols: Sequence[int], bits: int, keep: int, w_max: int) -> list[tuple[int, int]]:
    """(weight, key) of every error of weight <= ``keep``, then of the first
    error of weight <= ``w_max`` to reach each value of the low ``bits`` key
    bits not reached yet, in :func:`coset_enumeration` order, until every
    value is reached.  Each value (a coset of the errors that share those
    key bits) reached past ``keep`` costs an enumerated error, so with
    ``w_max > keep`` more than ``ENUMERATION_CAP`` values raise
    GroupTooLargeError before any enumeration."""
    if w_max > keep and 1 << bits > ENUMERATION_CAP:
        raise GroupTooLargeError(f"2^{bits} cosets exceed the enumeration cap {ENUMERATION_CAP}")
    enum = coset_enumeration(cols, w_max)
    rows = list(islice(enum, sum(comb(len(cols), w) for w in range(keep + 1))))
    if w_max <= keep:
        return rows
    low = (1 << bits) - 1
    seen = bytearray(low + 1)
    for _, key in rows:
        seen[key & low] = 1
    left = seen.count(0)
    for w, key in enum if left else ():
        if not seen[value := key & low]:
            seen[value] = 1
            rows.append((w, key))
            left -= 1
            if not left:
                break
    return rows


def max_coset_weight(state: CssState, error_type: str) -> int:
    """Largest coset-minimum weight over all pure-type errors.

    The quotient is taken modulo the full same-type stabilizer group of the
    state (``state.reduction_group(error_type)``), so cosets are indexed
    by the coset key: the answer is the weight of the last error of the
    :func:`lightest_cover` over every key bit.  Raises GroupTooLargeError
    for more than ``ENUMERATION_CAP`` cosets.
    """
    key_bits = len(state.checking_generators(error_type)) + len(state.class_logicals(error_type))
    return lightest_cover(coset_key_columns(state, error_type), key_bits, 0, state.n)[-1][0]


def validate_css_state(state: CssState) -> None:
    """Raise ValueError unless ``state`` meets the structural invariants of
    a CSS state.

    The one error lists every broken invariant as ``kind: detail``:
    ``length`` for a mask acting beyond n qubits, ``commutation`` for an
    X/Z pair with odd overlap, ``rank`` for a dependent stabilizer block or
    stabilizers plus Z logicals not spanning n independent operators,
    ``counts`` for generator or logical counts that do not fit n and k, and
    ``distance`` for a distance below 1.
    """
    issues: list[str] = []
    for kind in ("x_stabilizers", "z_stabilizers", "logical_x", "logical_z"):
        for i, mask in enumerate(getattr(state, kind)):
            if mask >> state.n:
                issues.append(f"length: {kind}[{i}] acts beyond {state.n} qubits")
    # X/Z pairs must have even overlap.
    for kind, ops, opposite in (
        ("x_stabilizers", state.x_stabilizers, "z_stabilizers"),
        ("logical_x", state.logical_x, "z_stabilizers"),
        ("logical_z", state.logical_z, "x_stabilizers"),
    ):
        for i, a in enumerate(ops):
            for j, b in enumerate(getattr(state, opposite)):
                if (a & b).bit_count() & 1:
                    issues.append(f"commutation: {kind}[{i}] anticommutes with {opposite}[{j}]")
    for kind in ("x_stabilizers", "z_stabilizers"):
        if rank(list(getattr(state, kind))) != len(getattr(state, kind)):
            issues.append(f"rank: {kind} are linearly dependent")
    # Full state group must have n independent generators.
    total = rank(state.reduction_group("X")) + rank(state.reduction_group("Z"))
    if total != state.n:
        issues.append(f"rank: state group has rank {total}, expected {state.n}")
    if len(state.x_stabilizers) + len(state.z_stabilizers) + state.k != state.n:
        issues.append(
            f"counts: {len(state.x_stabilizers)}+{len(state.z_stabilizers)} stabilizers "
            f"with k={state.k} do not account for n={state.n}"
        )
    if len(state.logical_x) != state.k or len(state.logical_z) != state.k:
        issues.append("counts: logical representative count differs from k")
    if state.d < 1:
        issues.append(f"distance: d={state.d} is below 1")
    if issues:
        raise ValueError(f"invalid CSS state {state.name}: {'; '.join(issues)}")
