"""Two-layer look-up-table decoding with the even-distance discard policy.

The first layer is a circuit-level maximum-likelihood table trained on
simulated (syndrome, class) samples; unseen syndromes fall through to a
code-capacity minimum-weight table enumerated from the ideal state; should
both miss, the trivial class is assumed and any sample whose true class is
nontrivial counts as a logical error.  For even-distance codes a syndrome
whose lightest explanation has weight exactly t = d/2 is detectable but not
correctable: the run is discarded before any correction is attempted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .css import CssState, coset_enumeration, coset_key_columns
from .noise import SampleSet, wilson_interval


class ClassConflictError(ValueError):
    """Two enumerated errors of weight within the code's guarantee share a
    syndrome but disagree on class."""


@dataclass
class MLTable:
    """Syndrome -> per-class sample mass from a training set."""

    synd_bits: int
    class_bits: int
    counts: dict[int, dict[int, float]] = field(default_factory=dict)
    weights: dict[int, dict[int, float]] = field(default_factory=dict)

    def best_class(self, synd: int) -> int | None:
        per_class = self.weights.get(synd)
        if not per_class:
            return None
        # Maximal mass; ties break toward the smallest class bit pattern.
        best = max(per_class.items(), key=lambda kv: (kv[1], -kv[0]))
        return best[0]

    def __contains__(self, synd: int) -> bool:
        return synd in self.weights

    def __len__(self) -> int:
        return len(self.weights)


def build_ml_lut(training: SampleSet) -> MLTable:
    """Accumulate per-syndrome class histograms from accepted samples."""
    table = MLTable(training.synd_bits, training.class_bits)
    for (synd, cls), count in training.counts.items():
        table.counts.setdefault(synd, {})
        table.counts[synd][cls] = table.counts[synd].get(cls, 0.0) + count
    for (synd, cls), weight in training.weights.items():
        table.weights.setdefault(synd, {})
        table.weights[synd][cls] = table.weights[synd].get(cls, 0.0) + weight
    return table


@dataclass
class MWTable:
    """Syndrome -> (class, minimum weight) for low-weight ideal-state errors."""

    synd_bits: int
    class_bits: int
    w_max: int
    entries: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __contains__(self, synd: int) -> bool:
        return synd in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def build_mw_lut(
    state: CssState, error_type: str, w_max: int, enumeration_cap: int = 10_000_000
) -> MWTable:
    """Enumerate all pure-type errors of weight 1..w_max on the ideal state.

    Colliding syndromes must agree on class up to the code's guarantee
    floor((d-1)/2); beyond it the lighter entry wins with a warning.
    """
    from math import comb

    total = sum(comb(state.n, w) for w in range(1, w_max + 1))
    if total > enumeration_cap:
        raise ValueError(f"{total} errors exceed the enumeration cap {enumeration_cap}")
    table = MWTable(
        synd_bits=len(state.checking_generators(error_type)),
        class_bits=len(state.class_logicals(error_type)),
        w_max=w_max,
    )
    guarantee = (state.d - 1) // 2
    synd_mask = (1 << table.synd_bits) - 1
    for w, key in coset_enumeration(coset_key_columns(state, error_type), w_max):
        if w == 0:
            continue
        synd, cls = key & synd_mask, key >> table.synd_bits
        if synd in table.entries:
            old_cls, old_w = table.entries[synd]
            if old_cls != cls:
                if w <= guarantee and old_w <= guarantee:
                    raise ClassConflictError(
                        f"weight-{old_w} and weight-{w} errors share syndrome {synd:#x} "
                        f"with classes {old_cls} != {cls}"
                    )
                warnings.warn(
                    f"class conflict at syndrome {synd:#x} beyond the distance "
                    f"guarantee; keeping the weight-{old_w} entry",
                    stacklevel=2,
                )
        else:
            table.entries[synd] = (cls, w)
    return table


def build_ideal_class_table(state: CssState, error_type: str) -> dict[int, int]:
    """Minimum-weight class for every syndrome.

    Enumerates pure-type errors by increasing weight until all syndromes
    are reached, keeping the first (lightest) class per syndrome.  Beyond
    the distance guarantee a syndrome's minimum-weight class can be
    ambiguous; the first-enumerated representative is kept, as any fixed
    ideal decoder would.
    """
    synd_bits = len(state.checking_generators(error_type))
    target = 1 << synd_bits
    table: dict[int, int] = {}
    for _, key in coset_enumeration(coset_key_columns(state, error_type), state.n):
        synd = key & (target - 1)
        if synd not in table:
            table[synd] = key >> synd_bits
            if len(table) == target:
                return table
    return table


DISCARD = "discard"


@dataclass(frozen=True)
class DecodePolicy:
    even_distance_discard: bool = False
    t: int = 0


def decode(
    synd: int,
    ml: MLTable | None,
    mw: MWTable | None,
    policy: DecodePolicy = DecodePolicy(),
) -> int | str:
    """Decoded class for a syndrome, or DISCARD under the discard policy."""
    if policy.even_distance_discard and mw is not None:
        entry = mw.entries.get(synd)
        if entry is not None and entry[1] == policy.t:
            return DISCARD
    if ml is not None and synd in ml:
        best = ml.best_class(synd)
        assert best is not None
        return best
    if mw is not None and synd in mw:
        return mw.entries[synd][0]
    return 0  # fall back to the trivial class


@dataclass
class EvaluationReport:
    total: float
    discarded: float
    kept: float
    errors: float
    logical_error_rate: float
    logical_error_ci: tuple[float, float]
    post_discard_rate: float
    ml_hits: float
    ml_errors: float
    mw_hits: float
    mw_errors: float
    fallback: float
    fallback_errors: float
    weighted_logical_error_rate: float

    def __str__(self) -> str:
        lo, hi = self.logical_error_ci
        return (
            f"logical error rate {self.logical_error_rate:.3g} "
            f"[{lo:.3g}, {hi:.3g}] over {self.kept:.0f} kept samples "
            f"(discarded {self.discarded:.0f}; ML {self.ml_hits:.0f}/{self.ml_errors:.0f} err, "
            f"MW {self.mw_hits:.0f}/{self.mw_errors:.0f} err, "
            f"fallback {self.fallback:.0f}/{self.fallback_errors:.0f} err)"
        )


def evaluate_test_set(
    test: SampleSet,
    ml: MLTable | None,
    mw: MWTable | None,
    policy: DecodePolicy = DecodePolicy(),
) -> EvaluationReport:
    """Decode every test sample and tally per-layer statistics."""
    total = discarded = errors = 0.0
    ml_hits = ml_errors = mw_hits = mw_errors = fallback = fallback_errors = 0.0
    w_total = w_err = 0.0
    for (synd, cls), count in test.counts.items():
        weight = test.weights.get((synd, cls), 0.0)
        total += count
        verdict = decode(synd, ml, mw, policy)
        if verdict == DISCARD:
            discarded += count
            continue
        wrong = verdict != cls
        w_total += weight
        if ml is not None and synd in ml and not (
            policy.even_distance_discard and mw is not None and synd in mw and mw.entries[synd][1] == policy.t
        ):
            ml_hits += count
            if wrong:
                ml_errors += count
        elif mw is not None and synd in mw:
            mw_hits += count
            if wrong:
                mw_errors += count
        else:
            fallback += count
            if wrong:
                fallback_errors += count
        if wrong:
            errors += count
            w_err += weight
    kept = total - discarded
    rate = errors / kept if kept else 0.0
    ci = wilson_interval(errors, kept) if kept else (0.0, 1.0)
    return EvaluationReport(
        total=total,
        discarded=discarded,
        kept=kept,
        errors=errors,
        logical_error_rate=rate,
        logical_error_ci=ci,
        post_discard_rate=discarded / total if total else 0.0,
        ml_hits=ml_hits,
        ml_errors=ml_errors,
        mw_hits=mw_hits,
        mw_errors=mw_errors,
        fallback=fallback,
        fallback_errors=fallback_errors,
        weighted_logical_error_rate=(w_err / w_total) if w_total else 0.0,
    )
