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
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .css import ENUMERATION_CAP, CssState, coset_key_columns, lightest_cover
from .noise import SampleSet, wilson_interval


class ClassConflictError(ValueError):
    """Two enumerated errors of weight within the code's guarantee share a
    syndrome but disagree on class."""


@dataclass(frozen=True)
class MLTable:
    """Trained maximum-likelihood layer (:func:`build_ml_lut`): syndrome
    -> decoded class, as two arrays sorted by syndrome."""

    synd_bits: int
    class_bits: int
    synd: np.ndarray  # uint64, sorted and unique
    cls: np.ndarray  # uint64

    def __len__(self) -> int:
        return len(self.synd)


def build_ml_lut(training: SampleSet) -> MLTable:
    """Most likely class per trained syndrome: the class of maximal weight,
    ties broken toward the smallest class bit pattern."""
    synd, cls = training.synd, training.cls
    order = np.lexsort((cls, -training.weight, synd))
    synd, cls = synd[order], cls[order]
    first = np.ones(len(synd), dtype=bool)
    first[1:] = synd[1:] != synd[:-1]
    return MLTable(training.synd_bits, training.class_bits, synd[first], cls[first])


@dataclass(frozen=True)
class MWTable:
    """Syndrome -> (class, minimum weight) for ideal-state errors of weight
    <= w_max (:func:`build_mw_lut`, or every weight for
    :func:`build_ideal_class_table`), as three arrays sorted by syndrome."""

    synd_bits: int
    class_bits: int
    w_max: int
    synd: np.ndarray  # uint64, sorted and unique
    cls: np.ndarray  # uint64
    weight: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.synd)


def _first_hits(state: CssState, error_type: str, w_max: int) -> MWTable:
    """Class and weight of the first error of weight <= w_max to reach each
    syndrome: the :func:`css.lightest_cover` of the syndrome bits that keeps
    every error within the guarantee floor((d-1)/2), each of which must
    agree with the class of its syndrome's lightest, first-enumerated error."""
    synd_bits = len(state.checking_generators(error_type))
    guarantee = (state.d - 1) // 2
    rows = lightest_cover(coset_key_columns(state, error_type), synd_bits, guarantee, w_max)
    weight, key = np.array(rows, dtype=np.uint64).T
    synd, cls = key & np.uint64((1 << synd_bits) - 1), key >> np.uint64(synd_bits)
    synd_u, first, inverse = np.unique(synd, return_index=True, return_inverse=True)
    kept = first[inverse]  # row of the class kept for each error's syndrome
    clash = np.flatnonzero((weight <= guarantee) & (cls != cls[kept]))
    if len(clash):
        new, old = clash[0], kept[clash[0]]
        raise ClassConflictError(
            f"weight-{weight[old]} and weight-{weight[new]} errors share syndrome "
            f"{int(synd[new]):#x} with classes {cls[old]} != {cls[new]}"
        )
    return MWTable(
        synd_bits, len(state.class_logicals(error_type)), w_max,
        synd_u, cls[first], weight[first].astype(np.int64),
    )


def build_mw_lut(state: CssState, error_type: str, w_max: int) -> MWTable:
    """Lightest class of every syndrome reached by a pure-type error of
    weight 1..w_max on the ideal state.

    Beyond the code's guarantee floor((d-1)/2) a syndrome's lightest class
    can be ambiguous; the first-enumerated one is kept, with one warning per
    call.  Raises ValueError for a negative ``w_max``, and, past the
    guarantee, GroupTooLargeError for over ``ENUMERATION_CAP`` syndromes.
    """
    if w_max < 0:
        raise ValueError(f"w_max must be >= 0, got {w_max}")
    total = sum(comb(state.n, w) for w in range(1, w_max + 1))
    if total > ENUMERATION_CAP:
        raise ValueError(f"{total} errors exceed the enumeration cap {ENUMERATION_CAP}")
    if w_max > (state.d - 1) // 2:
        warnings.warn(f"w_max={w_max} exceeds the distance guarantee of {state.name}", stacklevel=2)
    table = _first_hits(state, error_type, w_max)
    # The empty error claims syndrome 0, which sorts first.
    return replace(table, synd=table.synd[1:], cls=table.cls[1:], weight=table.weight[1:])


def build_ideal_class_table(state: CssState, error_type: str) -> MWTable:
    """Minimum-weight class and weight for every syndrome, syndrome 0 (the
    empty error) included.

    The enumeration order is fixed, so the entries of weight <= w are
    :func:`build_mw_lut` at w_max = w plus the syndrome-0 row.  Beyond the
    distance guarantee a syndrome's minimum-weight class can be ambiguous;
    the first-enumerated representative is kept, as any fixed ideal decoder
    would.  Every syndrome takes at least one enumerated error, so more
    than ``ENUMERATION_CAP`` syndromes raise GroupTooLargeError first.
    """
    return _first_hits(state, error_type, state.n)


# Layer codes returned by :func:`decode`.
ML, MW, FALLBACK, DISCARD = range(4)


def _lookup(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each query in the sorted ``keys``, and whether it is there."""
    if not len(keys):
        return np.zeros(query.shape, dtype=np.intp), np.zeros(query.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return pos, keys[pos] == query


def decode(
    synd: np.ndarray,
    ml: MLTable | None,
    mw: MWTable | None,
    discard_weight: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decoded class and layer code of every syndrome in an array.

    The ML table decides where it was trained, the MW table covers the
    rest, and the trivial class is the fallback.  A syndrome whose MW
    weight equals ``discard_weight`` (t = d/2 for the even-distance policy)
    is a DISCARD, whatever the ML table says; its class reads 0.
    """
    synd = np.asarray(synd, dtype=np.uint64)
    cls = np.zeros(synd.shape, dtype=np.uint64)
    layer = np.full(synd.shape, FALLBACK, dtype=np.uint8)
    boundary = np.zeros(synd.shape, dtype=bool)
    if mw is not None:
        pos, hit = _lookup(mw.synd, synd)
        cls[hit] = mw.cls[pos[hit]]
        layer[hit] = MW
        if discard_weight is not None:
            boundary[hit] = mw.weight[pos[hit]] == discard_weight
    if ml is not None:
        pos, hit = _lookup(ml.synd, synd)
        cls[hit] = ml.cls[pos[hit]]
        layer[hit] = ML
    cls[boundary] = 0
    layer[boundary] = DISCARD
    return cls, layer


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
    discard_weight: int | None = None,
) -> EvaluationReport:
    """Decode every test sample and tally per-layer statistics.

    Raises ValueError when a table's syndrome or class width differs from
    the test set's.
    """
    width = (test.synd_bits, test.class_bits)
    for name, table in (("ML", ml), ("MW", mw)):
        if table is not None and (table.synd_bits, table.class_bits) != width:
            raise ValueError(
                f"{name} table has {table.synd_bits} syndrome + {table.class_bits} class bits, "
                f"the test set {width[0]} + {width[1]}"
            )
    cls, layer = decode(test.synd, ml, mw, discard_weight)
    wrong = cls != test.cls
    kept_mask = layer != DISCARD

    def mass(mask: np.ndarray, of: np.ndarray = test.count) -> float:
        return float(of[mask].sum())

    total = float(test.count.sum())
    discarded = mass(~kept_mask)
    kept = total - discarded
    errors = mass(kept_mask & wrong)
    w_total = mass(kept_mask, test.weight)
    w_err = mass(kept_mask & wrong, test.weight)
    rate = errors / kept if kept else 0.0
    ci = wilson_interval(errors, kept)
    return EvaluationReport(
        total=total,
        discarded=discarded,
        kept=kept,
        errors=errors,
        logical_error_rate=rate,
        logical_error_ci=ci,
        post_discard_rate=discarded / total if total else 0.0,
        ml_hits=mass(layer == ML),
        ml_errors=mass((layer == ML) & wrong),
        mw_hits=mass(layer == MW),
        mw_errors=mass((layer == MW) & wrong),
        fallback=mass(layer == FALLBACK),
        fallback_errors=mass((layer == FALLBACK) & wrong),
        weighted_logical_error_rate=(w_err / w_total) if w_total else 0.0,
    )
