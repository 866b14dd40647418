"""Steane-QEC experiment: correcting a noisy block with a prepared ancilla.

A computational block starts noiselessly in the logical plus state and
suffers a single-qubit depolarizing round at rate ``data_noise_multiplier``
times p (10p by default).  A logical-zero resource block is prepared by the
flag-at-origin circuit under the rate-p model (rejected preparations
restart), a noisy transversal CX couples resource (control) to
computational block (target), and the resource is measured destructively in
the X basis.  The rate-p measurement channel is the literal bit flip (an X
before the measurement), which is inert for this X-basis readout.  The
X-generator parities of the readout give the joint Z-error syndrome;
decoding it yields the Z correction applied to the computational block.
After a second round at the same rate, the block's residual Z frame is
judged by an ideal minimum-weight decoder: a logical error is a residual
that still anticommutes with a logical X after that final correction.

Z errors on the resource never reach the computational block; they only
corrupt the syndrome, which is why the resource's Z-side fault tolerance
(Appendix-style ablation: ``ft_x_only``) shows up directly in the scaling
of the logical error rate.

Samples are drawn in chunks of ``noise.SAMPLE_CHUNK`` rows, in two phases:
the first half of the samples trains the ML layer chunk by chunk into one
dense histogram, then the second half is drawn afresh and decoded chunk by
chunk, so memory does not grow with the sample count and no array is split
or shuffled.  Each chunk draws exactly the accepted preparations it keeps
(:class:`_PrepSampler`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import noise
from .circuit import Circuit
from .css import CssState, coset_key_columns, swap_xz
from .decoder import build_ideal_class_table
from .noise import (
    DegeneratePlanError,
    EffectTables,
    NoiseModel,
    _accepted_chunks,
    build_effect_tables,
    build_subset_plan,
    wilson_interval,
)

FULL_FT = "full_ft"
FT_X_ONLY = "ft_x_only"
NO_QEC = "no_qec"


@dataclass(frozen=True)
class SteaneQecConfig:
    state: CssState
    p: float
    samples: int
    prep_mode: str = FULL_FT  # full_ft | ft_x_only | no_qec
    data_noise_multiplier: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.prep_mode not in (FULL_FT, FT_X_ONLY, NO_QEC):
            raise ValueError(
                f"unknown prep_mode {self.prep_mode!r}; expected {FULL_FT}, {FT_X_ONLY} or {NO_QEC}"
            )
        if not 0 < self.p < 1:
            raise ValueError(f"require 0 < p < 1, got p={self.p:g}")
        if not 0 <= self.data_noise_multiplier * self.p <= 1:
            raise ValueError(
                "require 0 <= data_noise_multiplier * p <= 1, got data_noise_multiplier "
                f"{self.data_noise_multiplier:g} * p {self.p:g}"
            )
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass
class SteaneQecResult:
    config: SteaneQecConfig
    logical_errors: int
    samples: int
    logical_error_rate: float
    logical_error_ci: tuple[float, float]
    prep_acceptance: float

    def __str__(self) -> str:
        lo, hi = self.logical_error_ci
        return (
            f"{self.config.prep_mode} p={self.config.p:g}: logical {self.logical_error_rate:.3g} "
            f"[{lo:.3g}, {hi:.3g}] (prep acceptance {self.prep_acceptance:.3f})"
        )


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class _CodeTables:
    """What the experiment needs of a code, whatever the circuit, p or mode.

    Keys are coset keys of Z errors on the computational block's
    ``|+..+>``: X-stabilizer syndrome low, logical-X class above.  The
    class arrays are dense decoders, indexed by syndrome.
    """

    key_cols: np.ndarray  # uint64 key of a Z on each qubit
    mw: np.ndarray  # uint64 code-capacity class under the trained layer, 0 where unreached
    ideal: np.ndarray  # uint64 minimum-weight class


@lru_cache(maxsize=8)
def _code_tables(state: CssState) -> _CodeTables:
    """Built once per state, so a sweep over p and modes pays it once.
    Every array is read-only."""
    # Z errors on the computational block are graded by the logical Xs that
    # stabilize its |+..+> state: in the X<->Z swapped code they are X
    # errors of a |0..0> state.
    plus = swap_xz(state)
    key_cols = np.array(coset_key_columns(plus, "X"), dtype=np.uint64)
    # The MW layer is the ideal entries within the distance guarantee; both
    # scatter by syndrome, as dependent checks can leave some unreached.
    table = build_ideal_class_table(plus, "X")
    ideal, mw = np.zeros((2, 1 << table.synd_bits), dtype=np.uint64)
    ideal[table.synd] = table.cls
    mw[table.synd] = np.where(table.weight <= (state.d - 1) // 2, table.cls, np.uint64(0))
    _read_only(key_cols, ideal, mw)
    return _CodeTables(key_cols, mw, ideal)


@lru_cache(maxsize=8)
def _prep_tables(circuit: Circuit, state: CssState) -> EffectTables:
    """Z-side effect tables of a resource circuit, built once per
    (circuit, state); every array is read-only."""
    tables = build_effect_tables(circuit, state, error_side="Z")
    _read_only(tables.flags, tables.sc)
    return tables


def _trained_classes(hist: np.ndarray, mw: np.ndarray) -> np.ndarray:
    """Dense two-layer decoder trained on ``hist``, the counts of the packed
    ``synd | cls << synd_bits`` keys: a trained syndrome takes its most
    frequent class, ties broken toward the smallest class (as
    ``decoder.build_ml_lut``), every other syndrome its class in the dense
    ``mw``."""
    hist = hist.reshape(-1, len(mw))
    return np.where(hist.any(axis=0), hist.argmax(axis=0).astype(np.uint64), mw)


def _decoded(table: np.ndarray, synd: np.ndarray) -> np.ndarray:
    """``table`` at every syndrome of ``synd``: the classes of a dense
    decoder.  Syndromes sit below 2^synd_bits < 2^63, so reading them as
    int64 is exact and spares numpy's cast of a uint64 index."""
    return table[synd.view(np.int64)]


def _fault_cells(
    rng: np.random.Generator, n_rows: int, n: int, rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the n_rows x n cells an i.i.d. fault of ``rate`` hits:
    a binomial count of distinct, uniformly drawn cells."""
    cells = n_rows * n
    hits = rng.choice(cells, rng.binomial(cells, rate), replace=False, shuffle=False)
    return np.divmod(hits, n)


def _chunk_rows(total: int) -> Iterator[int]:
    """Row counts of ``total`` rows cut into chunks of ``noise.SAMPLE_CHUNK``
    (read at call time)."""
    chunk = noise.SAMPLE_CHUNK
    return (min(chunk, total - done) for done in range(0, total, chunk))


@dataclass
class _PrepSampler:
    """Accepted-preparation Z-side syndromes, drawn to an exact count.

    Rejected preparations are redrawn (the experiment restarts them).  Each
    round sizes its attempts from the acceptance measured so far, times a
    2 % margin, and splits them between the fault-free outcome (zero
    syndrome) and the plan's strata by one multinomial draw.  The last
    round's overshoot is dropped as a uniform subset of the round: its
    accepted rows come grouped by stratum, so keeping its first ones would
    bias the strata.  ``accepted`` and ``attempts`` count every round,
    dropped rows included.
    """

    tables: EffectTables
    pairs: tuple[tuple[int, int], ...]  # the plan's strata (f_p, f_q)
    split: np.ndarray  # probabilities of the fault-free outcome, then of each stratum
    rng: np.random.Generator
    accepted: int = 0
    attempts: int = 0

    def draw(self, n_needed: int) -> np.ndarray:
        kept: list[np.ndarray] = []
        while n_needed:
            # (accepted + 1) / (attempts + 1): 1 before any round, never 0
            m = math.ceil(n_needed * 1.02 * (self.attempts + 1) / (self.accepted + 1))
            counts = self.rng.multinomial(m, self.split)
            got = np.concatenate([
                np.zeros(counts[0], dtype=np.uint64),
                *(sc for _, sc in _accepted_chunks(self.tables, self.pairs, counts[1:], self.rng)),
            ])
            self.attempts += m
            self.accepted += len(got)
            if len(got) > n_needed:
                drop = self.rng.choice(len(got), len(got) - n_needed, replace=False, shuffle=False)
                got = np.delete(got, drop)
            kept.append(got)
            n_needed -= len(got)
        return np.concatenate(kept)


def _prep_sampler(
    circuit: Circuit, state: CssState, p: float, samples: int, rng: np.random.Generator
) -> _PrepSampler:
    """The resource circuit's sampler under the rate-p model, its strata
    planned for ``samples`` (at least 10,000)."""
    tables = _prep_tables(circuit, state)
    try:
        plan = build_subset_plan(tables.l_p, tables.l_q, p, NoiseModel(p).q, max(samples, 10000))
    except DegeneratePlanError:
        # No stratum above the cutoff: at the plan's resolution every
        # preparation is fault-free, accepted with a zero syndrome.
        return _PrepSampler(tables, (), np.ones(1), rng)
    split = np.array([plan.p_trivial, *(1.0 - plan.p_trivial) * np.array(plan.probabilities)])
    return _PrepSampler(tables, plan.pairs, split, rng)


def run_steane_qec_experiment(cfg: SteaneQecConfig, circuit: Circuit | None = None) -> SteaneQecResult:
    """Monte Carlo estimate of the experiment's logical error rate.

    ``circuit`` is the resource-preparation circuit (required unless the
    mode is ``no_qec``); it should be assembled with Z gadgets stripped for
    the ``ft_x_only`` ablation.  Raises ValueError when the code's
    X-generator syndrome plus class bits exceed the 64-bit key width.

    Z errors are tracked as coset keys, not qubit frames: keys are linear,
    so every fault XORs its qubit's key column into its sample's key.
    Training and evaluation run in chunks (see the module docstring).
    """
    state = cfg.state
    code = _code_tables(state)
    key_cols, ideal = code.key_cols, code.ideal
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n = state.n
    p = cfg.p
    q = NoiseModel(p).q
    n_samples = cfg.samples
    strong = cfg.data_noise_multiplier * p
    synd_bits = np.uint64(len(state.x_stabilizers))
    synd_mask = (np.uint64(1) << synd_bits) - np.uint64(1)

    def depolarizing_z(n_rows: int, rate: float) -> np.ndarray:
        # Z component of single-qubit depolarizing: Z or Y, 2/3 of faults.
        keys = np.zeros(n_rows, dtype=np.uint64)
        rows, cols = _fault_cells(rng, n_rows, n, rate * 2.0 / 3.0)
        np.bitwise_xor.at(keys, rows, key_cols[cols])
        return keys

    if cfg.prep_mode == NO_QEC:
        errors = 0
        for n_rows in _chunk_rows(n_samples):
            keys = depolarizing_z(n_rows, strong) ^ depolarizing_z(n_rows, strong)
            errors += int((_decoded(ideal, keys & synd_mask) != keys >> synd_bits).sum())
        rate = errors / n_samples
        return SteaneQecResult(cfg, errors, n_samples, rate, wilson_interval(errors, n_samples), 1.0)

    if circuit is None:
        raise ValueError("preparation circuit required for QEC modes")
    prep = _prep_sampler(circuit, state, p, n_samples, rng)

    def gadget(n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One chunk's resource readout syndrome, with the computational
        block's key after round 1 and before round 2."""
        prep_synd = prep.draw(n_rows)
        # Computational block round 1, copied into the syndrome via the
        # transversal CX.
        r1 = depolarizing_z(n_rows, strong)
        synd = prep_synd ^ (r1 & synd_mask)
        keys = r1.copy()

        # Transversal CX noise: two-qubit depolarizing per pair, resource as
        # control, one of the 15 Paulis with bits (X_a, Z_a, X_b, Z_b); a Z
        # on the resource side corrupts the syndrome, a Z on the
        # computational side joins the residual.
        rows, cols = _fault_cells(rng, n_rows, n, p)
        pat = rng.integers(1, 16, size=len(rows), dtype=np.uint64)
        np.bitwise_xor.at(synd, rows, ((pat >> 1) & 1) * key_cols[cols])
        np.bitwise_xor.at(keys, rows, (pat >> 3) * key_cols[cols])

        # Idle accounting during the gadget: one memory location per qubit
        # of both blocks for the transversal step, one per computational
        # qubit while the resource is measured.
        synd ^= depolarizing_z(n_rows, q)  # resource idles
        synd &= synd_mask  # the resource readout holds syndrome bits only
        keys ^= depolarizing_z(n_rows, q) ^ depolarizing_z(n_rows, q)

        # Destructive X-basis readout of the resource: the literal bit-flip
        # measurement channel (an X before the measurement) commutes with
        # the X-basis readout, so it contributes no outcome flips, matching
        # the treatment of X-basis flag measurements in the preparation
        # circuit.
        return synd, r1, keys

    # Train the ML layer on the first half of the samples.  The target
    # class makes the corrected block benign for later ideal decoding: the
    # block's own class plus the ideal class of the syndrome junk
    # contributed by the resource, gate and readout noise.
    n_train = n_samples // 2
    hist = np.zeros(1 << (int(synd_bits) + state.k), dtype=np.int64)
    for n_rows in _chunk_rows(n_train):
        synd, r1, _ = gadget(n_rows)
        labels = (r1 >> synd_bits) ^ _decoded(ideal, synd ^ (r1 & synd_mask))
        hist += np.bincount((synd | labels << synd_bits).view(np.int64), minlength=len(hist))
    corr = _trained_classes(hist, code.mw)

    # Evaluate on the second half, drawn afresh.
    kept = n_samples - n_train
    errors = 0
    for n_rows in _chunk_rows(kept):
        synd, _, keys = gadget(n_rows)
        keys ^= depolarizing_z(n_rows, strong)  # round 2
        synd_r = (keys & synd_mask) ^ synd
        cls_r = (keys >> synd_bits) ^ _decoded(corr, synd)
        # Ideal minimum-weight correction of the residual's syndrome.
        errors += int((_decoded(ideal, synd_r) != cls_r).sum())
    rate = errors / kept
    prep_acc = prep.accepted / prep.attempts
    return SteaneQecResult(cfg, errors, kept, rate, wilson_interval(errors, kept), prep_acc)
