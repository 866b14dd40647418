"""Circuit-level Pauli-frame Monte Carlo with subset sampling.

Noise model: one rate ``p`` drives a single-qubit depolarizing channel after
every initialization, a two-qubit depolarizing channel after every CX, and
the literal bit-flip channel (an X before the measurement) on every flag
measurement: it flips Z-basis outcomes and is inert for X-basis flags.  Memory
noise adds a depolarizing channel of rate ``p/100`` on every active qubit
for every CX time step.  The final transversal measurement is noiseless.

Frame propagation is linear, so every fault location's end-of-circuit
effect (flag flips, syndrome, class) is read once off the transfer-map
columns of :func:`circuit.propagate_backward`; a Monte Carlo sample is then
just an XOR of a few table entries.  The tables hold effects only; the
tableau replay decodes each variant's Pauli from its location.
Subset sampling draws the number of faults per sample from the nontrivial
part of the binomial distribution and adds the fault-free mass back
analytically.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, KeysView, Mapping
from dataclasses import dataclass
from operator import itemgetter
from statistics import NormalDist
from types import MappingProxyType

import numpy as np

from .circuit import (
    Circuit,
    CXGate,
    Init,
    flag_int,
    pack_effects,
    propagate_backward,
)
from .css import CssState, syndrome_and_class


REPLAY_MAX_FAULTS = 4  # most faults per frame_replay_check sample
SAMPLE_CHUNK = 1 << 18  # most samples drawn by one _sample_bucket call
# Pauli bits (bit 0 X, bit 1 Z) of the variants of a single-qubit location,
# in table order: X, Y, Z.
SINGLE_QUBIT_BITS = (1, 3, 2)
_pick_single = itemgetter(*SINGLE_QUBIT_BITS)


class DegeneratePlanError(ValueError):
    """No nontrivial fault-count pair survives the subset-sampling cutoff."""


@dataclass(frozen=True)
class NoiseModel:
    p: float

    def __post_init__(self) -> None:
        if not 0 < self.p < 1:
            raise ValueError("require 0 < p < 1")

    @property
    def q(self) -> float:
        """Idle-location rate."""
        return self.p / 100


def _idle_steps(circuit: Circuit) -> Iterator[tuple[int, KeysView[int]]]:
    """``(CX position, live qubits)`` per CX time step, the qubits in
    initialization order, participants included: a qubit is live from its
    initialization until its measurement.  Read the view before the next step.
    """
    live: dict[int, None] = {}  # insertion-ordered set
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, Init):
            live[op.qubit] = None
        elif isinstance(op, CXGate):
            yield pos, live.keys()
        else:
            live.pop(op.qubit, None)


def _idle_locations(circuit: Circuit) -> list[tuple[int, int]]:
    """``(CX position, qubit)`` of every idle location, in table order: one
    location per live qubit per CX time step (:func:`_idle_steps`)."""
    return [(pos, q) for pos, live in _idle_steps(circuit) for q in live]


def count_fault_locations(circuit: Circuit) -> tuple[int, int]:
    """(L_p, L_q): full-rate locations and idle locations.

    Every op (initialization, CX gate, flag measurement) is one full-rate
    location; the idle locations are those of :func:`_idle_locations`.
    """
    return len(circuit.ops), sum(len(live) for _, live in _idle_steps(circuit))


@dataclass(frozen=True)
class SubsetPlan:
    l_p: int
    l_q: int
    p: float
    q: float
    samples: int
    pairs: tuple[tuple[int, int], ...]  # retained (f_p, f_q)
    probabilities: tuple[float, ...]  # renormalized over retained pairs
    p_trivial: float  # P(0, 0)

    @property
    def trivial_addback(self) -> float:
        return self.samples * self.p_trivial / (1.0 - self.p_trivial)

    @property
    def effective_samples(self) -> float:
        return self.samples / (1.0 - self.p_trivial)


def _binom_pmf(n: int, p: float) -> np.ndarray:
    # log-space for numerical stability at large n; lgamma(n - k + 1) is
    # lgamma(k' + 1) at k' = n - k, so one lgamma per k serves both terms
    ks = np.arange(n + 1)
    lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_comb = math.lgamma(n + 1) - lg - lg[::-1]
    return np.exp(log_comb + ks * math.log(p) + (n - ks) * math.log1p(-p))


def build_subset_plan(l_p: int, l_q: int, p: float, q: float, samples: int) -> SubsetPlan:
    """Retain the (f_p, f_q) fault-count pairs worth sampling.

    P(f_p, f_q) is the product of the two binomials; pairs with
    P <= 1/samples^2 are dropped, the trivial pair is excluded and its mass
    added back analytically.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pmf_p = _binom_pmf(l_p, p) if l_p else np.array([1.0])
    pmf_q = _binom_pmf(l_q, q) if l_q else np.array([1.0])
    cutoff = 1.0 / samples**2
    pairs: list[tuple[int, int]] = []
    probs: list[float] = []
    for fp in range(len(pmf_p)):
        if pmf_p[fp] <= cutoff:
            if fp > np.argmax(pmf_p):
                break
            continue
        for fq in range(len(pmf_q)):
            prob = float(pmf_p[fp] * pmf_q[fq])
            if prob <= cutoff:
                if fq > np.argmax(pmf_q):
                    break
                continue
            if fp == 0 and fq == 0:
                continue
            pairs.append((fp, fq))
            probs.append(prob)
    if not pairs:
        raise DegeneratePlanError("P(0,0) leaves no nontrivial pair above the cutoff")
    p_trivial = float(pmf_p[0] * pmf_q[0])
    total = sum(probs)
    return SubsetPlan(
        l_p=l_p,
        l_q=l_q,
        p=p,
        q=q,
        samples=samples,
        pairs=tuple(pairs),
        probabilities=tuple(pr / total for pr in probs),
        p_trivial=p_trivial,
    )


@dataclass
class EffectTables:
    """Per-fault-location end-of-circuit effects for one circuit and state.

    Arrays are indexed by a flat variant id; locations map to contiguous
    variant slices.  The p locations are the ops in order: an Init holds the
    X, Y and Z variants of ``SINGLE_QUBIT_BITS`` on its qubit, a CX the 15
    nontrivial two-qubit Paulis, variant j being ``bits = j + 1`` (bit 0 X
    on the control, bit 1 Z on the control, bit 2 X on the target, bit 3 Z
    on the target), and a flag measurement its flip.  The q locations of
    :func:`_idle_locations` follow, three ``SINGLE_QUBIT_BITS`` variants
    each.  The tables hold effects only: :func:`frame_replay_check` decodes
    a variant's Pauli from the circuit and this layout.  ``flags`` holds the
    flag-flip masks as word-major uint64 words of shape (W, V) (see
    :func:`circuit.pack_effects`), ``sc`` the packed
    (syndrome | class << synd_bits) of the ``error_side`` residual.
    """

    error_side: str
    synd_bits: int
    class_bits: int
    # p-type locations
    p_offsets: np.ndarray
    p_counts: np.ndarray
    # q-type locations
    q_offsets: np.ndarray
    q_counts: np.ndarray
    flags: np.ndarray
    sc: np.ndarray

    @property
    def l_p(self) -> int:
        return len(self.p_offsets)

    @property
    def l_q(self) -> int:
        return len(self.q_offsets)


def _single_qubit_effects(cols: tuple[list[int], list[int]], q: int) -> tuple[int, ...]:
    """Effects of the ``SINGLE_QUBIT_BITS`` variants on qubit q at
    transfer-map ``cols``."""
    ex, ez = cols[0][q], cols[1][q]
    return _pick_single((0, ex, ez, ex ^ ez))  # indexed by Pauli bits


def build_effect_tables(circuit: Circuit, state: CssState, error_side: str = "X") -> EffectTables:
    """Every fault variant's propagated effect, from one backward sweep.

    ``error_side`` selects which residual component the syndrome and class
    bits read: "X" checks the X residual against the Z-type generators (the
    logical-zero preparation analysis), "Z" the Z residual against the
    X-type generators (Steane-QEC decoding of joint Z errors).  Raises
    ValueError when syndrome plus class bits exceed the 64-bit ``sc`` word.
    The variant layout is the one :class:`EffectTables` describes.
    """
    cols = propagate_backward(circuit, state, error_side)
    effects: list[int] = []
    p_counts: list[int] = []
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, Init):
            variants = _single_qubit_effects(cols[pos], op.qubit)
        elif isinstance(op, CXGate):
            col_x, col_z = cols[pos]
            a, b = op.control, op.target
            # variants[bits]: the XOR of the single Paulis that ``bits`` selects
            variants = [0]
            for single in (col_x[a], col_z[a], col_x[b], col_z[b]):
                variants += [v ^ single for v in variants]
            del variants[0]
        else:
            # Literal bit-flip channel: an X before the measurement flips a
            # Z-basis outcome and is inert for an X-basis one.
            variants = [(1 << op.outcome) if op.basis == "Z" else 0]
        effects += variants
        p_counts.append(len(variants))
    n_p = len(effects)
    idle = _idle_locations(circuit)
    for pos, q in idle:
        effects += _single_qubit_effects(cols[pos], q)

    counts = np.array(p_counts, dtype=np.int64)
    flags, sc = pack_effects(effects, circuit.flag_count)
    return EffectTables(
        error_side=error_side,
        synd_bits=len(state.checking_generators(error_side)),
        class_bits=len(state.class_logicals(error_side)),
        p_offsets=np.cumsum(counts) - counts,
        p_counts=counts,
        q_offsets=n_p + 3 * np.arange(len(idle), dtype=np.int64),
        q_counts=np.full(len(idle), 3, dtype=np.int64),
        flags=flags,
        sc=sc,
    )


@dataclass(frozen=True)
class SampleSet:
    """Histogram of accepted samples over packed (syndrome, class) keys.

    ``keys`` are sorted and unique, in the ``sc`` layout of
    :class:`EffectTables` (``synd | cls << synd_bits``).  ``count`` holds raw
    sample counts, ``weight`` importance-weighted mass (each sample carries
    its bucket's true probability over the number drawn there).  The trivial
    fault-free mass is included analytically.
    """

    synd_bits: int
    class_bits: int
    keys: np.ndarray  # uint64
    count: np.ndarray  # float64
    weight: np.ndarray  # float64

    @classmethod
    def tally(cls, synd_bits: int, class_bits: int, keys, count, weight) -> SampleSet:
        """Sum ``count`` and ``weight`` per distinct key, each in input order."""
        uniq, inverse = np.unique(np.asarray(keys, dtype=np.uint64), return_inverse=True)
        n = len(uniq)
        return cls(
            synd_bits,
            class_bits,
            uniq,
            np.bincount(inverse, weights=np.asarray(count, dtype=np.float64), minlength=n),
            np.bincount(inverse, weights=np.asarray(weight, dtype=np.float64), minlength=n),
        )

    @property
    def synd(self) -> np.ndarray:
        return self.keys & np.uint64((1 << self.synd_bits) - 1)

    @property
    def cls(self) -> np.ndarray:
        return self.keys >> np.uint64(self.synd_bits)

    @property
    def counts(self) -> Mapping[tuple[int, int], float]:
        """Read-only (syndrome, class) -> count view of the arrays.

        Only ``perfbench/tracing.py``'s ``_on_evaluate`` reads it; the
        package itself works on the arrays.
        """
        rows = zip(self.synd.tolist(), self.cls.tolist())
        return MappingProxyType(dict(zip(rows, self.count.tolist())))


@dataclass
class MonteCarloResult:
    plan: SubsetPlan
    accepted: float  # including the trivial add-back
    acceptance_rate: float
    acceptance_ci: tuple[float, float]
    train: SampleSet
    test: SampleSet

    @property
    def effective_samples(self) -> float:
        return self.plan.effective_samples


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of the (n, k) matrix ``rows`` that hold an entry twice."""
    dup = rows[:, 0] == rows[:, 1]
    for j in range(2, rows.shape[1]):
        col = rows[:, j]
        for i in range(j):
            dup |= rows[:, i] == col
    return dup


def _draw_distinct(rng: np.random.Generator, n_rows: int, k: int, limit: int) -> np.ndarray:
    """n_rows x k integer matrix, entries < limit, distinct within each row.

    Rows with a repeat are redrawn whole, in row order, until none is left;
    only the redrawn rows are checked again.
    """
    out = rng.integers(0, limit, size=(n_rows, k), dtype=np.int64)
    if k == 1:
        return out
    bad = np.flatnonzero(_repeats(out))
    while len(bad):
        out[bad] = rng.integers(0, limit, size=(len(bad), k), dtype=np.int64)
        bad = bad[_repeats(out[bad])]
    return out


def _sample_bucket(
    tables: EffectTables, fp: int, fq: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Effects of ``n`` samples with ``fp`` p- and ``fq`` q-location faults.

    Each sample draws distinct locations of each kind and one uniform
    variant per location, and XORs their effects.  Returns the word-major
    flag words (W, n) and the ``sc`` words (n,).
    """
    flags = np.zeros((len(tables.flags), n), dtype=np.uint64)
    sc = np.zeros(n, dtype=np.uint64)
    for k, offsets, counts in (
        (fp, tables.p_offsets, tables.p_counts),
        (fq, tables.q_offsets, tables.q_counts),
    ):
        if not k:
            continue
        locs = _draw_distinct(rng, n, k, len(offsets))
        for col in range(k):
            loc = locs[:, col]
            var = offsets[loc] + (rng.random(n) * counts[loc]).astype(np.int64)
            for acc, words in zip(flags, tables.flags):
                acc ^= words[var]
            sc ^= tables.sc[var]
    return flags, sc


def _accepted_chunks(tables: EffectTables, pairs, counts, rng):
    """Yield ``(i, ok, sc)`` per chunk of at most ``SAMPLE_CHUNK`` samples of
    stratum i.

    Stratum i, a plan's fault-count pair ``pairs[i]`` = (f_p, f_q), draws
    ``counts[i]`` samples; ``ok`` marks the accepted ones (no flag flips),
    ``sc`` holds every sample's packed syndrome and class.  Draws the caller
    makes from ``rng`` between yields precede the next chunk's.
    """
    for i, ((fp, fq), n_b) in enumerate(zip(pairs, counts)):
        done = 0
        while done < n_b:
            m = min(SAMPLE_CHUNK, n_b - done)
            done += m
            flags, sc = _sample_bucket(tables, fp, fq, m, rng)
            yield i, (flags == 0).all(axis=0), sc


def run_monte_carlo(
    circuit: Circuit,
    state: CssState,
    model: NoiseModel,
    plan: SubsetPlan,
    seed: int,
    tables: EffectTables | None = None,
) -> MonteCarloResult:
    """Draw the plan's samples, propagate, and tally (syndrome, class).

    Samples are split into equal train/test halves by a per-sample coin.
    A sample is accepted when no flag flips; accepted samples contribute
    their X-residual syndrome and class.  The trivial add-back mass is
    divided between the halves.  Deterministic for a fixed
    (seed, plan, circuit).  Raises ValueError when ``model`` and ``plan``
    disagree on p or q, or ``tables`` and ``plan`` on the location counts.
    """
    if not (math.isclose(model.p, plan.p) and math.isclose(model.q, plan.q)):
        raise ValueError(
            f"noise model (p={model.p:g}, q={model.q:g}) disagrees with the subset plan "
            f"(p={plan.p:g}, q={plan.q:g})"
        )
    if tables is None:
        tables = build_effect_tables(circuit, state)
    if (tables.l_p, tables.l_q) != (plan.l_p, plan.l_q):
        raise ValueError(
            f"effect tables (L_p={tables.l_p}, L_q={tables.l_q}) disagree with the subset "
            f"plan (L_p={plan.l_p}, L_q={plan.l_q})"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.multinomial(plan.samples, plan.probabilities)
    # Per subset: each chunk's distinct keys, counts and weights in draw
    # order, then the trivial add-back on key 0; the histogram sums them in
    # that order.
    parts: tuple[list, list] = ([], [])
    accepted_nontrivial = 0.0

    for i, ok, acc_sc in _accepted_chunks(tables, plan.pairs, counts, rng):
        # weight of one sample = true mass of the stratum / samples drawn
        weight_each = plan.probabilities[i] * (1.0 - plan.p_trivial) / counts[i]
        accepted_nontrivial += float(ok.sum())
        is_train = rng.random(len(ok)) < 0.5
        for part, mask in zip(parts, (is_train & ok, ~is_train & ok)):
            keys, kcounts = np.unique(acc_sc[mask], return_counts=True)
            part.append((keys, kcounts, kcounts * weight_each))
    addback = plan.trivial_addback
    trivial = (np.zeros(1, dtype=np.uint64), [addback / 2.0], [plan.p_trivial / 2.0])
    train, test = (
        SampleSet.tally(
            tables.synd_bits, tables.class_bits, *map(np.concatenate, zip(*part, trivial))
        )
        for part in parts
    )
    accepted = accepted_nontrivial + addback
    effective = plan.effective_samples
    rate = accepted / effective
    ci = wilson_interval(accepted, effective)
    return MonteCarloResult(
        plan=plan,
        accepted=accepted,
        acceptance_rate=rate,
        acceptance_ci=ci,
        train=train,
        test=test,
    )


def wilson_interval(successes: float, trials: float, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def _variant_fault(
    circuit: Circuit, tables: EffectTables, idle: list[tuple[int, int]], v: int
) -> tuple[int, int, int]:
    """Variant ``v``'s Pauli as a ``run_tableau`` fault ``(op position, x_mask,
    z_mask)``, decoded from the circuit and v's place in the location arrays
    (the layout of :class:`EffectTables`), not from the effects."""
    if tables.l_q and v >= tables.q_offsets[0]:
        i = int(np.searchsorted(tables.q_offsets, v, "right")) - 1
        pos, q = idle[i]
        bits = SINGLE_QUBIT_BITS[v - int(tables.q_offsets[i])]
        return pos, (bits & 1) << q, (bits >> 1) << q
    pos = int(np.searchsorted(tables.p_offsets, v, "right")) - 1
    j = v - int(tables.p_offsets[pos])
    op = circuit.ops[pos]
    if isinstance(op, Init):
        bits, q = SINGLE_QUBIT_BITS[j], op.qubit
        return pos, (bits & 1) << q, (bits >> 1) << q
    if isinstance(op, CXGate):
        bits, a, b = j + 1, op.control, op.target
        return pos, (bits & 1) << a | (bits >> 2 & 1) << b, (bits >> 1 & 1) << a | (bits >> 3) << b
    # The literal bit-flip channel: an X on the flag right before its
    # measurement, after the previous op.
    return pos - 1, 1 << op.qubit, 0


def frame_replay_check(
    circuit: Circuit,
    state: CssState,
    tables: EffectTables,
    n_samples: int,
    seed: int,
) -> int:
    """Cross-check frame propagation against the stabilizer tableau.

    Draws random fault sets, predicts flag flips and the residual's
    syndrome and class from the effect tables, then replays the same Paulis
    inside a tableau simulation.  Each drawn variant's Pauli is decoded from
    the circuit and the variant's location (:func:`_variant_fault`), so a
    table whose effects sit at the wrong variant fails too.  The code qubits
    are read out in the basis that sees the tables' error side (Z for X
    errors, X for Z errors) and graded by :func:`css.syndrome_and_class`.
    Returns the number of agreeing samples; raises on the first mismatch.
    """
    from .tableau import run_tableau

    rng = np.random.default_rng(seed)
    side = tables.error_side
    code = [(q, ci) for q, ci in enumerate(circuit.code_index) if ci is not None]
    idle = _idle_locations(circuit)
    for trial in range(n_samples):
        k = int(rng.integers(1, REPLAY_MAX_FAULTS + 1))
        chosen = rng.integers(0, len(tables.sc), size=k)
        predicted_flags = eff_sc = 0
        for v in chosen:
            predicted_flags ^= flag_int(tables.flags, v)
            eff_sc ^= int(tables.sc[v])
        faults = [_variant_fault(circuit, tables, idle, int(v)) for v in chosen]
        tab, outcomes, _ = run_tableau(circuit, faults, rng=rng)
        observed_flags = sum(bit << i for i, bit in enumerate(outcomes))
        if observed_flags != predicted_flags:
            raise AssertionError(
                f"sample {trial}: flag mismatch {observed_flags:#x} != {predicted_flags:#x}"
            )
        readout = tab.measure_z if side == "X" else tab.measure_x
        bits = 0
        for q, ci in code:
            bits |= readout(q, rng)[0] << ci
        # The readout is a codeword of the state plus the residual's support;
        # syndrome_and_class grades a support, so it serves either side.
        synd, cls = syndrome_and_class(bits, state, side)
        observed_sc = synd | cls << tables.synd_bits
        if observed_sc != eff_sc:
            raise AssertionError(
                f"sample {trial}: {side} syndrome/class {observed_sc:#x} != {eff_sc:#x}"
            )
    return n_samples
