"""Circuit-level Pauli-frame Monte Carlo with subset sampling.

Noise model: one rate ``p`` drives a single-qubit depolarizing channel after
every initialization, a two-qubit depolarizing channel after every CX, and
the literal bit-flip channel (an X before the measurement) on every flag
measurement: it flips Z-basis outcomes and is inert for X-basis flags.  Memory
noise adds a depolarizing channel of rate ``p/100`` on every active qubit
for every CX time step.  The final transversal measurement is noiseless.

Frame propagation is linear, so every fault location's end-of-circuit
effect (flag flips, syndrome, class) is read once off the fault-site record
of :func:`circuit.propagate_backward`, the XOR of its qubits' entries at its
site; a Monte Carlo sample is then an XOR of a few table entries.  The
tables hold effects only; a variant's Pauli follows from its id and the
circuit.  Only unflagged samples count, so each flag word is read only for
the rows the earlier words left clean, and the (syndrome, class) word only
for the unflagged rows, and the sampler returns the accepted rows' words
alone.  Subset sampling draws the number of faults per sample from the
nontrivial part of the binomial distribution and adds the fault-free mass
back analytically; accepted samples alternate between the train and test
halves in draw order.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass
from functools import reduce
from operator import ixor
from types import MappingProxyType

import numpy as np

from .circuit import (
    Circuit,
    CXGate,
    Init,
    pack_effects,
    propagate_backward,
)
from .css import CssState, coset_key_columns


SAMPLE_CHUNK = 1 << 18  # rows per _sample_bucket call; later words and sc read unflagged rows only
Z95 = 1.9599639845400536  # two-sided 95 % normal quantile of wilson_interval
# Pauli bits (bit 0 X, bit 1 Z) of the variants of a single-qubit location,
# in table order: X, Y, Z.
SINGLE_QUBIT_BITS = (1, 3, 2)
SLOTS = 15  # variant ids per op: 1, 3 and 15 variants all divide it
# Below this whole-row acceptance _draw_distinct redraws entry by entry.  It
# is the lowest measured crossover of the two paths (a full SAMPLE_CHUNK at
# small L); fewer rows or more locations favour the column path above it too.
ROW_ACCEPT_MIN = 0.2
_log_factorials = np.zeros(0)  # lgamma(k + 1) at k = 0, 1, ..., grown by _binom_pmf


class DegeneratePlanError(ValueError):
    """No nontrivial fault-count pair survives the subset-sampling cutoff."""


@dataclass(frozen=True)
class NoiseModel:
    p: float

    def __post_init__(self) -> None:
        if not 0 < self.p < 1:
            raise ValueError(f"require rates 0 < p, q < 1, got p={self.p}, q={self.q}")

    @property
    def q(self) -> float:
        """Idle-location rate."""
        return self.p / 100


def _idle_steps(circuit: Circuit) -> Iterator[tuple[int, ItemsView[int, int]]]:
    """``(CX position, live qubits)`` per CX time step: a qubit is live from
    its initialization until its measurement, and each live qubit, in
    initialization order, maps to the position of its last Init or CX (this
    CX for its two qubits), whose record entry its idle fault has.  Read the
    view before the next step.
    """
    live: dict[int, int] = {}
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, Init):
            live[op.qubit] = pos
        elif isinstance(op, CXGate):
            live[op.control] = live[op.target] = pos
            yield pos, live.items()
        else:
            live.pop(op.qubit, None)


def _idle_locations(circuit: Circuit) -> list[tuple[int, int]]:
    """``(CX position, qubit)`` of every idle location, in table order: one
    location per live qubit per CX time step (:func:`_idle_steps`)."""
    return [(pos, q) for pos, live in _idle_steps(circuit) for q, _ in live]


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
    # lgamma(k' + 1) at k' = n - k, so one slice of the log-factorials
    # serves both terms
    global _log_factorials
    if len(_log_factorials) <= n:
        grown = [math.lgamma(k + 1) for k in range(len(_log_factorials), n + 1)]
        _log_factorials = np.concatenate([_log_factorials, grown])
    ks = np.arange(n + 1)
    lg = _log_factorials[: n + 1]
    log_comb = lg[n] - lg - lg[::-1]
    return np.exp(log_comb + ks * math.log(p) + (n - ks) * math.log1p(-p))


def build_subset_plan(l_p: int, l_q: int, p: float, q: float, samples: int) -> SubsetPlan:
    """Retain the (f_p, f_q) fault-count pairs worth sampling.

    P(f_p, f_q) is the product of the two binomials.  The retained pairs
    are exactly those with P > 1/samples^2 other than the trivial (0, 0),
    whose mass is added back analytically; they come in (f_p, f_q) order.
    Raises ValueError unless 0 < p, q < 1, and DegeneratePlanError when no
    pair is retained.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (0 < p < 1 and 0 < q < 1):
        raise ValueError(f"require rates 0 < p, q < 1, got p={p}, q={q}")
    pmf_p, pmf_q = _binom_pmf(l_p, p), _binom_pmf(l_q, q)
    cutoff = 1.0 / samples**2
    pairs: list[tuple[int, int]] = []
    probs: list[float] = []
    for fp in np.flatnonzero(pmf_p > cutoff).tolist():
        row = pmf_p[fp] * pmf_q
        keep = row > cutoff
        keep[0] &= fp > 0  # the trivial pair is added back, not sampled
        fqs = np.flatnonzero(keep).tolist()
        pairs += [(fp, fq) for fq in fqs]
        probs += row[fqs].tolist()
    if not pairs:
        raise DegeneratePlanError(f"no fault-count pair but (0, 0) has P > 1/samples^2 = {cutoff:.3g} "
                                  f"(L_p={l_p}, L_q={l_q}, p={p:g}, q={q:g}, samples={samples})")
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

    Arrays are indexed by a variant id that is arithmetic on the variant's
    location.  Op ``pos`` (every op is one full-rate location) owns the
    ``SLOTS`` ids ``SLOTS * pos + j``: a CX's slot j is the two-qubit Pauli
    ``bits = j + 1`` (bit 0 X on the control, bit 1 Z on the control, bit 2
    X on the target, bit 3 Z on the target), an Init's X, Y and Z variants
    (``SINGLE_QUBIT_BITS``) fill five slots each, so slot j is
    ``SINGLE_QUBIT_BITS[j // 5]``, and a flag measurement's flip fills all
    15.  Idle location i of :func:`_idle_locations` owns the three ids
    ``SLOTS * l_p + 3 * i + j``, slot j being ``SINGLE_QUBIT_BITS[j]``.  A
    uniform slot of a location is thus a uniform variant of it.  An effect
    is the XOR of its qubits' record entries at its site (an idle
    location's site is its qubit's last Init or CX).  The tables hold
    effects only: a variant's Pauli follows from the circuit and this
    layout.  ``flags`` holds the flag-flip masks as word-major uint64 words
    of shape (W, V) (:func:`circuit.pack_effects`), ``sc`` the packed
    (syndrome | class << synd_bits) of the ``error_side`` residual.
    """

    error_side: str
    synd_bits: int
    class_bits: int
    l_p: int  # full-rate locations: the ops
    l_q: int  # idle locations
    flags: np.ndarray
    sc: np.ndarray


def build_effect_tables(circuit: Circuit, state: CssState, error_side: str = "X") -> EffectTables:
    """Every fault variant's propagated effect, from one backward sweep.

    ``error_side`` selects which residual component the syndrome and class
    bits read: "X" checks the X residual against the Z-type generators (the
    logical-zero preparation analysis), "Z" the Z residual against the
    X-type generators (Steane-QEC decoding of joint Z errors).  Raises
    ValueError when syndrome plus class bits exceed the 64-bit ``sc`` word
    or the circuit is outside the model.  The variant layout is the one
    :class:`EffectTables` describes.  The x and z of every record entry are
    packed once, with a zero entry last, and each variant XORs at most four
    of them: bit i of its Pauli bits selects column i of its location's
    (x, z, x', z'), where the primed pair is a CX's target entry.
    """
    sites = propagate_backward(circuit, coset_key_columns(state, error_side), error_side)
    # The walk of _idle_steps, numbering the record entries in op order
    # (packed as x at 2i, z at 2i + 1): each live qubit maps to its last
    # Init or CX entry, so a CX step's idle entries are the live map's
    # values.  Per op: its two entries (a CX's control and target, else its
    # qubit's twice) and its kind, Init 0, CX 1 or flag 2, which sets its
    # slots' bits.
    record: list[int] = []
    ops: list[tuple[int, int, int]] = []
    idle: list[int] = []
    live: dict[int, int] = {}
    for pos, op in enumerate(circuit.ops):
        at = len(record) // 2
        if isinstance(op, Init):
            record += sites[pos, op.qubit]
            live[op.qubit] = at
            ops.append((at, at, 0))
        elif isinstance(op, CXGate):
            record += (*sites[pos, op.control], *sites[pos, op.target])
            live[op.control], live[op.target] = at, at + 1
            ops.append((at, at + 1, 1))
            idle += live.values()
        else:
            record += sites[pos, op.qubit]
            live.pop(op.qubit, None)
            ops.append((at, at, 2))
    first, second, kinds = np.array(ops, dtype=np.intp).reshape(-1, 3).T
    idle = np.array(idle, dtype=np.intp)
    slot_bits = np.array([np.repeat(SINGLE_QUBIT_BITS, 5), np.arange(1, SLOTS + 1), [1] * SLOTS])
    bits = np.concatenate([slot_bits[kinds].ravel(), np.tile(SINGLE_QUBIT_BITS, len(idle))])
    a, b = (2 * np.concatenate([np.repeat(e, SLOTS), np.repeat(idle, 3)]) for e in (first, second))
    zero = len(record)
    picks = [np.where(bits >> i & 1, col, zero) for i, col in enumerate((a, a + 1, b, b + 1))]
    flags, sc = pack_effects(record + [0], circuit.flag_count)
    return EffectTables(
        error_side=error_side,
        synd_bits=len(state.checking_generators(error_side)),
        class_bits=len(state.class_logicals(error_side)),
        l_p=len(circuit.ops),
        l_q=len(idle),
        flags=reduce(ixor, (flags.take(col, axis=1) for col in picks)),
        sc=reduce(ixor, (sc[col] for col in picks)),
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


def _repeats(block: np.ndarray) -> np.ndarray:
    """Mask of the samples (columns) of the (k, n) ``block`` that hold an entry twice."""
    dup = block[0] == block[1]
    for j in range(2, len(block)):
        for i in range(j):
            dup |= block[i] == block[j]
    return dup


def _draw_distinct(
    rng: np.random.Generator, n_rows: int, k: int, limit: int, stride: int = 1
) -> np.ndarray:
    """n_rows x k integer matrix, entries < limit, with ``entry // stride``
    distinct within each row, uniform over such rows; a k above the
    L = limit // stride locations raises ValueError.

    The rows are drawn as one (k, n_rows) block, so column j (fault j of
    every row) is one contiguous row of it, and the block's transpose is
    returned.  Rows with a repeat are redrawn whole, as one (k, bad) block,
    until none is left; only the redrawn rows are checked again.  A whole
    row is distinct with probability prod_{i<k} (1 - i/L); below
    ``ROW_ACCEPT_MIN`` each column j >= 1 in turn is instead redrawn on its
    own where it repeats an earlier one: a draw without replacement, which
    ends at every k <= L.  Locations are compared as int32 keys, exact
    since every id is below a table's length.
    """
    locations = limit // stride
    if k > locations:
        raise ValueError(f"cannot draw {k} distinct locations out of {locations}")
    out = rng.integers(0, limit, size=(k, n_rows), dtype=np.int64)
    if k == 1:
        return out.T
    if math.prod(1 - i / locations for i in range(k)) < ROW_ACCEPT_MIN:
        for j in range(1, k):
            bad = np.arange(n_rows)
            while len(bad := bad[(out[:j, bad] // stride == out[j, bad] // stride).any(0)]):
                out[j, bad] = rng.integers(0, limit, size=len(bad), dtype=np.int64)
        return out.T
    bad = np.flatnonzero(_repeats(out.astype(np.int32) // stride))
    while len(bad):
        out[:, bad] = rng.integers(0, limit, size=(k, len(bad)), dtype=np.int64)
        bad = bad[_repeats(out[:, bad].astype(np.int32) // stride)]
    return out.T


def _sample_bucket(
    tables: EffectTables, fp: int, fq: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Accepted effects of ``n`` samples with ``fp`` p- and ``fq`` idle faults.

    Each fault is one uniform variant id of :class:`EffectTables`: below
    ``15 L_p`` for a p location, and ``15 L_p`` plus one below ``3 L_q`` for
    an idle one.  Every location of a kind owns equally many ids and each of
    its variants an equal share of them, so an id is a uniform location and
    a uniform variant of it.  A sample's ids sit at distinct locations
    of each kind (``_draw_distinct`` by ``id // stride``), and the sample
    XORs their effects, gathered one contiguous fault column at a time.
    Flag word w is read only for the rows that words 0..w-1 left clean,
    ``sc`` only for the rows no word flags.  Returns the accepted rows'
    ``sc``, in row order.  A bucket holds at least one fault, as every plan
    pair does.
    """
    draws = []  # (id matrix (k, n), offset of its ids in the tables)
    if fp:
        draws.append((_draw_distinct(rng, n, fp, SLOTS * tables.l_p, SLOTS).T, 0))
    if fq:
        draws.append((_draw_distinct(rng, n, fq, 3 * tables.l_q, 3).T, SLOTS * tables.l_p))

    def xor(table: np.ndarray) -> np.ndarray:
        return reduce(ixor, (table[offset:].take(var) for ids, offset in draws for var in ids))

    for words in tables.flags:
        keep = np.flatnonzero(xor(words) == 0)
        draws = [(ids.take(keep, axis=1), offset) for ids, offset in draws]
    return xor(tables.sc)


def _accepted_chunks(tables: EffectTables, pairs, counts, rng):
    """Yield ``(i, sc)`` per chunk of at most ``SAMPLE_CHUNK`` samples of
    stratum i.

    Stratum i, a plan's fault-count pair ``pairs[i]`` = (f_p, f_q), draws
    ``counts[i]`` samples; ``sc`` holds the packed syndrome and class of the
    accepted ones (no flag flips), in draw order.
    """
    for i, ((fp, fq), n_b) in enumerate(zip(pairs, counts)):
        for done in range(0, n_b, SAMPLE_CHUNK):
            yield i, _sample_bucket(tables, fp, fq, min(SAMPLE_CHUNK, n_b - done), rng)


def run_monte_carlo(
    circuit: Circuit,
    state: CssState,
    model: NoiseModel,
    plan: SubsetPlan,
    seed: int,
    tables: EffectTables | None = None,
) -> MonteCarloResult:
    """Draw the plan's samples, propagate, and tally (syndrome, class).

    A sample is accepted when no flag flips; accepted samples contribute
    their X-residual syndrome and class.  Each chunk's accepted samples
    alternate between train and test in draw order (even positions train,
    odd test): rows are drawn i.i.d., so a sample's position says nothing
    of its outcome.  The trivial add-back mass is divided between the
    halves.  The generator draws only the multinomial and the faults.
    Deterministic for a fixed (seed, plan, circuit).  Raises ValueError
    when ``model`` and ``plan`` disagree on p or q, or ``tables`` are not
    the state's X side (its syndrome and class widths) with the plan's
    location counts.
    """
    if not (math.isclose(model.p, plan.p) and math.isclose(model.q, plan.q)):
        raise ValueError(
            f"noise model (p={model.p:g}, q={model.q:g}) disagrees with the subset plan "
            f"(p={plan.p:g}, q={plan.q:g})"
        )
    if tables is None:
        tables = build_effect_tables(circuit, state)
    got = (tables.error_side, tables.synd_bits, tables.class_bits, tables.l_p, tables.l_q)
    want = ("X", len(state.checking_generators("X")), len(state.class_logicals("X")), plan.l_p, plan.l_q)
    if got != want:
        raise ValueError(
            f"effect tables (side, syndrome bits, class bits, L_p, L_q) {got} are not the "
            f"state's X side with the subset plan's location counts {want}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.multinomial(plan.samples, plan.probabilities)
    # Per subset: each chunk's distinct keys, counts and weights in draw
    # order, then the trivial add-back on key 0; the histogram sums them in
    # that order.
    parts: tuple[list, list] = ([], [])
    accepted_nontrivial = 0.0

    for i, acc_sc in _accepted_chunks(tables, plan.pairs, counts, rng):
        # weight of one sample = true mass of the stratum / samples drawn
        weight_each = plan.probabilities[i] * (1.0 - plan.p_trivial) / counts[i]
        accepted_nontrivial += len(acc_sc)
        for part, half in zip(parts, (acc_sc[0::2], acc_sc[1::2])):
            keys, kcounts = np.unique(half, return_counts=True)
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
    return MonteCarloResult(
        plan, accepted, accepted / effective, wilson_interval(accepted, effective), train, test
    )


def wilson_interval(successes: float, trials: float) -> tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion; (0, 1) for no
    trials."""
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)
