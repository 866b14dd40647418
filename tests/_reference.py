"""Brute-force oracles that the package's fast paths are checked against.

``gadget_ft_reference`` enumerates every combination of up to t X faults
on a (partial) flag gadget by forward propagation; ``min_weight_modulo``
reduces an error over every product of a generator set.  Neither shares
code with ``ftprep.verify``, the coset keys or the gadget engine.
``coset_keys`` computes the coset keys of many packed error masks at once,
one qubit column at a time.  ``all_fault_locations`` lists every
single-qubit fault site of a circuit, where the verifier lists only the
sites every other fault moves forward to.  ``replay_faults`` propagates an
explicit fault set forward through a circuit, apart from the backward sweep
the verifier reads its counterexamples off.  ``transfer_columns_reference``
is that sweep in the form that copies both full transfer-map columns at
every Init and CX, where ``circuit.propagate_backward`` keeps only each
op's own qubits' entries.  ``subset_plan_reference``
selects the subset plan's pairs by a per-cell scan that stops each
binomial's walk past its mode; it shares only the binomial pmfs with
``ftprep.noise``.  ``sample_bucket_reference`` draws a bucket's fault ids
as ``noise._sample_bucket`` does and gathers every flag word and the
``sc`` word for every row, where the sampler filters the rows word by
word and reads ``sc`` only for the rows no flag rejects.
``effect_tables_reference`` forms and packs every variant's effect on its
own, where ``noise.build_effect_tables`` gathers at most four packed
record entries per variant.

``Tableau`` is the Aaronson-Gottesman stabilizer tableau with sign
tracking (PRA 70, 052328 (2004), arXiv:quant-ph/0406196), each row two
Python-int qubit masks plus a sign bit; ``run_tableau`` runs a circuit on
it noiselessly, and ``tableau_check_reference`` is the noiseless check on
it, where ``ftprep.tableau`` reads the images of the Init stabilizers off
the backward sweep.
``frame_replay_check`` replays sampled fault sets of the effect tables
through the stabilizer tableau (``run_tableau_with_faults``), decoding each
variant's Pauli from its id and grading the readout with
``syndrome_and_class``; ``replay_sample`` is one such sample.
``load_mw_table`` reads back a table ``serialization.save_mw_table`` wrote.
``tight_order_reference`` replays the tight schedule's policy gate by gate,
counting each qubit's remaining uses, where ``AssembledCircuit.tight_order``
sorts by a static key read off the flags' last gates.
``topological_order_reference`` samples a greedy order with every ready
gate rescored at every step and one ``rng.random()`` per placed gate (or,
without ``greedy``, an order drawn from all ready gates), where
``AssembledCircuit._topological_order`` keeps its ready gates in score
buckets, rescores only a waking qubit's gates and stops once the order is
wider than its bound; ``schedule_reference`` scores every sampled order in
full, by the ``circuit_metrics`` of its scheduled circuit.
``bipartite_reference`` builds a bipartite circuit by an echelon scan, an
inverse and a product (X2 X1^-1), where ``bipartite`` reads the graph off
one standard-form elimination; ``flags_deterministic_reference`` decides
flag determinism by a span test, where ``gadgets`` runs one forward X
sweep.  ``transpose`` and the private echelon, inverse and product helpers
are theirs.  ``anneal_priority_reference`` anneals the edge order with a
width model that keeps each code qubit's first position and each gadget's
flag marks and restores them field by field on a rejected swap, drawing one
``rng.random(3)`` per step, where ``assemble._anneal_priority`` moves one
slot per window in a profile packed into one int, reads the peak by
threshold tests, undoes by restoring the old int and draws in blocks.
``discover_gadget_reference`` is the gadget search as a recursive DFS
whose every candidate is tested and kept by one ``_Engine.push``, where
``gadgets.discover_gadget`` runs the same test, commit and undo inline in
one loop over a frame stack; both visit the same nodes in the same order.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from itertools import accumulate
from pathlib import Path

import numpy as np

from ftprep.assemble import AssembledCircuit, circuit_metrics
from ftprep.bipartite import BipartiteCircuit
from ftprep.circuit import Circuit, CXGate, FlagMeasure, Init, pack_effects, propagate_backward
from ftprep.css import CssState, GroupTooLargeError, coset_key_columns
from ftprep.decoder import MWTable
from ftprep.gadgets import (
    BUDGET_EXHAUSTED,
    FOUND,
    NODE_BUDGET,
    SEARCH_EXHAUSTED,
    FlagGadget,
    SearchResult,
    _flags_deterministic,
    _Pool,
)
from ftprep.noise import (
    SINGLE_QUBIT_BITS,
    SLOTS,
    DegeneratePlanError,
    EffectTables,
    SubsetPlan,
    _binom_pmf,
    _draw_distinct,
    _idle_locations,
    _idle_steps,
)
from ftprep.tableau import TableauMismatch

MIN_WEIGHT_CAP = 20  # min_weight_modulo enumerates at most 2**20 products
REPLAY_MAX_FAULTS = 4  # most faults per frame_replay_check sample


def _propagate_x(frame: int, gates: list[tuple[int, int]], start: int) -> int:
    """Propagate an X frame through ``gates[start:]`` (time order)."""
    for a, b in gates[start:] if start else gates:
        if (frame >> a) & 1:
            frame ^= 1 << b
    return frame


def gadget_ft_reference(gadget: FlagGadget) -> bool:
    """Brute-force fault-tolerance test for a (partial) gadget.

    Enumerates every combination of ``f <= t`` X faults over distinct
    locations: the three X patterns after each CX, an X after each flag
    initialization, and a flip of each flag measurement.  The structure is
    not checked, so a partial gate list can be tested as
    ``FlagGadget(t, r, m, gates)``.
    """
    gates, t, r, m = list(gadget.gates), gadget.t, gadget.r, gadget.m
    code_mask = (1 << (r + 1)) - 1
    stab = code_mask
    flag_mask = ((1 << m) - 1) << (r + 1)
    flags_present = sorted({q for a, b in gates for q in (a, b) if q > r})

    variants: list[tuple[int, int]] = []  # (location id, signature)
    loc = 0
    for i, (a, b) in enumerate(gates):
        fa = _propagate_x(1 << a, gates, i + 1)
        fb = _propagate_x(1 << b, gates, i + 1)
        for sig in (fa, fb, fa ^ fb):
            variants.append((loc, sig))
        loc += 1
    for f in flags_present:
        variants.append((loc, _propagate_x(1 << f, gates, 0)))  # X after flag init
        loc += 1
    for f in flags_present:
        variants.append((loc, 1 << f))  # measurement flip
        loc += 1

    by_loc: dict[int, list[int]] = {}
    for lid, sig in variants:
        by_loc.setdefault(lid, []).append(sig)
    locations = sorted(by_loc)
    for f in range(1, t + 1):
        for combo in itertools.combinations(locations, f):
            for choice in itertools.product(*(by_loc[l] for l in combo)):
                sig = 0
                for s in choice:
                    sig ^= s
                if sig & flag_mask:
                    continue
                res = sig & code_mask
                w = min(bin(res).count("1"), bin(res ^ stab).count("1"))
                if w > f:
                    return False
    return True


def min_weight_modulo(error: int, group_generators: Sequence[int]) -> int:
    """Exact minimum weight of the ``error`` mask over products with the
    group of same-type generator masks.

    Enumerates all 2**g group elements in Gray-code order so each step is a
    single XOR; raises GroupTooLargeError beyond the 2**20 cap.
    """
    g = len(group_generators)
    if g > MIN_WEIGHT_CAP:
        raise GroupTooLargeError(f"{g} generators exceed the 2^{MIN_WEIGHT_CAP} cap")
    best = error.bit_count()
    cur = error
    for i in range(1, 1 << g):
        cur ^= group_generators[(i & -i).bit_length() - 1]  # Gray code step
        best = min(best, cur.bit_count())
    return best


def coset_keys(masks: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Coset keys of packed uint64 qubit masks, given per-qubit key columns."""
    out = np.zeros(masks.shape, dtype=np.uint64)
    for q, col in enumerate(cols):
        out ^= ((masks >> np.uint64(q)) & np.uint64(1)) * np.uint64(col)
    return out


def subset_plan_reference(l_p: int, l_q: int, p: float, q: float, samples: int) -> SubsetPlan:
    """``noise.build_subset_plan`` by a per-cell scan: each binomial is walked
    upward, cells at or below 1/samples^2 are skipped before its mode and end
    the walk after it."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (0 < p < 1 and 0 < q < 1):
        raise ValueError(f"require rates 0 < p, q < 1, got p={p}, q={q}")
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


def sample_bucket_reference(
    tables: EffectTables, fp: int, fq: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Effects of ``n`` samples with ``fp`` p- and ``fq`` q-location faults.

    Each fault is one uniform variant id of :class:`EffectTables`: below
    ``15 L_p`` for a p location, and ``15 L_p`` plus one below ``3 L_q`` for
    an idle one.  Every location of a kind owns equally many ids and each of
    its variants an equal share of them, so an id is a uniform location and
    a uniform variant of it.  A sample's ids sit at distinct locations
    of each kind (``_draw_distinct`` by ``id // stride``), and the sample
    XORs their effects.  Returns the word-major flag words (W, n) and the
    ``sc`` words (n,).
    """
    flags = np.zeros((len(tables.flags), n), dtype=np.uint64)
    sc = np.zeros(n, dtype=np.uint64)

    def add(var: np.ndarray) -> None:
        for acc, words in zip(flags, tables.flags):
            acc ^= words[var]
        np.bitwise_xor(sc, tables.sc[var], out=sc)

    if fp:
        for var in _draw_distinct(rng, n, fp, SLOTS * tables.l_p, SLOTS).T:
            add(var)
    if fq:
        for var in _draw_distinct(rng, n, fq, 3 * tables.l_q, 3).T:
            add(var + SLOTS * tables.l_p)
    return flags, sc


def effect_tables_reference(circuit: Circuit, state: CssState, error_side: str = "X") -> EffectTables:
    """``noise.build_effect_tables`` entry by entry: each variant's effect is
    formed as a Python int from its qubits' record entries and packed on its
    own, where the package packs each record entry once and gathers."""
    sites = propagate_backward(circuit, coset_key_columns(state, error_side), error_side)

    def single(entry: tuple[int, int]) -> list[int]:
        ex, ez = entry
        return [(0, ex, ez, ex ^ ez)[bits] for bits in SINGLE_QUBIT_BITS]  # indexed by Pauli bits

    effects: list[int] = []
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, Init):
            # Each variant fills 5 of the op's 15 slots.
            effects += [e for e in single(sites[pos, op.qubit]) for _ in range(5)]
        elif isinstance(op, CXGate):
            # variants[bits]: the XOR of the single Paulis that ``bits`` selects
            variants = [0]
            for one in (*sites[pos, op.control], *sites[pos, op.target]):
                variants += [v ^ one for v in variants]
            effects += variants[1:]
        else:
            effects += [sites[pos, op.qubit][0]] * SLOTS  # the literal X flip
    idle = [sites[last, q] for _, live in _idle_steps(circuit) for q, last in live]
    effects += [e for entry in idle for e in single(entry)]
    flags, sc = pack_effects(effects, circuit.flag_count)
    return EffectTables(
        error_side=error_side,
        synd_bits=len(state.checking_generators(error_side)),
        class_bits=len(state.class_logicals(error_side)),
        l_p=len(circuit.ops),
        l_q=len(idle),
        flags=flags,
        sc=sc,
    )


def all_fault_locations(circuit: Circuit, fault_type: str) -> list[tuple[int, tuple[int, ...]]]:
    """Every single-type fault site as ``(op index, qubit masks)``: one
    pattern after each initialization the type does not stabilize (X after
    |0>, Z after |+>), the three patterns after each CX, and a flip of each
    flag measurement whose basis differs from the type."""
    stabilized = "+" if fault_type == "X" else "0"
    locations = []
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, CXGate):
            a, b = 1 << op.control, 1 << op.target
            locations.append((pos, (a, b, a | b)))
        elif isinstance(op, Init) and op.basis != stabilized:
            locations.append((pos, (1 << op.qubit,)))
        elif isinstance(op, FlagMeasure) and op.basis != fault_type:
            locations.append((pos, (1 << op.qubit,)))
    return locations


def replay_faults(
    circuit: Circuit, fault_type: str, faults: list[tuple[int, int]]
) -> tuple[int, int]:
    """Forward-propagate an explicit fault set; returns (flag flips, residual).

    Independent of the backward-sweep machinery, so counterexamples can be
    checked against it directly.
    """
    frame = 0
    flag_flips = 0
    k = -1  # the k-th flag measurement records outcome k
    pending = dict()
    for pos, mask in faults:
        pending.setdefault(pos, 0)
        pending[pos] ^= mask
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, CXGate):
            # X frames flow control -> target, Z frames target -> control.
            src, dst = (op.control, op.target) if fault_type == "X" else (op.target, op.control)
            if (frame >> src) & 1:
                frame ^= 1 << dst
        elif isinstance(op, FlagMeasure):
            k += 1
            if op.basis != fault_type and (frame >> op.qubit) & 1:
                flag_flips ^= 1 << k
        if pos in pending:
            if isinstance(op, FlagMeasure):
                flag_flips ^= 1 << k  # measurement flip fault
            else:
                frame ^= pending[pos]
    # Project the circuit-qubit frame down to code-qubit bits.
    residual = 0
    for q, ci in enumerate(circuit.code_index):
        if ci is not None and (frame >> q) & 1:
            residual |= 1 << ci
    return flag_flips, residual


def transfer_columns_reference(
    circuit: Circuit, key_cols: list[int], error_side: str
) -> dict[int, tuple[list[int], list[int]]]:
    """Transfer-map columns right after every Init and CX, by op position.

    The columns at a position are ``(col_x, col_z)`` over all qubits: entry
    q is the end-of-circuit effect (a bitmask) of an X (``col_x``) or Z
    (``col_z``) on q inserted right after that op.  A backward walk over the
    ops starts them as the effect of a Pauli that survives to the end: on
    ``error_side``, code qubit i's coset key ``key_cols[i]`` (the caller's
    :func:`css.coset_key_columns`) shifted above the flag bits, and 0
    otherwise, so every effect reads
    ``key << flag_count | flag flips``.  Through a CX, X frames flow
    control -> target and Z frames target -> control.  The k-th flag
    measurement sets its qubit's column to ``1 << k`` on the side it detects
    (``col_x`` for a Z-basis measurement, ``col_z`` for an X-basis one) and
    to 0 on the other.  Raises ValueError unless the circuit's code qubits
    are exactly ``0..len(key_cols)-1``, each used once.
    """
    n = len(key_cols)
    if sorted(ci for ci in circuit.code_index if ci is not None) != list(range(n)):
        raise ValueError(f"circuit code qubits are not exactly 0..{n - 1}, each used once")
    k = n_flags = circuit.flag_count
    seed = [0 if ci is None else key_cols[ci] << n_flags for ci in circuit.code_index]
    zeros = [0] * circuit.n_qubits
    col_x, col_z = (seed, zeros) if error_side == "X" else (zeros, seed)
    cols: dict[int, tuple[list[int], list[int]]] = {}
    for pos in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[pos]
        if isinstance(op, FlagMeasure):
            k -= 1
            bit = 1 << k
            col_x[op.qubit] = bit if op.basis == "Z" else 0
            col_z[op.qubit] = bit if op.basis == "X" else 0
            continue
        cols[pos] = (col_x[:], col_z[:])
        if isinstance(op, CXGate):
            col_x[op.control] ^= col_x[op.target]
            col_z[op.target] ^= col_z[op.control]
    return cols


def flag_int(flags: np.ndarray, v: int) -> int:
    """Column ``v`` of word-major flag words as one Python int."""
    return sum(int(w) << (64 * i) for i, w in enumerate(flags[:, v]))


def syndrome_and_class(error: int, state: CssState, error_type: str) -> tuple[int, int]:
    """Syndrome and equivalence-class bits of a pure-type error mask.

    Syndrome bit i is the anticommutation with the i-th opposite-type
    stabilizer; class bit j is the anticommutation with the j-th
    state-stabilizing logical.  Both are returned as packed integer masks.
    """
    synd = sum(((error & c).bit_count() & 1) << i
               for i, c in enumerate(state.checking_generators(error_type)))
    cls = sum(((error & m).bit_count() & 1) << j
              for j, m in enumerate(state.class_logicals(error_type)))
    return synd, cls


def _product(x1: int, z1: int, r1: int, x2: int, z2: int, r2: int) -> tuple[int, int, int]:
    """Row (x1, z1, r1) times row (x2, z2, r2), both Hermitian Paulis.

    On each qubit the product picks up i when the second factor follows the
    first in the cycle X -> Y -> Z -> X and -i when it precedes it; the two
    popcounts count those qubits.
    """
    y1, y2 = x1 & z1, x2 & z2
    xo1, zo1, xo2, zo2 = x1 ^ y1, z1 ^ y1, x2 ^ y2, z2 ^ y2
    plus = (xo1 & y2) | (y1 & zo2) | (zo1 & xo2)
    minus = (xo1 & zo2) | (y1 & xo2) | (zo1 & y2)
    phase = 2 * (r1 + r2) + plus.bit_count() - minus.bit_count()
    return x1 ^ x2, z1 ^ z2, (phase % 4) // 2


class Tableau:
    """Aaronson-Gottesman tableau over ``n`` qubits, all starting in |0>.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; ``x[i]`` and
    ``z[i]`` are row i's qubit masks and ``r[i]`` its sign bit.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.x = [1 << i for i in range(n)] + [0] * n  # destabilizers X_i
        self.z = [0] * n + [1 << i for i in range(n)]  # stabilizers Z_i
        self.r = [0] * (2 * n)

    # -- gates ---------------------------------------------------------------

    def h(self, q: int) -> None:
        m = 1 << q
        xs, zs, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xb, zb = xs[i] & m, zs[i] & m
            if xb and zb:
                r[i] ^= 1
            elif xb or zb:
                xs[i] ^= m
                zs[i] ^= m

    def cx(self, a: int, b: int) -> None:
        ma, mb = 1 << a, 1 << b
        xs, zs, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            x, z = xs[i], zs[i]
            if x & ma:
                if z & mb and bool(x & mb) == bool(z & ma):
                    r[i] ^= 1
                xs[i] = x ^ mb
            if z & mb:
                zs[i] = z ^ ma

    def apply_pauli(self, x_mask: int, z_mask: int) -> None:
        """Apply a Pauli error: row signs flip on anticommutation."""
        xs, zs, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            r[i] ^= ((xs[i] & z_mask) ^ (zs[i] & x_mask)).bit_count() & 1

    # -- internals -------------------------------------------------------------

    def _stabilizer_product(self, rows: list[int]) -> tuple[int, int, int]:
        """Product of stabilizer rows ``n + i`` for ``i`` in ``rows``, in order."""
        x = z = r = 0
        for i in rows:
            j = i + self.n
            x, z, r = _product(self.x[j], self.z[j], self.r[j], x, z, r)
        return x, z, r

    # -- measurements ----------------------------------------------------------

    def measure_z(self, q: int, rng: np.random.Generator | None = None) -> tuple[int, bool]:
        """Measure Z on qubit q.  Returns (outcome bit, deterministic)."""
        n, m = self.n, 1 << q
        p = next((i for i in range(n, 2 * n) if self.x[i] & m), -1)
        if p >= 0:
            xs, zs, r = self.x, self.z, self.r
            for i in range(2 * n):
                if i != p and xs[i] & m:
                    xs[i], zs[i], r[i] = _product(xs[p], zs[p], r[p], xs[i], zs[i], r[i])
            xs[p - n], zs[p - n], r[p - n] = xs[p], zs[p], r[p]
            outcome = int(rng.integers(0, 2)) if rng is not None else 0
            xs[p], zs[p], r[p] = 0, m, outcome
            return outcome, False
        return self._stabilizer_product([i for i in range(n) if self.x[i] & m])[2], True

    def measure_x(self, q: int, rng: np.random.Generator | None = None) -> tuple[int, bool]:
        self.h(q)
        out = self.measure_z(q, rng)
        self.h(q)
        return out

    def stabilizer_sign(self, x: int, z: int) -> int | None:
        """Sign with which the Pauli of X mask ``x`` and Z mask ``z``
        stabilizes the state: 0 for +, 1 for -, or None when it is not in
        the stabilizer group at all."""
        # The Pauli anticommutes with destabilizer i  <=>  stabilizer i appears.
        rows = [
            i for i in range(self.n)
            if ((self.x[i] & z) ^ (self.z[i] & x)).bit_count() & 1
        ]
        px, pz, r = self._stabilizer_product(rows)
        return r if (px, pz) == (x, z) else None


def run_tableau(circuit: Circuit) -> tuple[Tableau, list[int], list[bool]]:
    """Run a circuit noiselessly on a tableau.  Returns the final tableau,
    flag outcomes, and per-flag determinism."""
    return run_tableau_with_faults(circuit, [])


def tableau_check_reference(circuit: Circuit, state: CssState) -> TableauMismatch | None:
    """``tableau.tableau_check_circuit`` on the stabilizer tableau: the
    circuit must prepare ``state`` exactly.

    Checks that every flag measurement is deterministically +1 and that the
    post-measurement state is stabilized (with + sign) by every generator of
    the CSS state, including the state-stabilizing logicals.  Returns None
    when everything holds, otherwise the first mismatch.
    """
    tab, outcomes, deterministic = run_tableau(circuit)
    for k, (outcome, det) in enumerate(zip(outcomes, deterministic)):
        if not det:
            return TableauMismatch("nondeterministic-flag", f"flag outcome {k}")
        if outcome != 0:
            return TableauMismatch("flag-sign", f"flag outcome {k} is -1")
    lift = [(ci, q) for q, ci in enumerate(circuit.code_index) if ci is not None]
    for typ in ("X", "Z"):
        for gen in state.reduction_group(typ):
            # Lift the code-qubit mask to circuit qubits.
            mask = sum(((gen >> ci) & 1) << q for ci, q in lift)
            sign = tab.stabilizer_sign(*((mask, 0) if typ == "X" else (0, mask)))
            if sign != 0:
                kind = "unsatisfied-stabilizer" if sign is None else "stabilizer-sign"
                return TableauMismatch(kind, "".join(typ if gen >> q & 1 else "I" for q in range(state.n)))
    return None


def run_tableau_with_faults(
    circuit: Circuit,
    faults: list[tuple[int, int, int]],
    rng: np.random.Generator | None = None,
) -> tuple[Tableau, list[int], list[bool]]:
    """:func:`run_tableau` with injected Pauli faults.

    ``faults`` is a list of ``(op_position, x_mask, z_mask)`` triples: after
    executing the op at that position the Pauli is applied.  A random flag
    outcome is drawn from ``rng`` (0 without one).  Returns the final
    tableau, flag outcomes, and per-flag determinism.
    """
    tab = Tableau(circuit.n_qubits)
    outcomes: list[int] = []
    deterministic: list[bool] = []
    by_pos: dict[int, list[tuple[int, int]]] = {}
    for pos, xm, zm in faults:
        by_pos.setdefault(pos, []).append((xm, zm))
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, Init):
            if op.basis == "+":
                tab.h(op.qubit)
        elif isinstance(op, CXGate):
            tab.cx(op.control, op.target)
        elif isinstance(op, FlagMeasure):
            measure = tab.measure_z if op.basis == "Z" else tab.measure_x
            outcome, det = measure(op.qubit, rng)  # the k-th measurement is outcome k
            outcomes.append(outcome)
            deterministic.append(det)
        for xm, zm in by_pos.get(pos, []):
            tab.apply_pauli(xm, zm)
    return tab, outcomes, deterministic


def _variant_fault(circuit: Circuit, idle: list[tuple[int, int]], v: int) -> tuple[int, int, int]:
    """Variant ``v``'s Pauli as a ``run_tableau_with_faults`` fault ``(op
    position, x_mask, z_mask)``, decoded from the circuit, its ``idle``
    locations and v's id (the layout of ``noise.EffectTables``), not from
    the effects."""
    pos, j = divmod(v, SLOTS)
    if pos >= len(circuit.ops):
        i, j = divmod(v - SLOTS * len(circuit.ops), 3)
        pos, q = idle[i]
        bits = SINGLE_QUBIT_BITS[j]
        return pos, (bits & 1) << q, (bits >> 1) << q
    op = circuit.ops[pos]
    if isinstance(op, Init):
        bits, q = SINGLE_QUBIT_BITS[j // 5], op.qubit
        return pos, (bits & 1) << q, (bits >> 1) << q
    if isinstance(op, CXGate):
        bits, a, b = j + 1, op.control, op.target
        return pos, (bits & 1) << a | (bits >> 2 & 1) << b, (bits >> 1 & 1) << a | (bits >> 3) << b
    # The literal bit-flip channel: an X on the flag right before its
    # measurement, after the previous op.
    return pos - 1, 1 << op.qubit, 0


def replay_sample(
    circuit: Circuit,
    state: CssState,
    tables: EffectTables,
    idle: list[tuple[int, int]],
    variants: Sequence[int],
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Replay the Paulis of ``variants`` together on a tableau; returns the
    observed flag flips and packed (syndrome | class << synd_bits).

    The code qubits are read out in the basis that sees the tables' error
    side (Z for X errors, X for Z errors).  The readout is a codeword of the
    state plus the residual's support; ``syndrome_and_class`` grades a
    support, so it serves either side.
    """
    faults = [_variant_fault(circuit, idle, int(v)) for v in variants]
    tab, outcomes, _ = run_tableau_with_faults(circuit, faults, rng=rng)
    side = tables.error_side
    readout = tab.measure_z if side == "X" else tab.measure_x
    bits = 0
    for q, ci in enumerate(circuit.code_index):
        if ci is not None:
            bits |= readout(q, rng)[0] << ci
    synd, cls = syndrome_and_class(bits, state, side)
    return sum(bit << i for i, bit in enumerate(outcomes)), synd | cls << tables.synd_bits


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
    inside a tableau simulation (:func:`replay_sample`).  Each drawn
    variant's Pauli is decoded from the circuit and the variant's location
    (:func:`_variant_fault`), so a table whose effects sit at the wrong
    variant fails too.  Returns the number of agreeing samples; raises on
    the first mismatch.
    """
    rng = np.random.default_rng(seed)
    side = tables.error_side
    idle = _idle_locations(circuit)
    for trial in range(n_samples):
        k = int(rng.integers(1, REPLAY_MAX_FAULTS + 1))
        chosen = rng.integers(0, len(tables.sc), size=k)
        predicted_flags = eff_sc = 0
        for v in chosen:
            predicted_flags ^= flag_int(tables.flags, v)
            eff_sc ^= int(tables.sc[v])
        observed_flags, observed_sc = replay_sample(circuit, state, tables, idle, chosen, rng)
        if observed_flags != predicted_flags:
            raise AssertionError(
                f"sample {trial}: flag mismatch {observed_flags:#x} != {predicted_flags:#x}"
            )
        if observed_sc != eff_sc:
            raise AssertionError(
                f"sample {trial}: {side} syndrome/class {observed_sc:#x} != {eff_sc:#x}"
            )
    return n_samples


def load_mw_table(path: str | Path) -> MWTable:
    """The MW table ``serialization.save_mw_table`` wrote to ``path``."""
    raw = json.loads(Path(path).read_text())
    if raw.get("kind") != "mw":
        raise ValueError("not a MW table file")
    rows = sorted((int(s, 16), c, w) for s, (c, w) in raw["entries"].items())
    return MWTable(
        raw["synd_bits"],
        raw["class_bits"],
        raw["w_max"],
        synd=np.array([s for s, _, _ in rows], dtype=np.uint64),
        cls=np.array([c for _, c, _ in rows], dtype=np.uint64),
        weight=np.array([w for _, _, w in rows], dtype=np.int64),
    )


def tight_order_reference(asm: AssembledCircuit) -> list[int]:
    """The tight order by its policy: edges strictly in priority order, each
    preceded by its chains' pending gates and followed by the maximal run of
    private gates that each retire a flag; leftovers chain by chain."""
    n = len(asm.gates)
    scheduled = [False] * n
    chain_pos = [0] * len(asm.chains)
    chains_of: list[list[int]] = [[] for _ in range(n)]
    for ci, chain in enumerate(asm.chains):
        for node in chain:
            chains_of[node].append(ci)
    uses = [0] * asm.n_qubits
    for a, b in asm.gates:
        uses[a] += 1
        uses[b] += 1
    order: list[int] = []

    def front(ci: int) -> int | None:
        # The chain's first unscheduled gate, or None once it is done.
        chain = asm.chains[ci]
        while chain_pos[ci] < len(chain) and scheduled[chain[chain_pos[ci]]]:
            chain_pos[ci] += 1
        return chain[chain_pos[ci]] if chain_pos[ci] < len(chain) else None

    def run(node: int) -> None:
        scheduled[node] = True
        order.append(node)
        a, b = asm.gates[node]
        uses[a] -= 1
        uses[b] -= 1

    def retires(node: int) -> bool:
        # A private gate that is the last use of one of its flags.
        return node >= asm.n_edges and any(
            asm.code_index[q] is None and uses[q] == 1 for q in asm.gates[node]
        )

    for e in sorted(range(asm.n_edges), key=lambda e: asm.edge_priority[e]):
        for ci in chains_of[e]:
            while (node := front(ci)) != e:
                run(node)
        run(e)
        for ci in chains_of[e]:
            while (node := front(ci)) is not None and retires(node):
                run(node)
    for ci in range(len(asm.chains)):
        while (node := front(ci)) is not None:
            run(node)
    return order


def topological_order_reference(
    asm: AssembledCircuit, rng: np.random.Generator, greedy: bool
) -> list[int]:
    """The greedy sampler with every ready gate rescored at every step,
    drawing one uniform per placed gate.  Without ``greedy`` every ready
    gate is a candidate, which gives the tests orders that the scheduler
    never samples."""
    n = len(asm.gates)
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for chain in asm.chains:
        for u, v in zip(chain, chain[1:]):
            succ[u].append(v)
            indeg[v] += 1
    uses = [0] * asm.n_qubits
    for a, b in asm.gates:
        uses[a] += 1
        uses[b] += 1
    alive = [False] * asm.n_qubits
    flag = [ci is None for ci in asm.code_index]

    def score(node: int) -> int:
        s = 0
        for q in asm.gates[node]:
            s += not alive[q]
            s -= 2 * (flag[q] and uses[q] == 1)
        return s

    ready = [i for i in range(n) if indeg[i] == 0]
    order = []
    while ready:
        if greedy:
            best = min(score(v) for v in ready)
            pool = [v for v in ready if score(v) == best]
            node = pool[int(rng.random() * len(pool))]
            ready.remove(node)
        else:
            node = ready.pop(int(rng.random() * len(ready)))
        order.append(node)
        for q in asm.gates[node]:
            alive[q] = True
            uses[q] -= 1
            if flag[q] and uses[q] == 0:
                alive[q] = False
        for v in succ[node]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return order


def schedule_reference(asm: AssembledCircuit, shuffles: int = 1, seed: int = 0) -> Circuit:
    """The scheduler that scores every order in full: the tight order, then
    ``shuffles - 1`` greedy sampled orders, each by the (width, depth) of
    the ``circuit_metrics`` of its circuit; the first narrowest order wins."""
    rng = np.random.default_rng(seed)
    best: list[int] = []
    best_val: tuple[int, int] | None = None
    for trial in range(max(shuffles, 1)):
        order = topological_order_reference(asm, rng, True) if trial else asm.tight_order()
        m = circuit_metrics(asm.schedule(order))
        val = (m.max_simultaneous_qubits, m.depth)
        if best_val is None or val < best_val:
            best, best_val = order, val
    return asm.schedule(best)


def anneal_priority_reference(
    edges: list[tuple[int, int]],
    windows: list[tuple[list[int], list[tuple[int, int]]]],
    steps: int,
    rng: np.random.Generator,
) -> list[int]:
    """Anneal the edge order to minimize estimated peak qubit width.

    ``windows`` holds per gadget its edge ids and its flags' slot spans.  A
    gadget's flags are live while its edge window is open; a code qubit
    wakes at its first edge and stays live to the end.  The estimate tracks
    the true scheduled width closely because every gadget's bracket gates
    can be placed tight around its window.  Each step draws one
    ``rng.random(3)``: the two swap positions and the acceptance coin.
    """
    n_e = len(edges)
    model = _WidthModel(edges, windows, rng.permutation(n_e).tolist())
    best = cur = model.peak()
    best_order = list(model.order)
    temp = 3.0
    for _ in range(steps):
        a, b, coin = rng.random(3).tolist()
        i, j = int(a * n_e), int(b * n_e)
        if i == j:
            continue
        w = model.swap(i, j)
        if w <= cur or coin < math.exp((cur - w) / max(temp, 1e-9)):
            cur = w
            if w < best:
                best = w
                best_order = list(model.order)
        else:
            model.undo()
        temp *= 0.9995
    prio = [0] * n_e
    for p, e in enumerate(best_order):
        prio[e] = p
    return prio


class _WidthModel:
    """The annealer's width estimate of an edge order, updated per swap.

    ``delta[p]`` counts the code qubits woken at position p plus the flag
    windows opened at p, minus the windows closed just before p; the width
    is the peak of its running sum over the edge positions.  A swap of two
    edges moves only the first positions of their (at most four) code
    qubits and the windows of their (at most four) gadgets.
    """

    def __init__(
        self,
        edges: list[tuple[int, int]],
        windows: list[tuple[list[int], list[tuple[int, int]]]],
        order: list[int],
    ) -> None:
        n_e = len(edges)
        self.edges = edges
        self.windows = windows
        self.order = order
        self.pos = [0] * n_e
        for p, e in enumerate(order):
            self.pos[e] = p
        self.incident: dict[int, list[int]] = {}
        for i, (a, b) in enumerate(edges):
            self.incident.setdefault(a, []).append(i)
            self.incident.setdefault(b, []).append(i)
        self.gadgets_of: list[list[int]] = [[] for _ in range(n_e)]
        for g, (mine, _) in enumerate(windows):
            for i in mine:
                self.gadgets_of[i].append(g)
        self.delta = [0] * (n_e + 1)
        self.first = {q: min(self.pos[i] for i in inc) for q, inc in self.incident.items()}
        for p in self.first.values():
            self.delta[p] += 1
        self.marks = [self._marks(g) for g in range(len(windows))]
        for m in self.marks:
            for lo, hi in m:
                self.delta[lo] += 1
                self.delta[hi] -= 1
        self._undo: tuple = ()

    def _marks(self, g: int) -> list[tuple[int, int]]:
        """Gadget ``g``'s (open, close) positions, one pair per flag."""
        mine, spans = self.windows[g]
        slots = sorted([self.pos[i] for i in mine])
        return [(slots[lo], slots[hi] + 1) for lo, hi in spans]

    def _move_marks(self, g: int, new: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Replace gadget ``g``'s marks by ``new``; return the old ones."""
        delta = self.delta
        old = self.marks[g]
        for (lo, hi), (lo2, hi2) in zip(old, new):
            if lo != lo2:
                delta[lo] -= 1
                delta[lo2] += 1
            if hi != hi2:
                delta[hi] += 1
                delta[hi2] -= 1
        self.marks[g] = new
        return old

    def peak(self) -> int:
        return max(accumulate(self.delta[: len(self.edges)]), default=0)

    def swap(self, i: int, j: int) -> int:
        """Swap the edges at positions ``i`` and ``j``; return the new peak.

        A qubit or gadget holding both edges keeps its set of positions, so
        only those holding exactly one of them are updated.
        """
        order, pos, delta, first = self.order, self.pos, self.delta, self.first
        ei, ej = order[i], order[j]
        order[i], order[j] = ej, ei
        pos[ei], pos[ej] = j, i
        old_first = []
        for q in {*self.edges[ei]} ^ {*self.edges[ej]}:
            p = min([pos[e] for e in self.incident[q]])
            if p != first[q]:
                old_first.append((q, first[q]))
                delta[first[q]] -= 1
                delta[p] += 1
                first[q] = p
        old_marks = [
            (g, self._move_marks(g, self._marks(g)))
            for g in {*self.gadgets_of[ei]} ^ {*self.gadgets_of[ej]}
        ]
        self._undo = (i, j, old_first, old_marks)
        return self.peak()

    def undo(self) -> None:
        """Revert the last swap from its cached first positions and marks."""
        i, j, old_first, old_marks = self._undo
        order, pos, delta, first = self.order, self.pos, self.delta, self.first
        ei, ej = order[i], order[j]
        order[i], order[j] = ej, ei
        pos[ei], pos[ej] = j, i
        for q, p in old_first:
            delta[first[q]] -= 1
            delta[p] += 1
            first[q] = p
        for g, m in old_marks:
            self._move_marks(g, m)


def _reduce(vec: int, basis: list[int]) -> int:
    """``vec`` reduced against an echelon basis (distinct leading bits, in
    decreasing order); 0 iff it lies in the span."""
    for row in basis:
        vec = min(vec, vec ^ row)
    return vec


def _extend(basis: list[int], vec: int) -> bool:
    """Add ``vec`` to the echelon basis in place; True iff the span grew."""
    vec = _reduce(vec, basis)
    if not vec:
        return False
    basis.append(vec)
    basis.sort(reverse=True)
    return True


def transpose(rows: list[int], cols: int) -> list[int]:
    """Transpose of a ``len(rows) x cols`` matrix."""
    return [sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(cols)]


def _invert(rows: list[int]) -> list[int]:
    """Inverse of a full-rank square matrix, by Gauss-Jordan elimination."""
    n = len(rows)
    a = list(rows)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        bit = 1 << col
        pivot = next(i for i in range(col, n) if a[i] & bit)
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for i in range(n):
            if i != col and a[i] & bit:
                a[i] ^= a[col]
                inv[i] ^= inv[col]
    return inv


def _matmul(a: list[int], b: list[int]) -> list[int]:
    """Product ``a @ b``: row i is the XOR of the rows of ``b`` that row i of ``a`` selects."""
    out = []
    for row in a:
        acc = 0
        for j, bj in enumerate(b):
            if (row >> j) & 1:
                acc ^= bj
        out.append(acc)
    return out


def bipartite_reference(state: CssState, seed: int) -> BipartiteCircuit:
    """``bipartite.synthesize_bipartite`` by the adjacency X2 X1^-1.

    The qubits are scanned in the seeded order and a qubit joins the
    controls when its row of the transposed X generator matrix grows the
    span of the rows before it; X1 stacks the controls' rows and X2 the
    targets'.  Entry (t, j) of X2 X1^-1 is the edge from control j to t.
    """
    n = state.n
    x_gens = state.reduction_group("X")
    xrows = transpose(list(x_gens), n)
    basis: list[int] = []
    picked: list[int] = []
    for q in np.random.default_rng(seed).permutation(n):
        if _extend(basis, xrows[q]):
            picked.append(int(q))
            if len(picked) == len(x_gens):
                break
    controls = sorted(picked)
    targets = sorted(set(range(n)) - set(controls))
    adjacency = _matmul([xrows[q] for q in targets], _invert([xrows[q] for q in controls]))
    edges = [
        (cq, tq)
        for tq, row in zip(targets, adjacency)
        for j, cq in enumerate(controls)
        if (row >> j) & 1
    ]
    return BipartiteCircuit(tuple(controls), tuple(targets), tuple(sorted(edges)))


def flags_deterministic_reference(gadget: FlagGadget) -> bool:
    """Flag determinism by spans: each flag's Z evolved forward through the
    gates, and every initial Z_f in the span of the evolved flag-Z frames."""
    basis: list[int] = []
    for f in gadget.flag_labels:
        mask = 1 << f
        for a, b in gadget.gates:
            if (mask >> b) & 1:  # Z on the target side copies onto the control
                mask ^= 1 << a
        _extend(basis, mask)
    return not any(_reduce(1 << f, basis) for f in gadget.flag_labels)


class _Engine:
    """Incremental fault-tolerance checker for the backward search, for any t.

    Keeps the propagated signature of every fault variant as a python int
    (code bits low, flag bits high).  Prepending a gate never changes
    existing signatures, so each step only has to test the combinations
    involving the gate's new patterns, which share one location.

    The engine also maintains the circuit's X-frame transfer map (column q
    = image of an X on qubit q injected at the current temporal front), so
    a prepended gate's patterns are read off directly: an X on qubit q right
    after it propagates to ``transfer[q]``, and XX (an X on the control
    before the gate, copied onto its target) to the XOR of both columns.

    Only XX is tested, and only undominated patterns are stored.  For the
    single-qubit pattern on q, ``uses[q]`` counts the later gates on q:

    - Touched (``uses[q] > 0``): the X on q lasts unchanged until q's next
      gate L, so it is one of L's patterns (XX when q controls L, the
      target-side pattern when q is L's target).  Moving it forward, as in
      the lemma of :mod:`ftprep.verify`, keeps or shrinks the combination
      and ends on stored patterns, so it is neither tested nor stored.  An
      X after a flag's initialization is this case at the flag's first
      gate, and a measurement flip swaps the same way for the flag's stored
      pattern after its last gate, so both are omitted
      (:func:`gadget_ft_test` keeps the flips).
    - Untouched: a fresh target, a fresh flag, or c at the very first gate,
      with ``transfer[q] == 1 << q``.  A code bit moves the residual weight
      of a stored, passing (f-1)-combination by one, so weight <= f-1
      becomes <= f and weight >= r+2-f stays >= r+1-f; a fresh flag bit is
      in no stored key, so the combination is detected.  The test always
      passes and is skipped, but the pattern is stored.

    ``levels[k]`` buckets the XOR of every combination of ``k < t`` stored
    patterns at distinct locations by its flag signature; level 0 holds the
    empty combination.  A combination is undetected exactly when its flag
    parts cancel, so XX completes an f-fault combination only with the
    level-(f-1) bucket of its own flag signature, and each XOR with that
    bucket is pure code bits.  A residual of w code bits reduces to weight
    min(w, r+1-w), so an f-fault combination fails exactly when
    f < w < r+1-f: one popcount per bucket entry, and for f = 1, whose
    bucket is the empty combination alone, one popcount of XX when its flag
    part is 0.
    """

    def __init__(self, t: int, r: int, m: int) -> None:
        self.t = t
        self.r = r
        self.m = m
        self.flag_mask = ((1 << m) - 1) << (r + 1)
        levels: list[dict[int, list[int]]] = [{0: [0]}] + [{} for _ in range(1, t)]
        # (f, level f-1, r+1-f) for f >= 2: the failing residual weights lie
        # strictly between f and r+1-f.
        self.checks = [(f, level, r + 1 - f) for f, level in enumerate(levels[1:], 2)]
        # (level k-1, level k), top-down, so every level read during a
        # commit still predates the gate: a combination holding two of its
        # patterns would only repeat a smaller one.
        self.commits = [(levels[k - 1], levels[k]) for k in range(t - 1, 0, -1)]
        self.undo: list[list[list[int]]] = []
        self.stack: list[tuple[int, int]] = []  # the kept gates, last in time first
        self.transfer = [1 << q for q in range(1 + r + m)]
        self.uses = [0] * (1 + r + m)

    @property
    def gates_time(self) -> list[tuple[int, int]]:
        """The kept gates in time order."""
        return self.stack[::-1]

    def push(self, gate: tuple[int, int]) -> bool:
        """Prepend ``gate``; test and keep it if still fault-tolerant.

        Returns False (state unchanged) when the extended circuit fails the
        test.
        """
        a, b = gate
        transfer = self.transfer
        fa = transfer[a]
        xx = fa ^ transfer[b]
        fm = self.flag_mask
        key = xx & fm
        if key == 0 and 1 < xx.bit_count() < self.r:
            return False
        for f, level, hi in self.checks:
            bucket = level.get(key)
            if bucket:
                for o in bucket:
                    if f < (xx ^ o).bit_count() < hi:
                        return False

        # Commit XX and the patterns on untouched qubits.
        uses = self.uses
        new = [xx]
        if not uses[a]:
            new.append(fa)
        if not uses[b]:
            new.append(transfer[b])
        added: list[list[int]] = []
        for source, target in self.commits:
            for bucket in source.values():
                for o in bucket:
                    for s in new:
                        x = s ^ o
                        tb = target.get(x & fm)
                        if tb is None:
                            tb = target[x & fm] = []
                        tb.append(x)
                        added.append(tb)
        self.undo.append(added)
        self.stack.append(gate)
        uses[a] += 1
        uses[b] += 1
        transfer[a] = xx
        return True

    def pop(self) -> None:
        for bucket in self.undo.pop():
            bucket.pop()
        a, b = self.stack.pop()
        self.uses[a] -= 1
        self.uses[b] -= 1
        self.transfer[a] ^= self.transfer[b]


def discover_gadget_reference(
    t: int,
    r: int,
    m: int,
    budget: int | None = NODE_BUDGET,
    _por: bool = True,
) -> SearchResult:
    """Depth-first search for an X-detecting gadget using exactly ``m`` flags.

    Gates are drawn in priority order from three pools: entangle the
    lowest-index disentangled target (controlled by c or any entangled
    flag), entangle the lowest-index unused flag, then disentangle an
    entangled flag.  A candidate is kept only if the incrementally extended
    circuit stays fault-tolerant, which the one incremental ``_Engine``
    checks for every t.  Success requires every target entangled, every flag
    used and disentangled, and deterministic flag measurements.

    A node's pool depends only on its state: the next target (if any), the
    next unused flag (if any) and the entangled cluster.  So each state's
    pool is built once per call, in a dict local to the call, and so is
    each kept candidate's link to its child: the child's pool and the
    candidates it tries.  The link holds the partial-order reduction: a
    child candidate that the parent's pool lists up to the kept gate, and
    that shares no qubit with it, swaps two commuting gates whose other
    order was explored first, so the child skips it.  A skipped candidate
    is not a node.

    ``budget`` caps the number of attempted gate placements (None for no
    cap); a negative budget raises ValueError.  A gadget needs at least one
    flag, so ``m = 0`` is exhausted by definition.
    """
    if t < 1 or r < 1 or m < 0:
        raise ValueError("require t >= 1, r >= 1, m >= 0")
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} is negative")
    if m == 0:
        return SearchResult(SEARCH_EXHAUSTED, None, 0)
    engine = _Engine(t, r, m)
    push, pop = engine.push, engine.pop
    nodes = 0
    limit = budget if budget is not None else float("inf")
    end_flag = r + 1 + m
    pools: dict[tuple[int, int, tuple[int, ...]], _Pool] = {}

    def pool(done: int, flag: int, cluster: tuple[int, ...]) -> _Pool:
        state = (done, flag, cluster)
        found = pools.get(state)
        if found is None:
            gates = []
            if done < r:
                gates += [(x, done + 1) for x in cluster]
            if flag < end_flag:
                gates += [(x, flag) for x in cluster]
            for f in cluster[1:]:
                gates += [(x, f) for x in cluster if x != f]
            found = pools[state] = _Pool(state, gates, [None] * len(gates))
        return found

    def link(parent: _Pool, i: int) -> tuple[_Pool, tuple[int, ...]]:
        (done, flag, cluster), gates, links = parent
        pa, pb = gates[i]
        if pb <= r:  # entangle target pb
            child = pool(done + 1, flag, cluster)
        elif pb == flag:  # entangle the next unused flag
            child = pool(done, flag + 1, cluster + (pb,))
        else:  # disentangle flag pb
            child = pool(done, flag, tuple(x for x in cluster if x != pb))
        earlier = set(gates[: i + 1]) if _por else ()
        todo = tuple(
            j for j, (a, b) in enumerate(child.gates)
            if (a, b) not in earlier or pa in (a, b) or pb in (a, b)
        )
        links[i] = (child, todo)
        return links[i]

    def dfs(node: _Pool, todo: tuple[int, ...]) -> str | None:
        """Try the candidates ``todo`` of one node; None means keep going.
        On FOUND the engine keeps the gadget's gates."""
        nonlocal nodes
        gates, links = node.gates, node.links
        if not gates:  # every target entangled, every flag used and retired
            if _flags_deterministic(FlagGadget(t, r, m, tuple(engine.gates_time))):
                return FOUND
            return None
        for i in todo:
            nodes += 1
            if nodes > limit:
                return BUDGET_EXHAUSTED
            if not push(gates[i]):
                continue
            sub = dfs(*(links[i] or link(node, i)))
            if sub is not None:
                return sub
            pop()
        return None

    root = pool(0, r + 1, (0,))
    outcome = dfs(root, tuple(range(len(root.gates)))) or SEARCH_EXHAUSTED
    if outcome == FOUND:
        gadget = FlagGadget(t, r, m, tuple(engine.gates_time))
        gadget.validate()
        return SearchResult(FOUND, gadget, nodes)
    return SearchResult(outcome, None, nodes)
