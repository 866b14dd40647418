"""Fusing bipartite circuits with flag gadgets, scheduling, and metrics.

Every bipartite edge is simultaneously one entangling slot of the control's
X-detecting gadget and one slot of the target's Z-detecting gadget.  The
gadget of each protected qubit is picked once, into one placement list that
both the width annealer and the fuser read.  The library stores X gadgets
only: a target's Z gadget is its X gadget placed mirrored, every CX
reversed.  Each gadget fills its slots with its qubit's edges in one global
edge priority (a seeded permutation or the annealed order), so its internal
gate order becomes a precedence chain, and any linear extension of the
resulting DAG is a valid schedule.  Scheduling initializes qubits as late
as possible, measures flags as early as possible, and measures all code
qubits together at the end.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bipartite import BipartiteCircuit
from .circuit import Circuit, CXGate, FlagMeasure, Init
from .css import CssState, GroupTooLargeError, max_coset_weight
from .gadgets import FlagGadget, trivial_gadget
from .library import GadgetLibrary


class OverrideNotCertifiedError(ValueError):
    """A gadget downgrade was requested that the coset bound does not allow."""


@dataclass(frozen=True)
class CircuitMetrics:
    cx_count: int
    flag_count: int
    depth: int
    max_simultaneous_qubits: int


@dataclass(frozen=True)
class AssembledCircuit:
    """A fused FT preparation circuit plus its precedence structure.

    ``plus[q]`` is True for the qubits started in |+>: the controls and the
    Z-detecting flags, which are measured in X.  The other flags start in
    |0> and are measured in Z.
    """

    code_index: tuple[int | None, ...]  # circuit qubit -> code qubit, None for flags
    plus: tuple[bool, ...]
    gates: tuple[tuple[int, int], ...]  # physical CX nodes
    chains: tuple[tuple[int, ...], ...]  # gadget-internal gate orders
    n_edges: int
    edge_priority: tuple[int, ...]

    @property
    def n_qubits(self) -> int:
        return len(self.code_index)

    def schedule(self, order: list[int]) -> Circuit:
        """Materialize a schedule from a linear extension of the DAG."""
        last = self._dag[2]
        plus = self.plus
        ops = []
        inited: set[int] = set()
        for node in order:
            a, b = self.gates[node]
            for q in (a, b):
                if q not in inited:
                    ops.append(Init(q, "+" if plus[q] else "0"))
                    inited.add(q)
            ops.append(CXGate(a, b))
            for q in (a, b):
                if last[q] == node:
                    ops.append(FlagMeasure(q, "X" if plus[q] else "Z"))
        for q in range(self.n_qubits):
            if q not in inited:
                ops.append(Init(q, "+" if plus[q] else "0"))
        return Circuit(self.code_index, tuple(ops))

    @cached_property
    def _dag(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int | None, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Successors and in-degree per gate, each flag's last gate (None for
        code qubits), the number of flags each gate retires, and each
        qubit's gates; built once per circuit and read by ``schedule``,
        ``tight_order``, the greedy sampler and ``order_metrics``.

        All of a flag's gates lie in its gadget's chain, in chain order, so
        its last gate there is its last gate in every linear extension.  A
        flag's chain is the one holding its private gates (it is the target
        of two): an edge it controls lies in the other side's chain too.
        """
        n = len(self.gates)
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        last: list[int | None] = [None] * self.n_qubits
        for chain in self.chains:
            for u, v in zip(chain, chain[1:]):
                succ[u].append(v)
                indeg[v] += 1
            private = (q for v in chain if v >= self.n_edges for q in self.gates[v])
            flags = {q for q in private if self.code_index[q] is None}
            for v in chain:
                for q in flags.intersection(self.gates[v]):
                    last[q] = v
        retire = [0] * n
        for v in last:
            if v is not None:
                retire[v] += 1
        gates_of: list[list[int]] = [[] for _ in range(self.n_qubits)]
        for v, (a, b) in enumerate(self.gates):
            gates_of[a].append(v)
            gates_of[b].append(v)
        return tuple(map(tuple, succ)), tuple(indeg), tuple(last), tuple(retire), tuple(map(tuple, gates_of))

    @cached_property
    def _roots(self) -> tuple[tuple[int, ...], tuple[int | None, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The greedy sampler's start: the gates of in-degree 0 in index
        order, each gate's score (None unless ready) and rank in that list,
        and the ranks per score + 4.  Tuples, so no order can change them."""
        _, indeg, _, retire, _ = self._dag
        ready = [i for i, d in enumerate(indeg) if not d]
        score: list[int | None] = [None] * len(self.gates)
        rank, buckets = [0] * len(self.gates), [[] for _ in range(7)]
        for k, v in enumerate(ready):
            score[v], rank[v] = 2 - 2 * retire[v], k  # nothing is woken yet
            buckets[score[v] + 4].append(k)
        return tuple(ready), tuple(score), tuple(rank), tuple(map(tuple, buckets))

    def _topological_order(self, rng: np.random.Generator, bound: float = math.inf) -> list[int] | None:
        """A random greedy linear extension of the precedence DAG, or None as
        soon as its live-qubit count, counted as in ``order_metrics``, passes
        ``bound``: the running peak never falls, so the order is wider.

        Each step places one of the best-scoring ready gates, scored to keep
        the live-qubit window narrow: +1 per qubit the gate wakes, -2 per
        flag it retires, so ties break randomly and repeated calls sample
        different low-width schedules.  One ``rng.random(len(gates))`` draw
        serves the whole order, stopped or not: step s places candidate
        ``int(u[s] * n)`` of its n candidates.  Ready gates sit in one list
        per score, in [-4, 2], each in ready-list order; a waking qubit
        rescores only its own ready gates.  Every order starts from copies
        of the cached ``_roots``, so a stopped order costs only its own
        steps and leaves nothing behind for the next.
        """
        succ, indeg0, _, retire, gates_of = self._dag
        gates = self.gates
        indeg = list(indeg0)
        ready, score, rank, buckets = self._roots
        ready, score, rank = list(ready), list(score), list(rank)  # ready only grows: a position is a rank
        buckets = [list(pool) for pool in buckets]  # score + 4 -> ranks
        order = []
        u = rng.random(len(gates)).tolist()  # one uniform per placed gate
        woken = [False] * self.n_qubits
        alive = 0
        for draw in u:
            for pool in buckets:
                if pool:
                    break
            node = ready[pool.pop(int(draw * len(pool)))]
            score[node] = None
            order.append(node)
            for q in gates[node]:
                if not woken[q]:
                    woken[q] = True
                    alive += 1
                    for v in gates_of[q]:
                        if (s := score[v]) is not None:
                            pool = buckets[s + 4]
                            del pool[bisect_left(pool, rank[v])]
                            insort(buckets[s + 3], rank[v])
                            score[v] = s - 1
            if alive > bound:
                return None
            alive -= retire[node]
            for v in succ[node]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    x, y = gates[v]
                    score[v], rank[v] = (not woken[x]) + (not woken[y]) - 2 * retire[v], len(ready)
                    buckets[score[v] + 4].append(len(ready))
                    ready.append(v)
        return order

    def order_metrics(self, order: list[int]) -> tuple[int, int]:
        """(max_simultaneous_qubits, depth) of ``schedule(order)``, computed
        from the order alone, for a linear extension ``order`` of the DAG."""
        retire = self._dag[3]
        woken = [False] * self.n_qubits
        layer = [0] * self.n_qubits
        n_woken = alive = peak = depth = 0
        gates = self.gates
        # The two qubits of a gate are handled one by one, unrolled: this
        # loop runs once per gate of every sampled order.
        for node in order:
            a, b = gates[node]
            if not woken[a]:
                woken[a] = True
                n_woken += 1
                alive += 1
            if not woken[b]:
                woken[b] = True
                n_woken += 1
                alive += 1
            if alive > peak:
                peak = alive
            la, lb = layer[a], layer[b]
            lay = (la if la > lb else lb) + 1
            layer[a] = layer[b] = lay
            if lay > depth:
                depth = lay
            alive -= retire[node]
        # Qubits no gate touches are initialized after the last gate.
        return max(peak, alive + self.n_qubits - n_woken), depth

    def tight_order(self) -> list[int]:
        """Schedule edges strictly in priority order, opening each gadget's
        bracket gates as late as its next edge requires and retiring flags
        as soon as a closing run allows.  Minimizes the live-qubit window
        the edge priority admits.

        One stable sort by a static key: an edge sorts by its priority; a
        private gate in the run of flag-retiring gates just after its
        chain's previous edge sorts right after that edge, any other just
        before its chain's next edge, or last.  Private gates are numbered
        chain by chain in chain order, so ties keep chain order.
        """
        prio, n_e = self.edge_priority, self.n_edges
        retire = self._dag[3]
        key = [(p, 0) for p in prio] + [(n_e, 0)] * (len(self.gates) - n_e)
        for chain in self.chains:
            after = None  # the previous edge's priority while its retiring run lasts
            waiting = []  # private gates placed before the chain's next edge
            for v in chain:
                if v < n_e:
                    for w in waiting:
                        key[w] = (prio[v], -1)
                    after, waiting = prio[v], []
                elif after is not None and retire[v]:
                    key[v] = (after, 1)
                else:
                    after = None
                    waiting.append(v)
        return sorted(range(len(self.gates)), key=key.__getitem__)


def certified_z_override(state: CssState) -> int | None:
    """Largest legitimate Z-gadget downgrade for the state, or None.

    Z-detecting gadgets only need to handle f < W faults when every Z error
    reduces to weight at most W modulo the Z-type stabilizers and the
    state-stabilizing logicals; combinations of f >= W faults satisfy the
    fault-tolerance bound automatically.  Returns min(t, W - 1), or None
    when the coset enumeration is infeasible.
    """
    try:
        w = max_coset_weight(state, "Z")
    except GroupTooLargeError:
        return None
    return min(state.t, max(w - 1, 0))


def assemble_ft_circuit(
    state: CssState,
    bip: BipartiteCircuit,
    library: GadgetLibrary,
    z_gadget_t_override: int | None = None,
    seed: int = 0,
    width_anneal: int = 0,
    use_trivial_gadgets: bool = True,
    allow_uncertified_override: bool = False,
) -> AssembledCircuit:
    """Fuse ``bip`` with per-qubit flag gadgets into one FT circuit.

    X-detecting gadgets protect every control at the full fault count
    t = d // 2; Z-detecting gadgets protect targets at ``t`` or at the
    requested override.  The override must be certified by the coset bound:
    every Z error must reduce to weight <= override + 1 modulo the Z-type
    stabilizer group of the state.  An override of 0 drops Z gadgets
    entirely (legitimate for codes whose Z errors all reduce to weight 1).

    With ``use_trivial_gadgets`` (the default), qubits whose bare entangling
    chain already passes the gadget fault-tolerance test (degree <= 2) get
    no flags; disabling it forces a flagged gadget on every qubit.

    ``width_anneal`` > 0 anneals the global edge priority for that many
    steps to shrink the peak number of simultaneously live qubits before
    the chains are built (gadget flag windows track their edge windows).
    Raises ValueError for a negative ``width_anneal``.
    """
    if width_anneal < 0:
        raise ValueError(f"width_anneal {width_anneal} is negative")
    t_z = state.t
    if z_gadget_t_override is not None:
        if z_gadget_t_override < 0:
            raise ValueError(f"Z gadget override {z_gadget_t_override} is negative")
        if not allow_uncertified_override:
            cert = certified_z_override(state)
            if z_gadget_t_override < state.t and (cert is None or z_gadget_t_override < cert):
                bound = "is past the enumeration cap" if cert is None else f"allows {cert}"
                raise OverrideNotCertifiedError(
                    f"override {z_gadget_t_override} not certified (coset bound {bound})"
                )
        t_z = min(z_gadget_t_override, state.t)

    def pick_gadget(t_side: int, degree: int) -> FlagGadget:
        # With at most two slots the bare chain passes for every t >= 1: a
        # residual on at most three qubits reduces to weight <= 1.
        if use_trivial_gadgets and degree <= 2:
            return trivial_gadget(t_side, degree)
        return library.get(t_side, degree)

    edges = sorted(bip.edges)
    placed = _placements(edges, bip, pick_gadget, state.t, t_z)
    rng = np.random.default_rng(seed)
    if width_anneal > 0:
        priority = _anneal_priority(len(edges), _width_windows(edges, placed), width_anneal, rng)
    else:
        priority = rng.permutation(len(edges)).tolist()
    return _fuse(bip, edges, placed, priority)


def _placements(
    edges: list[tuple[int, int]], bip: BipartiteCircuit, pick_gadget, t_x: int, t_z: int
) -> list[tuple[int, bool, list[int], FlagGadget]]:
    """Per protected code qubit, (qubit, detects Z, its edge ids, its X
    gadget): sorted controls first, then sorted targets.  A side with t = 0
    and a qubit without edges get no gadget."""
    placed = []
    for side, qubits, t_side in ((0, bip.controls, t_x), (1, bip.targets, t_z)):
        if t_side < 1:
            continue
        for q in sorted(qubits):
            mine = [i for i, e in enumerate(edges) if e[side] == q]
            if mine:
                placed.append((q, side == 1, mine, pick_gadget(t_side, len(mine))))
    return placed


def _flag_spans(gadget: FlagGadget) -> list[tuple[int, int]]:
    """Per flag of an X gadget, the (first, last) index among its entangling
    slots that the flag is live over under tight scheduling of its two
    coupled gates."""
    deg = gadget.r
    slot_counter = 0
    first_seen: dict[int, int] = {}
    last_seen: dict[int, int] = {}
    for a, b in gadget.gates:
        for f in (a, b):
            if f > deg:
                first_seen.setdefault(f, slot_counter)
                last_seen[f] = slot_counter
        if 1 <= b <= deg:  # a slot is a CX onto a target
            slot_counter += 1
    spans = []
    for f in gadget.flag_labels:
        lo = min(first_seen[f], deg - 1)
        spans.append((lo, max(last_seen[f] - 1, lo)))
    return spans


def _width_windows(
    edges: list[tuple[int, int]], placed: list[tuple[int, bool, list[int], FlagGadget]]
) -> list[tuple[list[int], list[int], list[int]]]:
    """Per code qubit with edges, (its edge ids, opens per rank, closes per
    rank), where rank r is its r-th edge in the order.  The qubit wakes at
    rank 0 and stays live to the end; a flag of its gadget with span
    (lo, hi) opens at rank lo and closes just after rank hi.  A qubit
    without a gadget has only its wake."""
    spans = {q: _flag_spans(gadget) for q, _, _, gadget in placed}
    mine: dict[int, list[int]] = {}
    for i, edge in enumerate(edges):
        for q in edge:
            mine.setdefault(q, []).append(i)
    windows = []
    for q, ids in mine.items():
        opens, closes = [1] + [0] * (len(ids) - 1), [0] * len(ids)
        for lo, hi in spans.get(q, ()):
            opens[lo] += 1
            closes[hi] += 1
        windows.append((ids, opens, closes))
    return windows


def _anneal_priority(n_e: int, windows: list, steps: int, rng: np.random.Generator) -> list[int]:
    """Anneal the order of ``n_e`` edges to minimize estimated peak width.

    ``windows`` come from ``_width_windows``.  The estimate tracks the true
    scheduled width closely because every gadget's bracket gates can be
    placed tight around its window.  Step s reads row s of
    ``rng.random((steps, 3))``, drawn in blocks of at most 512 rows (the
    same stream as one ``rng.random(3)`` per step): the two swap positions
    and the acceptance coin.  A step whose two positions coincide swaps
    nothing and leaves the temperature as it is.  ``_WidthModel`` packs
    the width profile into one int and keeps each window's share of it, so
    a step re-sums the events of the at most four windows the swap moves
    and runs a few threshold tests, not a pass over every edge position.
    """
    model = _WidthModel(windows, rng.permutation(n_e).tolist())
    best = cur = model.width
    best_order = list(model.order)
    temp = 3.0
    for start in range(0, steps, 512):
        for a, b, coin in rng.random((min(512, steps - start), 3)).tolist():
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

    ``slots[w]`` holds window w's edge positions, sorted: its rank-r edge
    sits at ``slots[w][r]``.  Each edge lies in exactly two windows, its
    control's and its target's: ``windows_of``.

    The live count at every edge position is packed into one int, ``W``:
    field p, ``bits`` wide, holds the opens at positions <= p minus the
    closes just after positions < p.  ``bits`` leaves the top bit of a field
    above the total opens, so no field carries into the next.  With
    ``up[s]`` a 1 in every field from s on (``up[n_e]`` is 0), a rank that
    opens o and closes c at slot s adds ``o * up[s] - c * up[s + 1]``, the
    entry s of its ``(o, c)`` table.  ``events[w]`` lists ``(rank, table)``
    for the ranks of window w that open or close something, ``part[w]`` is
    their sum at the window's slots, and ``W`` is the sum of the parts.
    ``width`` is the peak field, found by threshold tests: some field
    exceeds t exactly when ``W + bias[t]`` sets a top bit (``high``), where
    ``bias[t]`` adds 2^(bits-1) - 1 - t to every field (Lamport, CACM 18(8),
    1975).
    """

    def __init__(self, windows: list, order: list[int]) -> None:
        self.order = order
        n_e = len(order)
        self.pos = pos = [0] * n_e
        for p, e in enumerate(order):
            pos[e] = p
        n_opens = sum(sum(opens) for _, opens, _ in windows)
        self.bits = b = n_opens.bit_length() + 1
        ones = ((1 << b * n_e) - 1) // ((1 << b) - 1)
        up = [ones >> b * s << b * s for s in range(n_e + 1)]
        self.high = ones << b - 1
        self.bias = [((1 << b - 1) - 1 - t) * ones for t in range(n_opens + 1)]
        pairs = {oc for _, opens, closes in windows for oc in zip(opens, closes) if any(oc)}
        tables = {(o, c): [o * up[s] - c * up[s + 1] for s in range(n_e)] for o, c in pairs}
        self.events = [
            [(r, tables[oc]) for r, oc in enumerate(zip(opens, closes)) if any(oc)]
            for _, opens, closes in windows
        ]
        self.slots = [sorted([pos[i] for i in mine]) for mine, _, _ in windows]
        self.part = [sum(table[slots[r]] for r, table in ev) for slots, ev in zip(self.slots, self.events)]
        self.W = sum(self.part)
        of: list[list[int]] = [[] for _ in order]
        for w, (mine, _, _) in enumerate(windows):
            for i in mine:
                of[i].append(w)
        self.windows_of = [(c, t) for c, t in of]
        self.width = self.peak(0)

    def peak(self, t: int) -> int:
        """The peak field of ``W``, searched from ``t`` up or down: two
        tests when the peak is t or t + 1 (one at t = 0), one more per
        further step."""
        W, high, bias = self.W, self.high, self.bias
        if (W + bias[t]) & high:
            t += 1
            while (W + bias[t]) & high:
                t += 1
            return t
        while t and not (W + bias[t - 1]) & high:
            t -= 1
        return t

    def swap(self, i: int, j: int) -> int:
        """Swap the edges at positions ``i`` and ``j``; return the new peak.

        Only the windows holding exactly one of the two edges change: each
        moves that edge's slot from src to dst in its sorted slot list and
        re-sums its own events, and ``W`` changes by its part's difference.
        ``undo`` moves the slots back and restores the parts, ``W`` and
        ``width``.
        """
        order, pos = self.order, self.pos
        ei, ej = order[i], order[j]
        order[i], order[j] = ej, ei
        pos[ei], pos[ej] = j, i
        all_slots, events, part = self.slots, self.events, self.part
        W = self.W
        moved = []
        of_i, of_j = self.windows_of[ei], self.windows_of[ej]
        moves = ((of_i[0], i, j, of_j), (of_i[1], i, j, of_j), (of_j[0], j, i, of_i), (of_j[1], j, i, of_i))
        for w, src, dst, shared in moves:
            if w in shared:
                continue
            slots = all_slots[w]
            slots.remove(src)
            insort(slots, dst)
            new = 0
            for r, table in events[w]:
                new += table[slots[r]]
            W += new - part[w]
            moved.append((slots, src, dst, w, part[w]))
            part[w] = new
        self._saved = (i, j, self.W, self.width, moved)
        self.W = W
        self.width = w = self.peak(self.width)
        return w

    def undo(self) -> None:
        """Revert the last swap: move the slots back, restore the moved
        windows' parts, ``W`` and ``width``, and swap the two edges back."""
        i, j, self.W, self.width, moved = self._saved
        part = self.part
        for slots, src, dst, w, old in moved:
            slots.remove(dst)
            insort(slots, src)
            part[w] = old
        order, pos = self.order, self.pos
        ei, ej = order[i], order[j]
        order[i], order[j] = ej, ei
        pos[ei], pos[ej] = j, i


def _fuse(
    bip: BipartiteCircuit,
    edges: list[tuple[int, int]],
    placed: list[tuple[int, bool, list[int], FlagGadget]],
    priority: list[int],
) -> AssembledCircuit:
    """Place every gadget on its qubit; a Z gadget is its X gadget mirrored.

    Every gadget fills its entangling slots, in gadget-time order, with its
    qubit's edges in global priority order, so all chains are subsequences
    of one linear order and the precedence graph is acyclic by
    construction, not checked.  An X gadget's slot gate becomes its edge
    with the control replaced by the gadget's control-side label; mirrored,
    the edge's target is replaced.  Private gates are numbered gadget by
    gadget in chain order, which ``tight_order`` breaks its ties by.
    """
    code_index: list[int | None] = sorted(bip.controls) + sorted(bip.targets)
    wire = {q: i for i, q in enumerate(code_index)}
    plus = [True] * len(bip.controls) + [False] * len(bip.targets)
    # Edge gates first, on the bare code qubits; private gates follow.
    gates = [(wire[c], wire[q]) for c, q in edges]
    chains: list[tuple[int, ...]] = []
    for q, detects_z, mine, gadget in placed:
        # Gadget label -> circuit qubit; slot labels (1..r) are never read.
        flags = range(len(code_index), len(code_index) + gadget.m)
        label = [wire[q]] * (gadget.r + 1) + [*flags]
        code_index += [None] * gadget.m
        plus += [detects_z] * gadget.m
        slots = iter(sorted(mine, key=priority.__getitem__))
        chain = []
        for a, b in gadget.gates:
            if 1 <= b <= gadget.r:
                node = next(slots)
                c, t = gates[node]
                gates[node] = (c, label[a]) if detects_z else (label[a], t)
            else:
                node = len(gates)
                gates.append((label[b], label[a]) if detects_z else (label[a], label[b]))
            chain.append(node)
        chains.append(tuple(chain))

    return AssembledCircuit(
        code_index=tuple(code_index),
        plus=tuple(plus),
        gates=tuple(gates),
        chains=tuple(chains),
        n_edges=len(edges),
        edge_priority=tuple(priority),
    )


def schedule_circuit(
    assembled: AssembledCircuit,
    objective: str = "min_max_qubits",
    shuffles: int = 1,
    seed: int = 0,
) -> Circuit:
    """The narrowest schedule over the tight order and ``shuffles - 1``
    greedy linear extensions of the DAG, ties broken by depth.

    Fault tolerance is order-invariant because every order respects the
    gadget-internal precedence chains, so the order serves width alone.
    The tight order, the narrowest window the edge priority admits, is
    scored first; each sampled order is bounded by the best width so far
    and stops, unfinished, once it is wider: it cannot win.  Finished
    orders are compared by ``AssembledCircuit.order_metrics``; only the
    winning order is built into a ``Circuit``.  Every order draws its whole
    vector of uniforms, so the RNG stream does not depend on where orders
    stop.  ``objective`` must be ``min_max_qubits``, the only one; it stays
    so that existing callers keep their signature.  ``shuffles`` 0 samples
    as 1 does (the tight order alone); a negative one raises ValueError.
    """
    if objective != "min_max_qubits":
        raise ValueError(f"unknown objective {objective!r}")
    if shuffles < 0:
        raise ValueError(f"shuffles {shuffles} is negative")
    rng = np.random.default_rng(seed)
    best = assembled.tight_order()
    best_val = assembled.order_metrics(best)
    for _ in range(1, shuffles):
        order = assembled._topological_order(rng, best_val[0])
        if order is not None and (val := assembled.order_metrics(order)) < best_val:
            best, best_val = order, val
    return assembled.schedule(best)


def circuit_metrics(circuit: Circuit) -> CircuitMetrics:
    """Size metrics of a scheduled circuit.

    Depth counts two-qubit gates in a greedy layering that respects gate
    order and qubit disjointness; single-qubit operations are free.  The
    simultaneous-qubit count assumes a qubit is live from its initialization
    until its measurement, with immediate reuse after measurement.
    """
    cx = 0
    flags = 0
    layer_free: dict[int, int] = {}
    depth = 0
    alive = 0
    peak = 0
    for op in circuit.ops:
        if isinstance(op, Init):
            alive += 1
            peak = max(peak, alive)
        elif isinstance(op, CXGate):
            cx += 1
            layer = max(layer_free.get(op.control, 0), layer_free.get(op.target, 0)) + 1
            layer_free[op.control] = layer
            layer_free[op.target] = layer
            depth = max(depth, layer)
        elif isinstance(op, FlagMeasure):
            flags += 1
            alive -= 1
    return CircuitMetrics(cx, flags, depth, peak)
