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

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .bipartite import BipartiteCircuit
from .circuit import Circuit, CXGate, FlagMeasure, Init
from .css import CssState, GroupTooLargeError, max_coset_weight
from .gadgets import FlagGadget, trivial_gadget
from .library import GadgetLibrary


class MissingGadgetError(KeyError):
    """The library lacks a gadget size required by the assembly."""


class CyclicPrecedenceError(RuntimeError):
    """The gadget chains form a precedence cycle, so no schedule exists."""


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
        last_touch: dict[int, int] = {}
        for pos, node in enumerate(order):
            for q in self.gates[node]:
                last_touch[q] = pos
        plus = self.plus
        ops = []
        inited: set[int] = set()
        outcome = 0
        for pos, node in enumerate(order):
            a, b = self.gates[node]
            for q in (a, b):
                if q not in inited:
                    ops.append(Init(q, "+" if plus[q] else "0"))
                    inited.add(q)
            ops.append(CXGate(a, b))
            for q in (a, b):
                if self.code_index[q] is None and last_touch[q] == pos:
                    ops.append(FlagMeasure(q, "X" if plus[q] else "Z", outcome))
                    outcome += 1
        for q in range(self.n_qubits):
            if q not in inited:
                ops.append(Init(q, "+" if plus[q] else "0"))
        return Circuit(self.code_index, tuple(ops))

    @cached_property
    def _dag(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...], tuple[bool, ...]]:
        """Successors and in-degree per gate, gate count and flag bit per
        qubit; built once per circuit and shared by every sampled order."""
        n = len(self.gates)
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for chain in self.chains:
            for u, v in zip(chain, chain[1:]):
                succ[u].append(v)
                indeg[v] += 1
        uses = [0] * self.n_qubits
        for a, b in self.gates:
            uses[a] += 1
            uses[b] += 1
        flag = tuple(ci is None for ci in self.code_index)
        return tuple(map(tuple, succ)), tuple(indeg), tuple(uses), flag

    def _topological_order(
        self, rng: np.random.Generator | None = None, greedy: bool = False
    ) -> list[int]:
        """A linear extension of the precedence DAG.

        With ``greedy`` set, ready gates are scored to keep the live-qubit
        window narrow: retiring a flag is rewarded, waking a fresh qubit is
        penalized, and ties break randomly so repeated calls sample
        different low-width schedules.  A draw from a single candidate is
        skipped: ``rng.integers(0, 1)`` consumes no random bits.
        """
        succ, indeg0, uses0, flag = self._dag
        gates = self.gates
        indeg = list(indeg0)
        ready = [i for i in range(len(gates)) if indeg[i] == 0]
        order = []
        if greedy:
            assert rng is not None
            uses = list(uses0)
            # Per-qubit score term: +1 while the qubit must still be woken,
            # -2 while its next gate is a flag's last; a gate scores the sum
            # over its two qubits, so placing a gate rescores only the ready
            # gates on its qubits.
            qscore = [1 - 2 * (f and u == 1) for f, u in zip(flag, uses)]
            scores = [qscore[gates[v][0]] + qscore[gates[v][1]] for v in ready]
            # Number of ready gates per qubit: a qubit whose other gates all
            # sit in one chain never has a ready gate left to rescore.
            n_ready = [0] * self.n_qubits
            for v in ready:
                for q in gates[v]:
                    n_ready[q] += 1
            while ready:
                best_s = min(scores)
                n_best = scores.count(best_s)
                # The pick-th best-scoring gate in ready-list order.
                pick = int(rng.integers(0, n_best)) if n_best > 1 else 0
                k = scores.index(best_s)
                for _ in range(pick):
                    k = scores.index(best_s, k + 1)
                node = ready[k]
                del ready[k], scores[k]
                order.append(node)
                for q in gates[node]:
                    uses[q] -= 1
                    n_ready[q] -= 1
                    s = -2 if flag[q] and uses[q] == 1 else 0
                    if s != qscore[q]:
                        qscore[q] = s
                        if not n_ready[q]:
                            continue
                        for k, v in enumerate(ready):
                            x, y = gates[v]
                            if x == q or y == q:
                                scores[k] = qscore[x] + qscore[y]
                for v in succ[node]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        ready.append(v)
                        x, y = gates[v]
                        scores.append(qscore[x] + qscore[y])
                        n_ready[x] += 1
                        n_ready[y] += 1
        else:
            while ready:
                if rng is None or len(ready) == 1:
                    node = ready.pop()
                else:
                    node = ready.pop(int(rng.integers(0, len(ready))))
                order.append(node)
                for v in succ[node]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        ready.append(v)
        if len(order) != len(gates):
            raise CyclicPrecedenceError("gadget chains form a precedence cycle")
        return order

    def order_metrics(self, order: list[int]) -> tuple[int, int]:
        """(max_simultaneous_qubits, depth) of ``schedule(order)``, computed
        from the order alone, for a linear extension ``order`` of the DAG."""
        _, _, uses0, flag = self._dag
        uses = list(uses0)
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
            uses[a] -= 1
            uses[b] -= 1
            if flag[a] and not uses[a]:
                alive -= 1
            if flag[b] and not uses[b]:
                alive -= 1
        # Qubits no gate touches are initialized after the last gate.
        return max(peak, alive + self.n_qubits - n_woken), depth

    def tight_order(self) -> list[int]:
        """Schedule edges strictly in priority order, opening each gadget's
        bracket gates as late as its next edge requires and retiring flags
        as soon as a closing run allows.  Minimizes the live-qubit window
        the edge priority admits."""
        n = len(self.gates)
        scheduled = [False] * n
        chain_pos = [0] * len(self.chains)
        chains_of: list[list[int]] = [[] for _ in range(n)]
        for ci, chain in enumerate(self.chains):
            for node in chain:
                chains_of[node].append(ci)
        _, _, uses0, _ = self._dag
        uses = list(uses0)
        order: list[int] = []

        def run(node: int) -> None:
            if scheduled[node]:
                return
            scheduled[node] = True
            order.append(node)
            a, b = self.gates[node]
            uses[a] -= 1
            uses[b] -= 1

        def retiring_run(ci: int) -> None:
            # Execute the maximal upcoming private prefix that only retires.
            chain = self.chains[ci]
            while chain_pos[ci] < len(chain):
                node = chain[chain_pos[ci]]
                if scheduled[node]:
                    chain_pos[ci] += 1
                    continue
                if node < self.n_edges:
                    break
                if not any(self.code_index[q] is None and uses[q] == 1 for q in self.gates[node]):
                    break
                run(node)
                chain_pos[ci] += 1

        edge_order = sorted(range(self.n_edges), key=lambda e: self.edge_priority[e])
        for e in edge_order:
            for ci in chains_of[e]:
                chain = self.chains[ci]
                while True:
                    node = chain[chain_pos[ci]]
                    if scheduled[node]:
                        chain_pos[ci] += 1
                        continue
                    if node == e:
                        break
                    run(node)
                    chain_pos[ci] += 1
            run(e)
            for ci in chains_of[e]:
                chain_pos[ci] += 1
                retiring_run(ci)
        for ci, chain in enumerate(self.chains):
            for node in chain[chain_pos[ci]:]:
                run(node)
        return order


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
    """
    t_z = state.t
    if z_gadget_t_override is not None:
        if z_gadget_t_override < 0:
            raise ValueError(f"Z gadget override {z_gadget_t_override} is negative")
        if not allow_uncertified_override:
            cert = certified_z_override(state)
            if z_gadget_t_override < state.t and (cert is None or z_gadget_t_override < cert):
                raise OverrideNotCertifiedError(
                    f"override {z_gadget_t_override} not certified (coset bound allows {cert})"
                )
        t_z = min(z_gadget_t_override, state.t)

    def pick_gadget(t_side: int, degree: int) -> FlagGadget:
        # With at most two slots the bare chain passes for every t >= 1: a
        # residual on at most three qubits reduces to weight <= 1.
        if use_trivial_gadgets and degree <= 2:
            return trivial_gadget(t_side, degree)
        try:
            return library.get(t_side, degree)
        except Exception as exc:  # noqa: BLE001 - library reports its own reason
            raise MissingGadgetError(f"no gadget for t={t_side}, r={degree}: {exc}") from exc

    edges = sorted(bip.edges)
    placed = _placements(edges, bip, pick_gadget, state.t, t_z)
    rng = np.random.default_rng(seed)
    if width_anneal > 0:
        windows = [(mine, _flag_spans(gadget)) for _, _, mine, gadget in placed]
        priority = _anneal_priority(edges, windows, width_anneal, rng)
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


def _anneal_priority(
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
    can be placed tight around its window.
    """
    n_e = len(edges)
    model = _WidthModel(edges, windows, rng.permutation(n_e).tolist())
    best = cur = model.peak()
    best_order = list(model.order)
    temp = 3.0
    for step in range(steps):
        i, j = rng.integers(0, n_e, size=2).tolist()
        if i == j:
            continue
        w = model.swap(i, j)
        if w <= cur or rng.random() < np.exp((cur - w) / max(temp, 1e-9)):
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


def _fuse(
    bip: BipartiteCircuit,
    edges: list[tuple[int, int]],
    placed: list[tuple[int, bool, list[int], FlagGadget]],
    priority: list[int],
) -> AssembledCircuit:
    """Place every gadget on its qubit; a Z gadget is its X gadget mirrored.

    Every gadget fills its entangling slots, in gadget-time order, with its
    qubit's edges in global priority order, so all chains are subsequences
    of one linear order and the precedence graph is always acyclic.  An
    X gadget's slot gate becomes its edge with the control replaced by the
    gadget's control-side label; mirrored, the edge's target is replaced.
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

    assembled = AssembledCircuit(
        code_index=tuple(code_index),
        plus=tuple(plus),
        gates=tuple(gates),
        chains=tuple(chains),
        n_edges=len(edges),
        edge_priority=tuple(priority),
    )
    assembled._topological_order()  # raises CyclicPrecedenceError on a cycle
    return assembled


def schedule_circuit(
    assembled: AssembledCircuit,
    objective: str = "min_max_qubits",
    shuffles: int = 1,
    seed: int = 0,
) -> Circuit:
    """Best schedule over randomly sampled linear extensions of the DAG.

    ``objective`` is ``min_max_qubits`` or ``min_depth``.  Fault tolerance
    is order-invariant because every sampled order respects the
    gadget-internal precedence chains.  Sampled orders are compared by
    ``AssembledCircuit.order_metrics``; only the winning order is built
    into a ``Circuit``.
    """
    if objective not in ("min_max_qubits", "min_depth"):
        raise ValueError(f"unknown objective {objective!r}")
    rng = np.random.default_rng(seed)
    best: list[int] = []
    best_val: tuple[int, int] | None = None
    for trial in range(max(shuffles, 1)):
        if trial == 0:
            # The tight schedule realizes the narrowest window the edge
            # priority admits; sampled orders then explore alternatives.
            order = assembled.tight_order()
        else:
            greedy = objective == "min_max_qubits" and trial % 4 != 3
            order = assembled._topological_order(rng, greedy=greedy)
        width, depth = assembled.order_metrics(order)
        val = (width, depth) if objective == "min_max_qubits" else (depth, width)
        if best_val is None or val < best_val:
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
