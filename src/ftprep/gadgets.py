"""Flag gadget discovery: the right-to-left backtracking search.

An X-detecting flag gadget protects one control qubit ``c`` connected to
``r`` target qubits against up to ``t`` X-type faults.  Gadgets are built
from the temporal end backwards: each accepted gate is prepended in time,
and the partial circuit is re-tested for fault tolerance after every
prepend.  A combination of ``f <= t`` faults passes if it flips at least one
flag measurement or leaves a residual of weight <= f on {c} + targets after
reduction modulo the full-support stabilizer X_c X_t1 ... X_tr.

With c in |+> and the targets and flags in |0>, a gadget prepares the
(r+1)-qubit GHZ state, whose one X stabilizer is X_c X_t1 ... X_tr, so
``gadget_ft_test`` is the verifier's X check of that circuit, for r <= 64
(one key bit per target).  The search runs an incremental form of the same
test inline in its loop (:func:`discover_gadget`).

Qubit labels inside a gadget: 0 is the protected qubit, 1..r the targets,
r+1..r+m the flags.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .circuit import Circuit, CXGate, FlagMeasure, Init, Operation
from .css import CssState
from .verify import verify_fault_tolerance

FOUND = "found"
SEARCH_EXHAUSTED = "exhausted"
BUDGET_EXHAUSTED = "budget"
NODE_BUDGET = 2_000_000  # default cap on one search's gate placements


@dataclass(frozen=True)
class FlagGadget:
    """A fault-tolerant X-detecting flag gadget.

    ``gates`` is the CX list in time order over gadget-local labels.  Flags
    start in |0> and are measured in Z.  The Z-detecting gadget protecting a
    target is this one Hadamard-conjugated (every CX reversed), which
    assembly places directly; it is never stored.
    """

    t: int
    r: int
    m: int
    gates: tuple[tuple[int, int], ...]

    @property
    def flag_labels(self) -> range:
        return range(self.r + 1, self.r + 1 + self.m)

    def entangling_gate_index(self, target_label: int) -> int:
        """Index into ``gates`` of the unique gate touching a target label."""
        hits = [
            i for i, (a, b) in enumerate(self.gates) if target_label in (a, b)
        ]
        if len(hits) != 1:
            raise ValueError(f"target label {target_label} appears in {len(hits)} gates")
        return hits[0]

    def validate(self) -> None:
        """Check the structural gadget invariants and flag determinism.

        Needs t, r >= 1 and m >= 0; every gate's control is c or a flag
        other than its target.  The flags are deterministic when no X from
        c or a target reaches a flag (:func:`_flags_deterministic`).
        """
        if self.t < 1 or self.r < 1 or self.m < 0:
            raise ValueError(f"require t, r >= 1 and m >= 0, got t={self.t} r={self.r} m={self.m}")
        top = self.r + self.m
        for gate in self.gates:
            if not all(0 <= q <= top for q in gate):
                raise ValueError(f"gate {gate} has a label outside 0..{top}")
            if 1 <= gate[0] <= self.r or gate[0] == gate[1]:
                raise ValueError(f"gate {gate}: the control must be c or a flag, not the target")
        for i in range(1, self.r + 1):
            if self.gates[self.entangling_gate_index(i)][1] != i:
                raise ValueError(f"target label {i} is not the target of its CX")
        # Each flag is the target of exactly two CX gates (entangle and
        # disentangle); it may additionally control entangling gates once
        # GHZ-connected.
        for f in self.flag_labels:
            uses = sum(1 for _, b in self.gates if b == f)
            if uses != 2:
                raise ValueError(f"flag label {f} is the target of {uses} CX gates, expected 2")
        if len(self.gates) != self.r + 2 * self.m:
            raise ValueError("gate count differs from r + 2m")
        if not _flags_deterministic(self):
            raise ValueError("flag measurements are not deterministic")


def trivial_gadget(t: int, r: int) -> FlagGadget:
    """The zero-flag gadget: the bare entangling chain, for r <= 2 targets.

    With one or two targets every residual reduces, modulo the full-support
    stabilizer, to weight at most one, so the chain passes at every t.  From
    three targets on, an X on c after gate k (2 <= k <= r-1) leaves the
    undetected residual c + t_{k+1} ... t_r of reduced weight
    min(k, r+1-k) >= 2, so no t passes.
    """
    if r > 2:
        raise ValueError(f"no trivial gadget: the bare chain fails at t={t}, r={r}")
    return FlagGadget(t, r, 0, tuple((0, i) for i in range(1, r + 1)))


def ghz_preparation(gadget: FlagGadget) -> tuple[Circuit, CssState]:
    """The gadget as the circuit that prepares the (r+1)-qubit GHZ state.

    c starts in |+>, the targets and flags in |0>; the gadget's CX follow in
    time order, then every flag label r+1..r+m is measured in Z (outcomes
    0..m-1).  Circuit qubits 0..r are the GHZ state's qubits.  The state
    has the X stabilizer X_c X_t1 ... X_tr, the Z stabilizers Z_i Z_{i+1}
    and no logicals, with d = 2t+1.
    """
    r, n = gadget.r, 1 + gadget.r + gadget.m
    ops: list[Operation] = [Init(0, "+"), *(Init(q, "0") for q in range(1, n))]
    ops += [CXGate(a, b) for a, b in gadget.gates]
    ops += [FlagMeasure(f, "Z") for f in gadget.flag_labels]
    circuit = Circuit(tuple(range(r + 1)) + (None,) * gadget.m, tuple(ops))
    ghz = CssState(
        name=f"ghz{r + 1}",
        n=r + 1,
        k=0,
        d=2 * gadget.t + 1,
        x_stabilizers=((1 << (r + 1)) - 1,),
        z_stabilizers=tuple(3 << i for i in range(r)),
        logical_x=(),
        logical_z=(),
    )
    return circuit, ghz


def gadget_ft_test(gadget: FlagGadget) -> bool:
    """Fault-tolerance test for a (partial) gadget: X verification of its
    :func:`ghz_preparation` at the gadget's t.

    The GHZ coset key of an X residual e is e modulo the all-ones vector,
    so the verifier's reduced weight is min(|e|, r+1-|e|).  The structure
    is not checked, so a partial gate list can be tested as
    ``FlagGadget(t, r, m, gates)``.  The key holds one syndrome bit per
    target, so r > 64 raises the key-width ValueError of
    :func:`css.coset_key_columns` (the bundled library's largest r is 16).
    """
    circuit, ghz = ghz_preparation(gadget)
    return verify_fault_tolerance(circuit, ghz, gadget.t, "X") is None


@dataclass
class SearchResult:
    status: str  # FOUND | SEARCH_EXHAUSTED | BUDGET_EXHAUSTED
    gadget: FlagGadget | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.status == FOUND


class _Pool(NamedTuple):
    """One search state's candidates, in priority order.

    ``state`` is (targets entangled, next unused flag, cluster), the
    cluster being c and then the entangled flags in label order.  Flags are
    entangled lowest label first, so every label below the next unused flag
    is entangled or retired and every label from it up is unused.
    ``links[i]`` stays None until the search keeps ``gates[i]``, then holds
    that child's pool and the indices of the candidates it tries.
    """

    state: tuple[int, int, tuple[int, ...]]
    gates: list[tuple[int, int]]
    links: list[tuple[_Pool, tuple[int, ...]] | None]


def discover_gadget(
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
    entangled flag.  A candidate is kept only if the extended circuit stays
    fault-tolerant, tested incrementally as below for every t.  Success
    requires every target entangled, every flag used and disentangled, and
    deterministic flag measurements.

    A node's pool depends only on its state: the next target (if any), the
    next unused flag (if any) and the entangled cluster.  So each state's
    pool is built once per call, in a dict local to the call, and so is
    each kept candidate's link to its child: the child's pool and the
    candidates it tries.  The link holds the partial-order reduction: a
    child candidate that the parent's pool lists up to the kept gate, and
    that shares no qubit with it, swaps two commuting gates whose other
    order was explored first, so the child skips it.  A skipped candidate
    is not a node.

    The fault-tolerance test keeps the propagated signature of every fault
    variant as a python int (code bits low, flag bits high).  Prepending a
    gate never changes existing signatures, so each step only has to test
    the combinations involving the gate's new patterns, which share one
    location.  The search also keeps the circuit's X-frame transfer map
    (column q = image of an X on qubit q injected at the current temporal
    front), so a prepended gate's patterns are read off directly: an X on
    qubit q right after it propagates to ``transfer[q]``, and XX (an X on
    the control before the gate, copied onto its target) to the XOR of both
    columns.

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
    part is 0.  A kept gate's new patterns are committed into the levels
    top-down, so every level read during a commit still predates the gate:
    a combination holding two of its patterns would only repeat a smaller
    one.

    The search is one loop over a stack of frames, one per kept gate: the
    parent's pool and candidate iterator, the gate, its control's old
    column and the buckets the commit appended to, which undoing the gate
    pops.  The kept gates, last in time first, are the frames' gates.

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

    flag_mask = ((1 << m) - 1) << (r + 1)
    levels: list[dict[int, list[int]]] = [{0: [0]}] + [{} for _ in range(1, t)]
    # f = 1 and f = 2 are tested inline; (f, level f-1, r+1-f) for f >= 3.
    level1 = levels[1] if t > 1 else {}
    checks = [(f, levels[f - 1], r + 1 - f) for f in range(3, t + 1)]
    commits = [(levels[k - 1], levels[k]) for k in range(t - 1, 0, -1)]
    transfer = [1 << q for q in range(end_flag)]
    uses = [0] * end_flag
    frames: list[tuple[_Pool, Iterator[int], int, int, int, list[list[int]]]] = []
    nodes = 0
    node = pool(0, r + 1, (0,))
    todo = iter(range(len(node.gates)))
    while True:
        gates = node.gates
        for i in todo:
            nodes += 1
            if nodes > limit:
                return SearchResult(BUDGET_EXHAUSTED, None, nodes)
            a, b = gates[i]
            fa = transfer[a]
            fb = transfer[b]
            xx = fa ^ fb
            key = xx & flag_mask
            if key == 0 and 1 < xx.bit_count() < r:
                continue
            for o in level1.get(key, ()):
                if 2 < (xx ^ o).bit_count() < r - 1:
                    break
            else:
                for f, level, hi in checks:
                    for o in level.get(key, ()):
                        if f < (xx ^ o).bit_count() < hi:
                            break
                    else:
                        continue
                    break
                else:
                    break  # keep gates[i]
        else:  # every candidate tried: undo the last kept gate
            if not frames:
                return SearchResult(SEARCH_EXHAUSTED, None, nodes)
            node, todo, a, b, fa, added = frames.pop()
            for bucket in added:
                bucket.pop()
            uses[a] -= 1
            uses[b] -= 1
            transfer[a] = fa
            continue

        # Commit XX and the patterns on untouched qubits.
        new = [xx]
        if not uses[a]:
            new.append(fa)
        if not uses[b]:
            new.append(fb)
        added = []
        for source, target in commits:
            for bucket in source.values():
                for o in bucket:
                    for s in new:
                        x = s ^ o
                        tb = target.get(x & flag_mask)
                        if tb is None:
                            tb = target[x & flag_mask] = []
                        tb.append(x)
                        added.append(tb)
        frames.append((node, todo, a, b, fa, added))
        uses[a] += 1
        uses[b] += 1
        transfer[a] = xx
        node, child_todo = node.links[i] or link(node, i)
        todo = iter(child_todo)
        if not node.gates:  # every target entangled, every flag used and retired
            gadget = FlagGadget(t, r, m, tuple(frame[2:4] for frame in reversed(frames)))
            if _flags_deterministic(gadget):
                gadget.validate()
                return SearchResult(FOUND, gadget, nodes)


def _flags_deterministic(gadget: FlagGadget) -> bool:
    """Noiseless soundness: every flag measurement must be deterministic.

    One forward X sweep tracks, for each wire, the initial wires whose X
    reaches it (a CX XORs its control's set into its target's).  A flag's
    Z outcome is the parity of those initial wires' values; the gadget must
    work with its control and target wires in arbitrary external states,
    so it is deterministic exactly when no X from c or a target reaches a
    flag.  Teleport-style circuits fail this and are rejected at success
    time.
    """
    src = [1 << q for q in range(gadget.r + 1 + gadget.m)]
    for a, b in gadget.gates:
        src[b] ^= src[a]
    data = (1 << (gadget.r + 1)) - 1
    return not any(src[f] & data for f in gadget.flag_labels)
