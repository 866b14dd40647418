import hashlib

import numpy as np
import pytest

from ftprep.assemble import (
    CircuitMetrics,
    OverrideNotCertifiedError,
    _flag_spans,
    _placements,
    _WidthModel,
    assemble_ft_circuit,
    certified_z_override,
    circuit_metrics,
    schedule_circuit,
)
from ftprep.bipartite import best_of_trials, synthesize_bipartite
from ftprep.catalog import catalog_names, get_state
from ftprep.circuit import Circuit, CXGate, FlagMeasure, flag_int
from ftprep.css import CssState
from ftprep.gadgets import hadamard_conjugate_gadget, trivial_gadget
from ftprep.library import GadgetLibrary
from ftprep.serialization import serialize_circuit
from ftprep.tableau import tableau_check_circuit
from ftprep.noise import build_effect_tables


@pytest.fixture(scope="module")
def library():
    return GadgetLibrary.bundled()


def bell_state() -> CssState:
    return CssState(
        name="bell",
        n=2,
        k=0,
        d=2,
        x_stabilizers=(0b11,),
        z_stabilizers=(0b11,),
        logical_x=(),
        logical_z=(),
    )


def test_bell_with_flagged_gadgets(library):
    state = bell_state()
    bip = synthesize_bipartite(state, seed=1)
    asm = assemble_ft_circuit(state, bip, library, seed=2, use_trivial_gadgets=False)
    circ = asm.schedule(asm._topological_order())
    m = circuit_metrics(circ)
    assert m.cx_count == 5  # one shared edge plus two CX per flag
    assert m.flag_count == 2
    circ.validate()
    assert tableau_check_circuit(circ, state) is None


def test_steane_paper_scale(library):
    state = get_state("steane")
    bip = best_of_trials(state, 200, 7)
    asm = assemble_ft_circuit(state, bip, library, seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=200, seed=3)
    m = circuit_metrics(circ)
    assert m.cx_count == bip.edge_count + 2 * m.flag_count
    assert m.max_simultaneous_qubits <= 8 + m.flag_count
    assert tableau_check_circuit(circ, state) is None


def test_steane_z_override_drops_z_gadgets(library):
    state = get_state("steane")
    assert certified_z_override(state) == 0
    bip = best_of_trials(state, 200, 7)
    asm = assemble_ft_circuit(state, bip, library, z_gadget_t_override=0, seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=100, seed=3)
    assert not any(isinstance(op, FlagMeasure) and op.basis == "X" for op in circ.ops)
    assert tableau_check_circuit(circ, state) is None


@pytest.mark.parametrize("name", ["surface9", "steane"])
def test_negative_override_rejected(library, name):
    # surface9 has only degree <= 2 qubits, so no library lookup would fail.
    state = get_state(name)
    bip = best_of_trials(state, 20, 3)
    with pytest.raises(ValueError, match="-1"):
        assemble_ft_circuit(
            state, bip, library, z_gadget_t_override=-1, allow_uncertified_override=True
        )


def test_uncertified_override_rejected(library):
    state = get_state("color17")  # max Z coset weight 3: no downgrade below 2
    bip = best_of_trials(state, 50, 3)
    with pytest.raises(OverrideNotCertifiedError):
        assemble_ft_circuit(state, bip, library, z_gadget_t_override=0, seed=1)
    asm = assemble_ft_circuit(
        state, bip, library, z_gadget_t_override=0, allow_uncertified_override=True, seed=1
    )
    # No Z gadget: no flag starts in |+> to be measured in X.
    assert not any(plus for plus, ci in zip(asm.plus, asm.code_index) if ci is None)


def test_golay_override_certified(library):
    state = get_state("golay")
    assert certified_z_override(state) == 2


def test_gate_count_identity(library):
    state = get_state("surface9")
    bip = best_of_trials(state, 100, 2)
    asm = assemble_ft_circuit(state, bip, library, seed=4, use_trivial_gadgets=False)
    circ = asm.schedule(asm._topological_order())
    m = circuit_metrics(circ)
    assert m.cx_count == bip.edge_count + 2 * m.flag_count
    assert m.flag_count == len(bip.controls) + len(bip.targets)


def test_schedule_objective_monotone(library):
    state = get_state("color17")
    bip = best_of_trials(state, 100, 3)
    asm = assemble_ft_circuit(state, bip, library, seed=5)
    few = circuit_metrics(schedule_circuit(asm, "min_max_qubits", shuffles=2, seed=9))
    many = circuit_metrics(schedule_circuit(asm, "min_max_qubits", shuffles=60, seed=9))
    assert many.max_simultaneous_qubits <= few.max_simultaneous_qubits


def test_schedule_invariance_of_propagation(library):
    # Noiseless propagation statistics are identical across schedules: the
    # per-fault effect tables are permutations of each other.
    state = get_state("steane")
    bip = best_of_trials(state, 200, 7)
    asm = assemble_ft_circuit(state, bip, library, seed=5)
    tallies = []
    for seed in (1, 2, 3):
        circ = schedule_circuit(asm, "min_max_qubits", shuffles=5, seed=seed)
        assert tableau_check_circuit(circ, state) is None
        tables = build_effect_tables(circ, state)
        sig = sorted((flag_int(tables.flags, v), int(sc)) for v, sc in enumerate(tables.sc))
        tallies.append(sig)
    assert tallies[0] == tallies[1] == tallies[2]


def test_metrics_empty_circuit():
    circ = Circuit((), ())
    m = circuit_metrics(circ)
    assert m == CircuitMetrics(0, 0, 0, 0)


def test_depth_greedy_layering():
    ops = (
        *(CXGate(a, b) for a, b in ((0, 1), (2, 3), (1, 2))),
    )
    # build a minimal raw circuit: inits implicit not needed for metrics
    circ = Circuit((0, 1, 2, 3), ops)
    assert circuit_metrics(circ).depth == 2  # first two commute, third stacks


def test_every_catalog_entry_assembles_and_checks(library):
    from ftprep.catalog import catalog_names, get_state

    for name in catalog_names():
        state = get_state(name)
        bip = best_of_trials(state, 150, 11)
        asm = assemble_ft_circuit(state, bip, library, seed=5)
        circ = schedule_circuit(asm, "min_max_qubits", shuffles=20, seed=3)
        circ.validate()
        assert tableau_check_circuit(circ, state) is None, name


def test_steane_override_instance_fits_eight_qubits(library):
    state = get_state("steane")
    bip = best_of_trials(state, 200, 7)
    asm = assemble_ft_circuit(state, bip, library, z_gadget_t_override=0, seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=1000, seed=3)
    m = circuit_metrics(circ)
    assert m.cx_count == 15 and m.flag_count == 3
    assert m.max_simultaneous_qubits <= 8


def _serialized_sha(circ: Circuit) -> str:
    return hashlib.sha256(serialize_circuit(circ).encode()).hexdigest()


def test_golden_golay_build(library):
    # Fixed outputs of the annealer's RNG stream: a change that shifts it
    # changes the edge priority.  The tight order wins this schedule.
    state = get_state("golay")
    bip = best_of_trials(state, 50, 11)
    asm = assemble_ft_circuit(state, bip, library, z_gadget_t_override=2, seed=5, width_anneal=2_000)
    assert asm.edge_priority == (
        17, 10, 57, 2, 18, 59, 6, 31, 26, 5, 33, 23, 3, 29, 75, 64, 56, 12, 54, 42, 71, 22, 35,
        55, 9, 8, 13, 21, 36, 73, 30, 43, 70, 72, 37, 67, 20, 40, 19, 74, 66, 39, 1, 61, 38, 46,
        34, 50, 27, 11, 47, 52, 41, 25, 58, 14, 69, 62, 60, 63, 51, 48, 76, 24, 28, 49, 45, 65,
        53, 32, 15, 7, 16, 44, 0, 68, 4,
    )
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=50, seed=3)
    assert _serialized_sha(circ) == "fd834d84946cb98835d6778d0adb6a268ec8a554fdec40db4177f4040af9a2a5"


def test_golden_color17_schedules(library):
    # Fixed outputs of the scheduler's RNG stream: here a greedy order wins
    # min_max_qubits (shuffle 16) and a uniform order wins min_depth
    # (shuffle 6), so a shift in either sampler changes the circuit.
    state = get_state("color17")
    bip = best_of_trials(state, 100, 3)
    asm = assemble_ft_circuit(state, bip, library, seed=2)
    assert asm.edge_priority == (
        22, 32, 23, 7, 34, 12, 33, 6, 3, 37, 24, 28, 27, 10, 26, 14, 16, 15, 38, 25, 20, 39, 2,
        18, 11, 13, 0, 4, 17, 19, 9, 5, 21, 29, 31, 30, 35, 36, 8, 1,
    )
    expected = {
        "min_max_qubits": "b6dc8ce67813b8d9da37ef30d2020009adec1a4b09d1b9a0412600f6d197331a",
        "min_depth": "b394e3836794f7ce42315918b7c47ffb68659415e308ce9d00d4a64472960bf4",
    }
    for objective, sha in expected.items():
        circ = schedule_circuit(asm, objective, shuffles=50, seed=3)
        assert _serialized_sha(circ) == sha, objective


def test_single_candidate_draw_consumes_no_randomness():
    # The scheduler skips rng.integers(0, 1); that is only stream-neutral
    # because numpy returns the lower bound without drawing.
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    assert a.integers(0, 1) == 0
    assert a.integers(0, 1 << 30, size=8).tolist() == b.integers(0, 1 << 30, size=8).tolist()


def idle_qubit_state() -> CssState:
    # A Bell pair plus a qubit in |0>: qubit 2 is a target without edges.
    return CssState(
        name="bell+0",
        n=3,
        k=0,
        d=2,
        x_stabilizers=(0b011,),
        z_stabilizers=(0b011, 0b100),
        logical_x=(),
        logical_z=(),
    )


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("steane", {}),
        ("color17", {}),
        ("golay", {"z_gadget_t_override": 2}),
        ("idle", {}),
        ("idle", {"use_trivial_gadgets": False}),
    ],
)
def test_order_metrics_match_scheduled_circuit(library, name, kwargs):
    state = idle_qubit_state() if name == "idle" else get_state(name)
    bip = best_of_trials(state, 20, 7)
    asm = assemble_ft_circuit(state, bip, library, seed=5, width_anneal=200, **kwargs)
    rng = np.random.default_rng(1)
    orders = [asm.tight_order(), asm._topological_order()]
    for _ in range(4):
        orders.append(asm._topological_order(rng, greedy=True))
        orders.append(asm._topological_order(rng))
    if name == "idle":
        assert any(q not in {q for g in asm.gates for q in g} for q in range(asm.n_qubits))
    for order in orders:
        m = circuit_metrics(asm.schedule(order))
        assert asm.order_metrics(order) == (m.max_simultaneous_qubits, m.depth)


def _full_width(edges, windows, order) -> int:
    """The annealer's width estimate recomputed from scratch."""
    n_e = len(edges)
    pos = [0] * n_e
    for p, e in enumerate(order):
        pos[e] = p
    woken: set[int] = set()
    wake_at = [0] * n_e
    for p in range(n_e):
        a, b = edges[order[p]]
        wake_at[p] = (a not in woken) + (b not in woken)
        woken.add(a)
        woken.add(b)
    open_flags = [0] * (n_e + 1)
    for mine, spans in windows:
        slots = sorted(pos[i] for i in mine)
        for lo, hi in spans:
            open_flags[slots[lo]] += 1
            open_flags[slots[hi] + 1] -= 1
    peak = 0
    live_code = 0
    live_flags = 0
    for p in range(n_e):
        live_code += wake_at[p]
        live_flags += open_flags[p]
        peak = max(peak, live_code + live_flags)
    return peak


@pytest.mark.parametrize("name, t_z", [("color17", 2), ("golay", 2), ("golay", 3)])
def test_incremental_width_matches_full_recompute(library, name, t_z):
    state = get_state(name)
    bip = best_of_trials(state, 20, 3)
    edges = sorted(bip.edges)
    placed = _placements(edges, bip, library.get, state.t, t_z)
    windows = [(mine, _flag_spans(gadget)) for _, _, mine, gadget in placed]
    rng = np.random.default_rng(0)
    model = _WidthModel(edges, windows, rng.permutation(len(edges)).tolist())
    assert model.peak() == _full_width(edges, windows, model.order)
    for _ in range(600):
        i, j = rng.integers(0, len(edges), size=2).tolist()
        if i == j:
            continue
        w = model.swap(i, j)
        assert w == model.peak() == _full_width(edges, windows, model.order)
        if rng.random() < 0.5:
            model.undo()
            assert model.peak() == _full_width(edges, windows, model.order)
        assert [model.order[p] for p in model.pos] == list(range(len(edges)))


def _reference_order(asm, rng, greedy):
    """The sampler with every ready gate rescored at every step."""
    n = len(asm.gates)
    succ = [[] for _ in range(n)]
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

    def score(node):
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
            node = pool[int(rng.integers(0, len(pool)))]
            ready.remove(node)
        else:
            node = ready.pop(int(rng.integers(0, len(ready))))
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


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("steane", {"z_gadget_t_override": 0}),
        ("color17", {"z_gadget_t_override": 0, "allow_uncertified_override": True}),
        # Targets without gadgets: ready gates share an unwoken target, so
        # placing one of them rescores the others.
        ("surface25", {"z_gadget_t_override": 0, "allow_uncertified_override": True}),
        ("color17", {}),
        ("golay", {"z_gadget_t_override": 2}),
        ("idle", {"use_trivial_gadgets": False}),
    ],
)
def test_sampled_orders_match_full_rescoring(library, name, kwargs):
    # Incremental scoring and the skipped single-candidate draws must give
    # the same orders and leave the RNG in the same state.
    state = idle_qubit_state() if name == "idle" else get_state(name)
    asm = assemble_ft_circuit(state, best_of_trials(state, 20, 3), library, seed=2, **kwargs)
    fast, ref = np.random.default_rng(8), np.random.default_rng(8)
    for trial in range(12):
        greedy = trial % 4 != 3
        assert asm._topological_order(fast, greedy=greedy) == _reference_order(asm, ref, greedy)
    assert fast.random() == ref.random()


def test_golden_catalog_assemblies(library):
    # Assembly outputs pinned on every catalog code in both states, under the
    # default options, flagged gadgets with annealing, and no Z gadgets.
    options = (
        {},
        {"use_trivial_gadgets": False, "width_anneal": 300},
        {"z_gadget_t_override": 0, "allow_uncertified_override": True},
    )
    digest = hashlib.sha256()
    count = 0
    for name in catalog_names():
        for label in ("|0>", "|+>"):
            state = get_state(name, label)
            bip = best_of_trials(state, 20, 7)
            for kwargs in options:
                asm = assemble_ft_circuit(state, bip, library, seed=5, **kwargs)
                outputs = (asm.code_index, asm.plus, asm.gates, asm.chains, asm.edge_priority)
                digest.update(repr(outputs).encode())
                circ = schedule_circuit(asm, "min_max_qubits", shuffles=8, seed=3)
                digest.update(serialize_circuit(circ).encode())
                count += 1
    assert count == 36
    assert digest.hexdigest() == "8563ac24263a171fb3173ac42d09d3e73f223b653e2699999f6f8ae78604eb3a"


def _relabeled(gates, first: int) -> list[tuple[int, int]]:
    """``gates`` with qubits renamed by first appearance, ``first`` as 0."""
    names = {first: 0}
    return [tuple(names.setdefault(q, len(names)) for q in gate) for gate in gates]


@pytest.mark.parametrize(
    "name, label, kwargs",
    [
        ("color17", "|0>", {}),
        ("color17", "|+>", {"use_trivial_gadgets": False}),
        ("golay", "|0>", {"z_gadget_t_override": 2}),
        ("surface9", "|0>", {"use_trivial_gadgets": False}),
    ],
)
def test_every_chain_is_its_gadget(library, name, label, kwargs):
    # A control's chain is its X gadget and a target's chain is the
    # Hadamard-conjugated gadget, up to the names of the circuit qubits.
    state = get_state(name, label)
    bip = best_of_trials(state, 20, 7)
    asm = assemble_ft_circuit(state, bip, library, seed=5, width_anneal=100, **kwargs)
    trivial = kwargs.get("use_trivial_gadgets", True)

    def pick(t, r):
        return trivial_gadget(t, r) if trivial and r <= 2 else library.get(t, r)

    t_z = kwargs.get("z_gadget_t_override", state.t)
    placed = _placements(sorted(bip.edges), bip, pick, state.t, t_z)
    assert len(placed) == len(asm.chains)
    assert any(detects_z for _, detects_z, _, _ in placed)
    for (q, detects_z, mine, gadget), chain in zip(placed, asm.chains):
        expected = hadamard_conjugate_gadget(gadget) if detects_z else gadget
        got = _relabeled([asm.gates[node] for node in chain], asm.code_index.index(q))
        assert got == _relabeled(expected.gates, 0)
        assert sorted(node for node in chain if node < asm.n_edges) == mine
