import hashlib
import itertools
import time

import numpy as np
import pytest

from ftprep import pipeline
from ftprep.assemble import (
    AssembledCircuit,
    CircuitMetrics,
    OverrideNotCertifiedError,
    _anneal_priority,
    _flag_spans,
    _placements,
    _width_windows,
    _WidthModel,
    assemble_ft_circuit,
    certified_z_override,
    circuit_metrics,
    schedule_circuit,
)
from ftprep.bipartite import best_of_trials, synthesize_bipartite
from ftprep.catalog import get_state, rotated_surface
from ftprep.circuit import Circuit, CXGate, FlagMeasure
from ftprep.css import CssState
from ftprep.gadgets import FlagGadget, trivial_gadget
from ftprep.library import GadgetLibrary, MissingGadgetError
from ftprep.serialization import serialize_circuit
from ftprep.tableau import tableau_check_circuit
from ftprep.noise import SLOTS, build_effect_tables

from _reference import (
    anneal_priority_reference,
    flag_int,
    schedule_reference,
    tight_order_reference,
    topological_order_reference,
)


# The catalog codes the golden digests were recorded on, in catalog order.
GOLDEN_CODES = ("color17", "golay", "selfdual20", "steane", "surface25", "surface9")


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
    circ = asm.schedule(asm.tight_order())
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


def test_negative_width_anneal_rejected(library):
    state = get_state("steane")
    with pytest.raises(ValueError, match="^width_anneal -1 is negative$"):
        assemble_ft_circuit(state, best_of_trials(state, 20, 3), library, width_anneal=-1)


def test_negative_shuffles_rejected(library):
    state = get_state("steane")
    asm = assemble_ft_circuit(state, best_of_trials(state, 20, 3), library)
    with pytest.raises(ValueError, match="^shuffles -1 is negative$"):
        schedule_circuit(asm, shuffles=-1)


@pytest.mark.parametrize("objective", ["min_depth", "min_max_qubit"])
def test_unknown_objective_rejected(library, objective):
    # Width is the only objective, and a misspelt name is not read as it.
    state = get_state("steane")
    asm = assemble_ft_circuit(state, best_of_trials(state, 20, 3), library)
    with pytest.raises(ValueError, match=f"^unknown objective '{objective}'$"):
        schedule_circuit(asm, objective, shuffles=2)


@pytest.mark.parametrize("candidates", [0, -2])
def test_assembly_candidates_below_one_rejected(library, monkeypatch, candidates):
    # Rejected before any synthesis trial runs.
    monkeypatch.setattr(pipeline, "ranked_trials", None)
    with pytest.raises(ValueError, match=f"^assembly_candidates {candidates} is below 1$"):
        pipeline.build_preparation_circuit(
            get_state("steane"), library, assembly_candidates=candidates
        )


@pytest.mark.parametrize("name", ["surface9", "steane"])
def test_negative_override_rejected(library, name):
    # surface9 has only degree <= 2 qubits, so no library lookup would fail.
    state = get_state(name)
    bip = best_of_trials(state, 20, 3)
    with pytest.raises(ValueError, match="-1"):
        assemble_ft_circuit(
            state, bip, library, z_gadget_t_override=-1, allow_uncertified_override=True
        )


class _FailingLibrary:
    """A library whose every lookup raises ``error``."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def get(self, t: int, r: int) -> None:
        raise self.error


def test_library_miss_is_a_missing_gadget():
    # The library's own miss reaches the caller as it was raised, unwrapped.
    state = get_state("steane")  # t=1, control degrees 3 and 4
    miss = MissingGadgetError("no gadget for t=1, r=3")
    with pytest.raises(MissingGadgetError) as info:
        assemble_ft_circuit(state, best_of_trials(state, 20, 3), _FailingLibrary(miss))
    assert info.value is miss
    assert info.value.__cause__ is None


def test_other_library_failures_propagate():
    # Only a library miss is a missing gadget; any other fault surfaces as is.
    state = get_state("steane")
    with pytest.raises(TypeError, match="broken lookup"):
        assemble_ft_circuit(state, best_of_trials(state, 20, 3), _FailingLibrary(TypeError("broken lookup")))


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


def test_override_past_the_enumeration_cap_is_not_certified(library):
    # Rotated surface d=7 has 2^24 Z cosets: the bound is refused at once.
    state = rotated_surface(7)
    start = time.perf_counter()
    assert certified_z_override(state) is None
    assert time.perf_counter() - start < 1.0
    message = r"^override 2 not certified \(coset bound is past the enumeration cap\)$"
    with pytest.raises(OverrideNotCertifiedError, match=message):
        assemble_ft_circuit(state, best_of_trials(state, 1, 3), library, z_gadget_t_override=2)
    color17 = get_state("color17")
    with pytest.raises(OverrideNotCertifiedError, match=r"\(coset bound allows 2\)$"):
        assemble_ft_circuit(color17, best_of_trials(color17, 1, 3), library, z_gadget_t_override=1)


def test_golay_override_certified(library):
    state = get_state("golay")
    assert certified_z_override(state) == 2


def test_gate_count_identity(library):
    state = get_state("surface9")
    bip = best_of_trials(state, 100, 2)
    asm = assemble_ft_circuit(state, bip, library, seed=4, use_trivial_gadgets=False)
    circ = asm.schedule(asm.tight_order())
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


def _op_effects(circ: Circuit, state: CssState, side: str) -> list[tuple[tuple[int, ...], int]]:
    """Sorted (flipped flag qubits, sc) of every op-location variant (ids
    below 15 L_p): flag bits are keyed by flag qubit, since the outcome
    numbers follow the schedule."""
    tables = build_effect_tables(circ, state, side)
    qubit_of = dict(enumerate(op.qubit for op in circ.ops if isinstance(op, FlagMeasure)))
    entries = []
    for v in range(SLOTS * tables.l_p):
        flags = flag_int(tables.flags, v)
        flipped = tuple(sorted(q for i, q in qubit_of.items() if flags >> i & 1))
        entries.append((flipped, int(tables.sc[v])))
    return sorted(entries)


def _effects_over_orders(library, name: str, side: str, **kwargs) -> list:
    """``_op_effects`` of five distinct schedules of one assembly: the tight
    order, two greedy sampled orders and two orders drawn from all ready
    gates."""
    state = get_state(name)
    asm = assemble_ft_circuit(state, best_of_trials(state, 20, 3), library, seed=2, **kwargs)
    rng = np.random.default_rng(1)
    orders = [asm.tight_order()]
    orders += [asm._topological_order(rng) for _ in range(2)]
    orders += [topological_order_reference(asm, rng, False) for _ in range(2)]
    circuits = [asm.schedule(order) for order in orders]
    assert len({circ.ops for circ in circuits}) == 5, name
    return [_op_effects(circ, state, side) for circ in circuits]


def test_schedule_invariance_of_propagation(library):
    # Distinct schedules of one assembly give the op locations the same
    # effects up to order.  Idle locations and flag outcome numbers follow
    # the schedule, so they are left out or keyed by flag qubit.
    for name in ("steane", "color17"):
        for side in ("X", "Z"):
            first, *rest = _effects_over_orders(library, name, side)
            assert all(effects == first for effects in rest), (name, side)
    # The property needs every qubit with two or more gates in one chain, so
    # that every order keeps each qubit's gate sequence.  Without Z gadgets
    # a target's edges share no chain, and surface25's Z side gives five
    # different multisets over the five orders.
    effects = _effects_over_orders(
        library, "surface25", "Z", z_gadget_t_override=0, allow_uncertified_override=True
    )
    assert len({tuple(e) for e in effects}) == 5


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
        33, 59, 75, 26, 49, 45, 58, 41, 32, 61, 31, 2, 25, 65, 73, 50, 17, 53, 39, 43, 51, 15, 21,
        34, 27, 29, 36, 1, 67, 7, 44, 35, 6, 24, 55, 20, 66, 64, 74, 60, 30, 62, 72, 14, 71, 42,
        5, 68, 56, 4, 13, 9, 63, 12, 18, 11, 28, 37, 16, 76, 38, 47, 52, 54, 70, 40, 69, 23, 46,
        22, 10, 0, 57, 48, 19, 3, 8,
    )
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=50, seed=3)
    assert _serialized_sha(circ) == "0401dad67585ce898ed664905585db537026ef20e03f116f3f793303ebec1bbb"


def test_golden_color17_schedules(library):
    # Fixed outputs of the scheduler's RNG stream: here sampled orders
    # narrow the tight order's 46 qubits to 40, the last step at shuffle
    # 35, so a shift in the sampler changes the circuit.
    state = get_state("color17")
    bip = best_of_trials(state, 100, 3)
    asm = assemble_ft_circuit(state, bip, library, seed=2)
    assert asm.edge_priority == (
        22, 32, 23, 7, 34, 12, 33, 6, 3, 37, 24, 28, 27, 10, 26, 14, 16, 15, 38, 25, 20, 39, 2,
        18, 11, 13, 0, 4, 17, 19, 9, 5, 21, 29, 31, 30, 35, 36, 8, 1,
    )
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=50, seed=3)
    assert _serialized_sha(circ) == "3fe0aecc656d5e8ed5ad670fc32a76ee59388b4c56fa8d3d21748bc6c0f12173"


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
    orders = [asm.tight_order()]
    for _ in range(4):
        orders.append(asm._topological_order(rng))
        orders.append(topological_order_reference(asm, rng, False))
    if name == "idle":
        assert any(q not in {q for g in asm.gates for q in g} for q in range(asm.n_qubits))
    for order in orders:
        m = circuit_metrics(asm.schedule(order))
        assert asm.order_metrics(order) == (m.max_simultaneous_qubits, m.depth)


def _full_profile(edges, windows, order) -> list[int]:
    """The annealer's live count at every edge position, recomputed from
    scratch: code qubits wake at their first edge, and each flag span
    (lo, hi) of a window is live from its rank-lo slot through its rank-hi
    slot."""
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
    profile = []
    live_code = 0
    live_flags = 0
    for p in range(n_e):
        live_code += wake_at[p]
        live_flags += open_flags[p]
        profile.append(live_code + live_flags)
    return profile


def _fields(model: _WidthModel) -> list[int]:
    """Every field of the model's packed width profile ``W``, decoded; a
    field that went negative or carried would show as a wrong count."""
    b, n_e = model.bits, len(model.order)
    assert 0 <= model.W < 1 << b * n_e
    return [model.W >> b * p & (1 << b) - 1 for p in range(n_e)]


@pytest.mark.parametrize("name, t_z", [("color17", 2), ("golay", 2), ("golay", 3), ("golay", 0)])
def test_incremental_width_matches_full_recompute(library, name, t_z):
    # t_z = 0 places no Z gadget: every target's window holds only its wake.
    state = get_state(name)
    bip = best_of_trials(state, 20, 3)
    edges = sorted(bip.edges)
    placed = _placements(edges, bip, library.get, state.t, t_z)
    windows = [(mine, _flag_spans(gadget)) for _, _, mine, gadget in placed]
    new_windows = _width_windows(edges, placed)
    rng = np.random.default_rng(0)
    model = _WidthModel(new_windows, rng.permutation(len(edges)).tolist())

    def check_profile():
        profile = _full_profile(edges, windows, model.order)
        assert _fields(model) == profile
        assert model.width == model.peak(0) == model.peak(model.width) == max(profile)
        # Each window's share is its events summed at its current slots.
        for w, slots in enumerate(model.slots):
            assert model.part[w] == sum(table[slots[r]] for r, table in model.events[w])
        assert model.W == sum(model.part)

    check_profile()

    def sorted_slots():
        return [sorted(model.pos[i] for i in mine) for mine, _, _ in new_windows]

    def ranks(e):
        return {w: model.slots[w].index(model.pos[e]) for w in model.windows_of[e]}

    moves = {"kept": 0, "changed": 0}
    for _ in range(600):
        i, j = rng.integers(0, len(edges), size=2).tolist()
        if i == j:
            continue
        before = (
            list(model.order), list(model.pos), model.W, model.width, [list(s) for s in model.slots],
            list(model.part),
        )
        ei, ej = model.order[i], model.order[j]
        old = (ranks(ei), ranks(ej))
        w = model.swap(i, j)
        assert w == model.width
        check_profile()
        assert model.slots == sorted_slots()
        # A window holding exactly one of the two edges moves its slot,
        # keeping its rank or changing it; both kinds of move must occur.
        for e, was, other in ((ei, old[0], ej), (ej, old[1], ei)):
            for win, r in ranks(e).items():
                if win not in model.windows_of[other]:
                    moves["kept" if r == was[win] else "changed"] += 1
        if rng.random() < 0.5:
            model.undo()
            assert (model.order, model.pos, model.W, model.width, model.slots, model.part) == before
            assert model.slots == sorted_slots()
            check_profile()
        assert [model.order[p] for p in model.pos] == list(range(len(edges)))
    assert moves["kept"] and moves["changed"], moves


@pytest.mark.parametrize("bits, n_opens", [(9, 250), (10, 500)])
def test_anneal_matches_reference_on_wide_fields(bits, n_opens):
    # Synthetic window sets whose total opens need 9- and 10-bit fields:
    # spans from each qubit's first third of ranks to its last third, so
    # that the peak passes 2^(bits-2), several opening or closing at one
    # rank, some closing after the last edge position.
    rng = np.random.default_rng(bits)
    edges = [(c, t) for c in range(6) for t in range(6, 16) if rng.random() < 0.6]
    mine: dict[int, list[int]] = {}
    for i, edge in enumerate(edges):
        for q in edge:
            mine.setdefault(q, []).append(i)
    qubits = sorted(mine)
    spans: dict[int, list[tuple[int, int]]] = {q: [] for q in qubits}
    for _ in range(n_opens - len(qubits)):
        q = qubits[rng.integers(len(qubits))]
        d = len(mine[q])
        spans[q].append((int(rng.integers(0, d // 3 + 1)), int(rng.integers(2 * d // 3, d))))
    old_windows = [(mine[q], spans[q]) for q in qubits]
    windows = []
    for q in qubits:
        opens, closes = [1] + [0] * (len(mine[q]) - 1), [0] * len(mine[q])
        for lo, hi in spans[q]:
            opens[lo] += 1
            closes[hi] += 1
        windows.append((mine[q], opens, closes))
    model = _WidthModel(windows, list(range(len(edges))))
    assert model.bits == bits
    profile = _full_profile(edges, old_windows, model.order)
    assert _fields(model) == profile
    assert model.width == max(profile) >= 1 << bits - 2  # the fields' top halves are used
    for steps in (1, 700, 2_000):
        rng_ref, rng_new = np.random.default_rng(steps), np.random.default_rng(steps)
        expected = anneal_priority_reference(edges, old_windows, steps, rng_ref)
        assert _anneal_priority(len(edges), windows, steps, rng_new) == expected, steps
        assert rng_new.random() == rng_ref.random(), steps


@pytest.mark.parametrize("name", GOLDEN_CODES)
@pytest.mark.parametrize("label", ["|0>", "|+>"])
@pytest.mark.parametrize(
    "trivial, z_override",
    [(True, None), (False, None), (True, 0)],
    ids=["default", "flagged", "no-z"],
)
def test_anneal_matches_reference_seed_for_seed(library, name, label, trivial, z_override):
    # The windowed annealer returns the reference annealer's priority and
    # leaves the RNG where it does.  511-513 steps straddle the first block
    # of draws; on the short codes many steps draw i == j and are skipped.
    state = get_state(name, label)
    bip = best_of_trials(state, 20, 7)
    edges = sorted(bip.edges)

    def pick(t, r):
        return trivial_gadget(t, r) if trivial and r <= 2 else library.get(t, r)

    t_z = state.t if z_override is None else z_override
    placed = _placements(edges, bip, pick, state.t, t_z)
    old_windows = [(mine, _flag_spans(gadget)) for _, _, mine, gadget in placed]
    for steps in (1, 511, 512, 513, 1_500):
        rng_ref, rng = np.random.default_rng(steps), np.random.default_rng(steps)
        expected = anneal_priority_reference(edges, old_windows, steps, rng_ref)
        assert _anneal_priority(len(edges), _width_windows(edges, placed), steps, rng) == expected, steps
        assert rng.random() == rng_ref.random(), steps


def test_golden_annealed_without_z_gadgets(library):
    # The annealed assembly with no Z gadget, whose targets have only their
    # wake in the width estimate; the catalog digest does not anneal it.
    expected = {
        "color17": (
            12, 7, 4, 13, 20, 2, 14, 9, 26, 1, 28, 38, 32, 29, 39, 5, 22, 8, 16, 0, 25, 36, 21, 27,
            30, 31, 17, 37, 33, 35, 34, 24, 23, 10, 3, 18, 6, 19, 15, 11,
        ),
        "golay": (
            67, 6, 74, 34, 25, 7, 52, 76, 59, 54, 60, 73, 40, 42, 4, 10, 24, 8, 33, 14, 21, 19, 22,
            69, 23, 31, 27, 9, 12, 1, 53, 38, 13, 15, 5, 11, 29, 28, 39, 32, 2, 36, 43, 64, 66, 71,
            41, 49, 0, 48, 45, 44, 70, 56, 61, 57, 3, 18, 30, 50, 72, 62, 65, 35, 68, 47, 26, 17,
            16, 58, 46, 51, 75, 37, 55, 63, 20,
        ),
    }
    for name, priority in expected.items():
        state = get_state(name)
        asm = assemble_ft_circuit(
            state,
            best_of_trials(state, 20, 3),
            library,
            z_gadget_t_override=0,
            allow_uncertified_override=True,
            seed=5,
            width_anneal=2_000,
        )
        assert asm.edge_priority == priority, name


# Assemblies the sampler tests run on.
SAMPLER_CASES = [
    ("steane", {"z_gadget_t_override": 0}),
    ("color17", {"z_gadget_t_override": 0, "allow_uncertified_override": True}),
    # Targets without gadgets: ready gates share an unwoken target, so
    # placing one of them rescores the others.
    ("surface25", {"z_gadget_t_override": 0, "allow_uncertified_override": True}),
    ("color17", {}),
    ("golay", {"z_gadget_t_override": 2}),
    ("idle", {"use_trivial_gadgets": False}),
]


def _sampler_assembly(library, name: str, kwargs: dict):
    state = idle_qubit_state() if name == "idle" else get_state(name)
    return assemble_ft_circuit(state, best_of_trials(state, 20, 3), library, seed=2, **kwargs)


@pytest.mark.parametrize("name, kwargs", SAMPLER_CASES)
def test_sampled_orders_match_full_rescoring(library, name, kwargs):
    # Incremental scoring and the one batched draw per order must give the
    # same orders and leave the RNG in the same state.
    asm = _sampler_assembly(library, name, kwargs)
    fast, ref = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(12):
        assert asm._topological_order(fast) == topological_order_reference(asm, ref, True)
    assert fast.random() == ref.random()


@pytest.mark.parametrize("name, kwargs", SAMPLER_CASES)
def test_sampled_orders_share_no_state(library, name, kwargs):
    # Every order starts from copies of the cached roots, which hold only
    # tuples, so a finished or stopped order leaves nothing for the next.
    asm = _sampler_assembly(library, name, kwargs)
    first = asm._topological_order(np.random.default_rng(4))
    ready, score, rank, buckets = asm._roots
    assert all(type(part) is tuple for part in (ready, score, rank, buckets, *buckets))
    asm._topological_order(np.random.default_rng(5))
    assert asm._topological_order(np.random.default_rng(6), 1) is None
    assert asm._topological_order(np.random.default_rng(4)) == first


def _running_peak(asm, order: list[int]) -> int:
    """The most qubits live after any gate of ``order`` is placed, before
    the flags it retires are measured: a qubit is live from its first gate,
    a flag until its last."""
    uses = [0] * asm.n_qubits
    for gate in asm.gates:
        for q in gate:
            uses[q] += 1
    live: set[int] = set()
    peak = 0
    for node in order:
        live.update(asm.gates[node])
        peak = max(peak, len(live))
        for q in asm.gates[node]:
            uses[q] -= 1
            if uses[q] == 0 and asm.code_index[q] is None:
                live.discard(q)
    return peak


@pytest.mark.parametrize("name, kwargs", SAMPLER_CASES)
def test_bounded_sampler_stops_exactly_when_wider(library, name, kwargs):
    # Under every bound up to the order's unbounded width, the sampler
    # returns None exactly when the reference order's running peak passes
    # the bound, the reference order otherwise, and leaves the RNG where the
    # reference does.
    asm = _sampler_assembly(library, name, kwargs)
    stopped = finished = 0
    for trial in range(8):
        ref_rng = np.random.default_rng(trial)
        ref = topological_order_reference(asm, ref_rng, True)
        after = ref_rng.random()
        peak = _running_peak(asm, ref)
        assert peak <= asm.order_metrics(ref)[0]
        for bound in range(1, peak + 1):
            rng = np.random.default_rng(trial)
            order = asm._topological_order(rng, bound)
            if peak > bound:
                assert order is None, (trial, bound)
                stopped += 1
            else:
                assert order == ref, (trial, bound)
                finished += 1
            assert rng.random() == after, (trial, bound)
    assert stopped and finished


def test_schedule_matches_reference(library):
    # The bounded scheduler picks the circuit the full-scoring scheduler
    # does.  The cases hold wins of the tight order and wins of sampled
    # orders.  Without Z gadgets many orders tie on width, so sampled
    # orders there also win on depth alone: an order as wide as the best
    # must not be stopped.
    options = (
        {},
        {"width_anneal": 2_000},
        {"z_gadget_t_override": 0, "allow_uncertified_override": True},
    )
    wins = set()
    for name in GOLDEN_CODES:
        for label in ("|0>", "|+>"):
            state = get_state(name, label)
            bip = best_of_trials(state, 20, 7)
            for seed, kwargs in itertools.product((0, 1, 2), options):
                asm = assemble_ft_circuit(state, bip, library, seed=seed, **kwargs)
                tight = asm.schedule(asm.tight_order()).ops
                circ = schedule_circuit(asm, shuffles=12, seed=seed)
                expected = schedule_reference(asm, shuffles=12, seed=seed)
                assert circ.ops == expected.ops, (name, label, seed, kwargs)
                wins.add(circ.ops == tight)
    assert wins == {True, False}


def test_bounded_sampler_counts_a_wake_before_a_retirement():
    # The flag's last gate wakes code qubit 1: three qubits are live there,
    # past a bound of 2, though the flag is measured right after.
    asm = AssembledCircuit(
        code_index=(0, 1, None),
        plus=(True, True, False),
        gates=((0, 2), (1, 2)),
        chains=((0, 1),),
        n_edges=0,
        edge_priority=(),
    )
    assert asm.order_metrics([0, 1]) == (3, 2)
    assert asm._topological_order(np.random.default_rng(0), 2) is None
    assert asm._topological_order(np.random.default_rng(0), 3) == [0, 1]


@pytest.mark.parametrize("name", GOLDEN_CODES)
def test_tight_order_matches_its_policy(library, name):
    # The sort by static keys equals the gate-by-gate replay of the policy,
    # on assemblies the golden digests do not pin: other seeds, annealed
    # flagged gadgets and no Z gadgets, in both states.
    options = (
        {"use_trivial_gadgets": False, "width_anneal": 100},
        {"z_gadget_t_override": 0, "allow_uncertified_override": True, "width_anneal": 100},
    )
    for label in ("|0>", "|+>"):
        state = get_state(name, label)
        bip = best_of_trials(state, 5, 3)
        for kwargs in options:
            for seed in (1, 2, 3):
                asm = assemble_ft_circuit(state, bip, library, seed=seed, **kwargs)
                assert asm.tight_order() == tight_order_reference(asm), (label, kwargs, seed)


class _PatchedLibrary:
    """The bundled library with one (t, r) entry replaced by ``gadget``."""

    def __init__(self, base: GadgetLibrary, gadget: FlagGadget) -> None:
        self.base, self.gadget = base, gadget

    def get(self, t: int, r: int) -> FlagGadget:
        return self.gadget if (t, r) == (self.gadget.t, self.gadget.r) else self.base.get(t, r)


def test_tight_order_retiring_run_stops_at_an_opening_gate(library):
    # No bundled gadget opens a flag between a slot and a closing gate, so
    # this one does: after slot 1, opening flag 5 ends the retiring run and
    # closing flag 4 waits for slot 2.
    gadget = FlagGadget(1, 3, 2, ((0, 4), (0, 1), (0, 5), (0, 4), (0, 2), (0, 5), (0, 3)))
    gadget.validate()
    state = get_state("steane")
    patched = _PatchedLibrary(library, gadget)
    for seed in range(4):
        asm = assemble_ft_circuit(
            state, best_of_trials(state, 5, seed), patched, seed=seed, use_trivial_gadgets=False
        )
        assert asm.tight_order() == tight_order_reference(asm), seed


def test_golden_catalog_assemblies(library):
    # Assembly outputs pinned on the GOLDEN_CODES in both states, under the
    # default options, flagged gadgets with annealing, and no Z gadgets; the
    # second digest pins each assembly's tight_order(), which must be a
    # linear extension of the precedence graph.
    options = (
        {},
        {"use_trivial_gadgets": False, "width_anneal": 300},
        {"z_gadget_t_override": 0, "allow_uncertified_override": True},
    )
    digest, orders = hashlib.sha256(), hashlib.sha256()
    count = 0
    for name in GOLDEN_CODES:
        for label in ("|0>", "|+>"):
            state = get_state(name, label)
            bip = best_of_trials(state, 20, 7)
            for kwargs in options:
                asm = assemble_ft_circuit(state, bip, library, seed=5, **kwargs)
                outputs = (asm.code_index, asm.plus, asm.gates, asm.chains, asm.edge_priority)
                digest.update(repr(outputs).encode())
                order = asm.tight_order()
                orders.update(repr(order).encode())
                # Every gate once, every chain in order: the graph is acyclic.
                assert sorted(order) == list(range(len(asm.gates)))
                pos = {node: i for i, node in enumerate(order)}
                assert all(pos[u] < pos[v] for chain in asm.chains for u, v in zip(chain, chain[1:]))
                circ = schedule_circuit(asm, "min_max_qubits", shuffles=8, seed=3)
                digest.update(serialize_circuit(circ).encode())
                count += 1
    assert count == 36
    assert digest.hexdigest() == "210cc959dbf93a0e5b3fdf4f001bedfadc805dbbd2eafa3d54e713721f218d64"
    assert orders.hexdigest() == "903fd1ffcbf6c3a7f0e8a0f7cf629528ff02e7a0bc958dc775f1decf4f4b89d0"


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
    # A control's chain is its X gadget and a target's chain is the X gadget
    # with every CX reversed, up to the names of the circuit qubits.
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
        expected = [(b, a) for a, b in gadget.gates] if detects_z else gadget.gates
        got = _relabeled([asm.gates[node] for node in chain], asm.code_index.index(q))
        assert got == _relabeled(expected, 0)
        assert sorted(node for node in chain if node < asm.n_edges) == mine
