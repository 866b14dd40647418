import pytest

from ftprep import verify
from ftprep.assemble import assemble_ft_circuit, schedule_circuit
from ftprep.bipartite import best_of_trials
from ftprep.catalog import _state_from_data, get_state, rotated_surface_data
from ftprep.circuit import Circuit, CXGate, FinalMeasure, FlagMeasure, Init
from ftprep.css import CssState, min_weight_modulo
from ftprep.library import GadgetLibrary
from ftprep.noise import build_effect_tables
from ftprep.pauli import PauliOperator
from ftprep.verify import (
    VerificationBudgetError,
    enumerate_fault_locations,
    replay_faults,
    verify_fault_tolerance,
)


@pytest.fixture(scope="module")
def library():
    return GadgetLibrary.bundled()


@pytest.fixture(scope="module")
def steane_circuit(library):
    state = get_state("steane")
    bip = best_of_trials(state, 200, 7)
    asm = assemble_ft_circuit(state, bip, library, seed=5)
    return state, bip, schedule_circuit(asm, "min_max_qubits", shuffles=100, seed=3)


def toy_circuit() -> Circuit:
    ops = (
        Init(0, "+"),
        Init(1, "0"),
        CXGate(0, 1),
        FlagMeasure(1, "Z", 0),
        FinalMeasure("Z"),
    )
    return Circuit(2, ("control", "flag_x"), ("c0", "f0"), (0, None), ops)


def test_enumerate_counts_match_stated_rules():
    circ = toy_circuit()
    x_locs = enumerate_fault_locations(circ, "X")
    # X after |+> skipped, X after |0> included, CX has three patterns,
    # and the Z-basis measurement flips.
    assert sum(len(l.variants) for l in x_locs) == 1 + 3 + 1
    z_locs = enumerate_fault_locations(circ, "Z")
    assert sum(len(l.variants) for l in z_locs) == 1 + 3
    empty = Circuit(0, (), (), (), (FinalMeasure("Z"),))
    assert enumerate_fault_locations(empty, "X") == []


def test_steane_passes_both_types(steane_circuit):
    state, _, circ = steane_circuit
    assert verify_fault_tolerance(circ, state, 1, "X") is None
    assert verify_fault_tolerance(circ, state, 1, "Z") is None


def test_stripped_circuit_fails_with_replayable_counterexample(steane_circuit):
    state, bip, _ = steane_circuit
    bare = bip.bare_circuit(state.n)
    ce = verify_fault_tolerance(bare, state, 1, "X")
    assert ce is not None
    assert len(ce.faults) == 1
    flips, residual = replay_faults(bare, state, "X", list(ce.faults))
    assert flips == 0
    assert residual == ce.residual_code_mask


@pytest.mark.parametrize("name", ["color17", "golay"])
def test_counterexample_reduced_weight_is_exact(name):
    state = get_state(name)
    bare = best_of_trials(state, 5, 0).bare_circuit(state.n)
    for typ in ("X", "Z"):
        ce = verify_fault_tolerance(bare, state, 2, typ)
        assert ce is not None
        err = PauliOperator(state.n, **{typ.lower(): ce.residual_code_mask})
        assert ce.reduced_weight == min_weight_modulo(err, state.reduction_group(typ))


def test_rotated_surface_d7_bare_counterexamples_replay():
    # 24 same-type generators: past any enumeration of the stabilizer group.
    state = _state_from_data(rotated_surface_data(7), "|0>")
    bare = best_of_trials(state, 5, 0).bare_circuit(state.n)
    for typ in ("X", "Z"):
        ce = verify_fault_tolerance(bare, state, 1, typ)
        assert ce is not None
        assert ce.reduced_weight > len(ce.faults)
        flips, residual = replay_faults(bare, state, typ, list(ce.faults))
        assert flips == 0
        assert residual == ce.residual_code_mask


def test_stripped_z_side_safe_for_steane(steane_circuit):
    # Every Z error on the Steane state reduces to weight <= 1, so even the
    # bare circuit satisfies the Z-type criterion.
    state, bip, _ = steane_circuit
    assert verify_fault_tolerance(bip.bare_circuit(state.n), state, 1, "Z") is None


def test_monotone_soundness(steane_circuit):
    state, _, circ = steane_circuit
    # propagate-and-check at t=1 passing is implied by... checked directly:
    assert verify_fault_tolerance(circ, state, 1, "X") is None


def test_verification_schedule_invariant(library):
    state = get_state("steane")
    bip = best_of_trials(state, 200, 7)
    asm = assemble_ft_circuit(state, bip, library, seed=5)
    for seed in range(20):
        circ = schedule_circuit(asm, "min_max_qubits", shuffles=3, seed=seed)
        assert verify_fault_tolerance(circ, state, 1, "X") is None
        assert verify_fault_tolerance(circ, state, 1, "Z") is None


def test_more_than_64_code_qubits_rejected():
    n = 65
    state = CssState(
        name="wide",
        n=n,
        k=1,
        d=1,
        x_generators=(),
        z_generators=tuple(PauliOperator(n, z=1 << q) for q in range(n - 1)),
        logical_x_reps=(PauliOperator(n, x=1 << (n - 1)),),
        logical_z_reps=(PauliOperator(n, z=1 << (n - 1)),),
    )
    ops = tuple(Init(q, "0") for q in range(n)) + (FinalMeasure("Z"),)
    circ = Circuit(n, ("control",) * n, tuple(f"c{q}" for q in range(n)), tuple(range(n)), ops)
    with pytest.raises(ValueError, match="64-bit"):
        verify_fault_tolerance(circ, state, 1, "X")


def test_flag_outcome_index_out_of_range_rejected():
    # Flag bits sit at 1 << outcome below the seed bits; an index past the
    # flag count would be read as a syndrome or residual bit.
    state = get_state("steane")
    ops = (
        *(Init(q, "0") for q in range(8)),
        CXGate(0, 7),
        FlagMeasure(7, "Z", 3),
        FinalMeasure("Z"),
    )
    circ = Circuit(8, ("control",) * 7 + ("flag_x",), tuple(f"q{i}" for i in range(8)),
                   tuple(range(7)) + (None,), ops)
    with pytest.raises(ValueError, match="m3"):
        circ.validate()
    with pytest.raises(ValueError, match="m3"):
        verify_fault_tolerance(circ, state, 1, "X")
    with pytest.raises(ValueError, match="m3"):
        build_effect_tables(circ, state)


def test_combination_cap_raises_before_any_block(monkeypatch, steane_circuit):
    state, _, circ = steane_circuit

    def no_blocks(nv, f):
        raise AssertionError("a combination block was built")

    monkeypatch.setattr(verify, "COMBINATION_CAP", 10)
    monkeypatch.setattr(verify, "_combination_blocks", no_blocks)
    with pytest.raises(VerificationBudgetError, match="exceed the cap 10"):
        verify_fault_tolerance(circ, state, 1, "X")
