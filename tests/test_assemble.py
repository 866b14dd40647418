import numpy as np
import pytest

from ftprep.assemble import (
    CircuitMetrics,
    OverrideNotCertifiedError,
    assemble_ft_circuit,
    certified_z_override,
    circuit_metrics,
    schedule_circuit,
)
from ftprep.bipartite import best_of_trials, synthesize_bipartite
from ftprep.catalog import get_state
from ftprep.circuit import Circuit, CXGate, FinalMeasure, flag_int
from ftprep.css import CssState
from ftprep.library import GadgetLibrary
from ftprep.pauli import PauliOperator
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
        x_generators=(PauliOperator(2, x=0b11),),
        z_generators=(PauliOperator(2, z=0b11),),
        logical_x_reps=(),
        logical_z_reps=(),
    )


def test_bell_with_flagged_gadgets(library):
    state = bell_state()
    bip = synthesize_bipartite(state, seed=1)
    asm = assemble_ft_circuit(state, bip, library, seed=2, use_trivial_gadgets=False)
    circ = asm.default_circuit()
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
    assert all(role != "flag_z" for role in circ.roles)
    assert tableau_check_circuit(circ, state) is None


def test_uncertified_override_rejected(library):
    state = get_state("color17")  # max Z coset weight 3: no downgrade below 2
    bip = best_of_trials(state, 50, 3)
    with pytest.raises(OverrideNotCertifiedError):
        assemble_ft_circuit(state, bip, library, z_gadget_t_override=0, seed=1)
    asm = assemble_ft_circuit(
        state, bip, library, z_gadget_t_override=0, allow_uncertified_override=True, seed=1
    )
    assert asm.t_z == 0


def test_golay_override_certified(library):
    state = get_state("golay")
    assert certified_z_override(state) == 2


def test_gate_count_identity(library):
    state = get_state("surface9")
    bip = best_of_trials(state, 100, 2)
    asm = assemble_ft_circuit(state, bip, library, seed=4, use_trivial_gadgets=False)
    circ = asm.default_circuit()
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
    circ = Circuit(0, (), (), (), (FinalMeasure("Z"),))
    m = circuit_metrics(circ)
    assert m == CircuitMetrics(0, 0, 0, 0)


def test_depth_greedy_layering():
    ops = (
        *(CXGate(a, b) for a, b in ((0, 1), (2, 3), (1, 2))),
        FinalMeasure("Z"),
    )
    # build a minimal raw circuit: inits implicit not needed for metrics
    circ = Circuit(4, ("control",) * 4, ("c0", "c1", "c2", "c3"), (0, 1, 2, 3), ops)
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
