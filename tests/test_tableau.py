from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ftprep.circuit import Circuit, CXGate, FlagMeasure, Init
from ftprep.css import CssState
from ftprep.tableau import Tableau, tableau_check_circuit

from _reference import run_tableau_with_faults


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


def bell_circuit() -> Circuit:
    ops = (Init(0, "+"), Init(1, "0"), CXGate(0, 1))
    return Circuit((0, 1), ops)


def test_bell_preparation_checks():
    assert tableau_check_circuit(bell_circuit(), bell_state()) is None


def test_missing_gate_is_detected():
    ops = (Init(0, "+"), Init(1, "0"))
    circ = Circuit((0, 1), ops)
    mismatch = tableau_check_circuit(circ, bell_state())
    assert mismatch is not None
    assert mismatch.kind == "unsatisfied-stabilizer"


def test_deterministic_flag_requirement():
    # Measuring a flag that is still entangled must be reported.
    ops = (
        Init(0, "+"),
        Init(2, "0"),
        CXGate(0, 2),
        FlagMeasure(2, "Z", 0),
        Init(1, "0"),
        CXGate(0, 1),
    )
    circ = Circuit((0, 1, None), ops)
    mismatch = tableau_check_circuit(circ, bell_state())
    assert mismatch is not None
    assert mismatch.kind == "nondeterministic-flag"


def test_pauli_fault_flips_flag():
    # A hook X on the control between bracket gates flips the flag.
    ops = (
        Init(0, "+"),
        Init(2, "0"),
        CXGate(0, 2),
        Init(1, "0"),
        CXGate(0, 1),
        CXGate(0, 2),
        FlagMeasure(2, "Z", 0),
    )
    circ = Circuit((0, 1, None), ops)
    # fault after op 2 (the first bracket CX): X on the control
    _, outcomes, deterministic = run_tableau_with_faults(circ, faults=[(2, 0b001, 0)])
    assert deterministic[0] and outcomes[0] == 1
    # the same fault after the closing bracket CX leaves the flag at +1
    _, outcomes, _ = run_tableau_with_faults(circ, faults=[(5, 0b001, 0)])
    assert outcomes[0] == 0


def test_measurement_collapse_statistics():
    tab = Tableau(1)
    tab.h(0)
    rng = np.random.default_rng(1)
    out, det = tab.measure_z(0, rng)
    assert not det
    out2, det2 = tab.measure_z(0, rng)
    assert det2 and out2 == out


def test_assembled_circuit_mutation_detected():
    from ftprep.assemble import assemble_ft_circuit, schedule_circuit
    from ftprep.bipartite import best_of_trials
    from ftprep.catalog import get_state
    from ftprep.library import GadgetLibrary

    state = get_state("steane")
    bip = best_of_trials(state, 100, 7)
    asm = assemble_ft_circuit(state, bip, GadgetLibrary.bundled(), seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=10, seed=3)
    assert tableau_check_circuit(circ, state) is None
    # deleting any single CX breaks the prepared state or a flag outcome
    cut = next(i for i, op in enumerate(circ.ops) if isinstance(op, CXGate))
    mutated = replace(circ, ops=tuple(op for i, op in enumerate(circ.ops) if i != cut))
    assert tableau_check_circuit(mutated, state) is not None


# -- dense state-vector reference ---------------------------------------------


@st.composite
def clifford_programs(draw, max_qubits=4, max_ops=24):
    """Random H / CX / Pauli / Z-measurement sequences on at most 4 qubits."""
    n = draw(st.integers(1, max_qubits))
    qubit = st.integers(0, n - 1)
    mask = st.integers(0, (1 << n) - 1)
    ops = [st.tuples(st.just("h"), qubit), st.tuples(st.just("pauli"), mask, mask),
           st.tuples(st.just("mz"), qubit)]
    if n > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
        ops.append(st.tuples(st.just("cx"), pair))
    return n, draw(st.lists(st.one_of(ops), max_size=max_ops)), draw(st.integers(0, 2**32 - 1))


def pauli_image(psi: np.ndarray, x_mask: int, z_mask: int) -> np.ndarray:
    """The Hermitian Pauli with these masks (x & z marks a Y) applied to psi."""
    idx = np.arange(len(psi))
    signs = 1 - 2 * (np.bitwise_count(idx & z_mask) & 1).astype(int)
    return 1j ** (x_mask & z_mask).bit_count() * (signs * psi)[idx ^ x_mask]


@settings(max_examples=300, deadline=None)
@given(clifford_programs())
def test_tableau_matches_state_vector(program):
    n, ops, seed = program
    idx = np.arange(1 << n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    tab = Tableau(n)
    rng = np.random.default_rng(seed)
    for op in ops:
        if op[0] == "h":
            q = op[1]
            tab.h(q)
            lo, hi = psi[idx & ~(1 << q)], psi[idx | (1 << q)]
            psi = np.where(idx >> q & 1, lo - hi, lo + hi) / np.sqrt(2)
        elif op[0] == "cx":
            a, b = op[1]
            tab.cx(a, b)
            psi = psi[idx ^ ((idx >> a & 1) << b)]
        elif op[0] == "pauli":
            tab.apply_pauli(op[1], op[2])
            psi = pauli_image(psi, op[1], op[2])
        else:
            q = op[1]
            p_one = float(np.sum(np.abs(psi[idx >> q & 1 == 1]) ** 2))
            out, det = tab.measure_z(q, rng)
            assert det == (p_one < 1e-9 or p_one > 1 - 1e-9)
            if det:
                assert out == round(p_one)
            psi = np.where(idx >> q & 1 == out, psi, 0)
            psi /= np.linalg.norm(psi)
    # Every Pauli: expectation +1 / -1 / 0 is sign 0 / 1 / not a stabilizer.
    for x_mask in range(1 << n):
        for z_mask in range(1 << n):
            expect = np.vdot(psi, pauli_image(psi, x_mask, z_mask)).real
            want = 0 if expect > 0.5 else 1 if expect < -0.5 else None
            assert tab.stabilizer_sign(x_mask, z_mask) == want
