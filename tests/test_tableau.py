from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftprep.assemble import assemble_ft_circuit
from ftprep.bipartite import synthesize_bipartite
from ftprep.catalog import catalog_names, get_state
from ftprep.circuit import Circuit, CXGate, FlagMeasure, Init
from ftprep.css import CssState, swap_xz
from ftprep.gadgets import ghz_preparation
from ftprep.library import GadgetLibrary
from ftprep.noise import (
    NoiseModel,
    build_effect_tables,
    build_subset_plan,
    count_fault_locations,
    run_monte_carlo,
)
from ftprep.steane_qec import SteaneQecConfig, run_steane_qec_experiment
from ftprep.tableau import tableau_check_circuit
from ftprep.verify import VerificationBudgetError, verify_fault_tolerance

from _reference import Tableau, run_tableau_with_faults, tableau_check_reference


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
        FlagMeasure(2, "Z"),
        Init(1, "0"),
        CXGate(0, 1),
    )
    circ = Circuit((0, 1, None), ops)
    mismatch = tableau_check_circuit(circ, bell_state())
    assert mismatch is not None
    assert mismatch.kind == "nondeterministic-flag"


def bell_plus_zero() -> CssState:
    """A Bell pair with a third qubit in |0>: X0X1, Z0Z1 and Z2."""
    return CssState(
        name="bell+0",
        n=3,
        k=0,
        d=1,
        x_stabilizers=(0b011,),
        z_stabilizers=(0b011, 0b100),
        logical_x=(),
        logical_z=(),
    )


CHECKS = {
    "noiseless": tableau_check_circuit,
    "verify": lambda circ, state: verify_fault_tolerance(circ, state, 1, "X"),
    "effect-tables": build_effect_tables,
}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
@pytest.mark.parametrize("circ", [
    bell_circuit(),  # code qubit 2 missing
    Circuit((0, 1, 2, 3), (*(Init(q, "+" if q == 0 else "0") for q in range(4)), CXGate(0, 1))),
], ids=["missing", "extra"])
def test_code_qubits_must_be_the_states(check, circ):
    # A missing code qubit would go unchecked, and an extra one indexes past
    # the key columns.
    with pytest.raises(ValueError, match=r"^circuit code qubits are not exactly 0\.\.2, each used once$"):
        check(circ, bell_plus_zero())


def _monte_carlo(circ: Circuit, state: CssState):
    plan = build_subset_plan(*count_fault_locations(circ), 1e-3, 1e-5, 1_000)
    return run_monte_carlo(circ, state, NoiseModel(1e-3), plan, seed=1)


ENTRIES = {
    "verify-X": lambda circ, state: verify_fault_tolerance(circ, state, 1, "X"),
    "verify-Z": lambda circ, state: verify_fault_tolerance(circ, state, 1, "Z"),
    "effect-tables": build_effect_tables,
    "monte-carlo": _monte_carlo,
    "steane-qec": lambda circ, state: run_steane_qec_experiment(SteaneQecConfig(state, 1e-3, 1_000), circ),
    "noiseless": tableau_check_circuit,
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_every_analysis_rejects_a_circuit_outside_the_model(entry):
    # The Steane bare circuit with its first Init moved last: every entry
    # reads the backward sweep, which validates the circuit first.
    state = get_state("steane")
    bare = synthesize_bipartite(state, 7).bare_circuit()
    circ = Circuit(bare.code_index, bare.ops[1:] + bare.ops[:1])
    with pytest.raises(ValueError, match="^qubit 0 used before initialization$"):
        entry(circ, state)


def test_verify_rejects_a_circuit_outside_the_model_before_the_cap():
    # At t = 9 the Golay bare circuit holds far more fault combinations than
    # the cap; with its first Init moved last, the circuit error comes first.
    state = get_state("golay")
    bare = synthesize_bipartite(state, 7).bare_circuit()
    with pytest.raises(VerificationBudgetError, match="exceed the cap"):
        verify_fault_tolerance(bare, state, 9, "X")
    circ = Circuit(bare.code_index, bare.ops[1:] + bare.ops[:1])
    with pytest.raises(ValueError, match="^qubit 0 used before initialization$"):
        verify_fault_tolerance(circ, state, 9, "X")


def test_uninitialized_qubit_raises():
    # The tableau starts an uninitialized qubit in |0>, so it passes this
    # circuit for |+>|0>; the check requires every qubit initialized.
    state = replace(bell_state(), x_stabilizers=(0b01,), z_stabilizers=(0b10,))
    circ = Circuit((0, 1), (Init(0, "+"),))
    assert tableau_check_reference(circ, state) is None
    with pytest.raises(ValueError, match="^qubit 1 never initialized$"):
        tableau_check_circuit(circ, state)


def _mutants(circ: Circuit, rng: np.random.Generator) -> list[Circuit]:
    """One CX deleted, two CX swapped, one CX reversed and one Init's basis
    flipped, each kept only when it still passes ``Circuit.validate``."""
    ops = list(circ.ops)
    cx = [i for i, op in enumerate(ops) if isinstance(op, CXGate)]
    inits = [i for i, op in enumerate(ops) if isinstance(op, Init)]
    cut, (i, j), k = rng.choice(cx), rng.choice(cx, 2, replace=False), rng.choice(cx)
    m = rng.choice(inits)
    swapped, reversed_, flipped = ops[:], ops[:], ops[:]
    swapped[i], swapped[j] = ops[j], ops[i]
    reversed_[k] = CXGate(ops[k].target, ops[k].control)
    flipped[m] = Init(ops[m].qubit, "0" if ops[m].basis == "+" else "+")
    mutants = []
    for mutant_ops in (ops[:cut] + ops[cut + 1:], swapped, reversed_, flipped):
        mutant = replace(circ, ops=tuple(mutant_ops))
        try:
            mutant.validate()
        except ValueError:
            continue
        mutants.append(mutant)
    return mutants


def test_check_matches_tableau_reference():
    # Catalog assemblies of both states, checked against their own state and
    # the other basis's, their seeded mutants, and every bundled gadget's
    # GHZ preparation: the sweep's verdict is the tableau's, kind and detail.
    library = GadgetLibrary.bundled()
    rng = np.random.default_rng(36)
    cases = [ghz_preparation(entry.gadget) for entry in library.entries.values()]
    for name in catalog_names():
        for label in ("|0>", "|+>"):
            state = get_state(name, label)
            for seed in range(3):
                bip = synthesize_bipartite(state, seed=seed)
                for trivial in (True, False):
                    asm = assemble_ft_circuit(state, bip, library, seed=seed, use_trivial_gadgets=trivial)
                    circ = asm.schedule(asm.tight_order())
                    cases += [(circ, state), (circ, swap_xz(state))]
                    cases += [(mutant, state) for mutant in _mutants(circ, rng)]
    kinds = Counter()
    for circ, state in cases:
        mismatch = tableau_check_circuit(circ, state)
        assert mismatch == tableau_check_reference(circ, state), (state.name, circ)
        kinds[mismatch and mismatch.kind] += 1
    assert kinds.keys() == {None, "nondeterministic-flag", "unsatisfied-stabilizer"}, kinds


def test_pauli_fault_flips_flag():
    # A hook X on the control between bracket gates flips the flag.
    ops = (
        Init(0, "+"),
        Init(2, "0"),
        CXGate(0, 2),
        Init(1, "0"),
        CXGate(0, 1),
        CXGate(0, 2),
        FlagMeasure(2, "Z"),
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
