import functools
import itertools
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ftprep
from ftprep import verify
from ftprep.assemble import assemble_ft_circuit, schedule_circuit
from ftprep.bipartite import best_of_trials
from ftprep.catalog import catalog_names, get_state, rotated_surface
from ftprep.circuit import Circuit, CXGate, FlagMeasure, Init, propagate_backward
from ftprep.css import CssState, coset_key_columns
from ftprep.gadgets import FlagGadget, ghz_preparation
from ftprep.library import GadgetLibrary
from ftprep.pipeline import build_preparation_circuit
from ftprep.serialization import ParseError, parse_circuit
from ftprep.verify import (
    VerificationBudgetError,
    enumerate_fault_locations,
    verify_fault_tolerance,
)

from _reference import all_fault_locations, min_weight_modulo, replay_faults


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
        FlagMeasure(1, "Z"),
    )
    return Circuit((0, None), ops)


def test_gadget_layer_loads_no_simulation_modules():
    # The gadget search runs verify, which needs neither the Monte Carlo
    # nor the decoder.
    code = "import sys, ftprep.gadgets; print(sorted(m for m in sys.modules if m.startswith('ftprep')))"
    env = {**os.environ, "PYTHONPATH": str(Path(ftprep.__file__).parents[1])}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert "ftprep.verify" in loaded
    assert "ftprep.noise" not in loaded and "ftprep.decoder" not in loaded


def test_verify_loads_no_masked_arrays():
    # np.isin sorts through np.unique, which imports numpy.ma (12-17 ms of
    # CPU and 1.2 MB); verify tests membership by a sorted search instead.
    # The FT test of every bundled gadget runs verify.
    code = (
        "import sys, numpy; before = 'numpy.ma' in sys.modules\n"
        "from ftprep.gadgets import gadget_ft_test\n"
        "from ftprep.library import GadgetLibrary\n"
        "assert all(gadget_ft_test(e.gadget) for e in GadgetLibrary.bundled().entries.values())\n"
        "print(before, 'numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ftprep.__file__).parents[1])}
    before, after = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    if before == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


def test_enumerate_counts_match_stated_rules():
    circ = toy_circuit()
    # X: the CX's copied pair and the Z-basis measurement's flip; no Init
    # site and no single-qubit CX pattern.
    x_locs = enumerate_fault_locations(circ, "X")
    assert [(l.site, l.variants) for l in x_locs] == [(2, (0b11,)), (3, (0b10,))]
    # Z: the CX's pair only; the Z-basis measurement does not see Z.
    z_locs = enumerate_fault_locations(circ, "Z")
    assert [(l.site, l.variants) for l in z_locs] == [(2, (0b11,))]
    empty = Circuit((), ())
    assert enumerate_fault_locations(empty, "X") == []


def test_steane_passes_both_types(steane_circuit):
    state, _, circ = steane_circuit
    assert verify_fault_tolerance(circ, state, 1, "X") is None
    assert verify_fault_tolerance(circ, state, 1, "Z") is None


def test_stripped_circuit_fails_with_replayable_counterexample(steane_circuit):
    state, bip, _ = steane_circuit
    bare = bip.bare_circuit()
    ce = verify_fault_tolerance(bare, state, 1, "X")
    assert ce is not None
    assert len(ce.faults) == 1
    flips, residual = replay_faults(bare, "X", list(ce.faults))
    assert flips == 0
    assert residual == ce.residual_code_mask


@pytest.mark.parametrize("name", ["color17", "golay"])
def test_counterexample_reduced_weight_is_exact(name):
    state = get_state(name)
    bare = best_of_trials(state, 5, 0).bare_circuit()
    for typ in ("X", "Z"):
        ce = verify_fault_tolerance(bare, state, 2, typ)
        assert ce is not None
        group = state.reduction_group(typ)
        assert ce.reduced_weight == min_weight_modulo(ce.residual_code_mask, group)


def test_rotated_surface_d7_bare_counterexamples_replay():
    # 24 same-type generators: past any enumeration of the stabilizer group.
    state = rotated_surface(7)
    bare = best_of_trials(state, 5, 0).bare_circuit()
    for typ in ("X", "Z"):
        ce = verify_fault_tolerance(bare, state, 1, typ)
        assert ce is not None
        assert ce.reduced_weight > len(ce.faults)
        flips, residual = replay_faults(bare, typ, list(ce.faults))
        assert flips == 0
        assert residual == ce.residual_code_mask


def test_stripped_z_side_safe_for_steane(steane_circuit):
    # Every Z error on the Steane state reduces to weight <= 1, so even the
    # bare circuit satisfies the Z-type criterion.
    state, bip, _ = steane_circuit
    assert verify_fault_tolerance(bip.bare_circuit(), state, 1, "Z") is None


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


def test_more_than_64_key_bits_rejected():
    # 64 Z generators plus one Z logical: 65 bits of the X-residual key.
    n = 65
    state = CssState(
        name="wide",
        n=n,
        k=1,
        d=1,
        x_stabilizers=(),
        z_stabilizers=tuple(1 << q for q in range(n - 1)),
        logical_x=(1 << (n - 1),),
        logical_z=(1 << (n - 1),),
    )
    ops = tuple(Init(q, "0") for q in range(n))
    circ = Circuit(tuple(range(n)), ops)
    with pytest.raises(ValueError, match="64 syndrome \\+ 1 class bits exceed the 64-bit key width"):
        verify_fault_tolerance(circ, state, 1, "X")


def test_more_than_64_code_qubits_verified():
    # Rotated surface d=9: 81 code qubits, 40 syndrome + 1 class key bits.
    state = rotated_surface(9)
    assert state.n > 64
    bare = best_of_trials(state, 5, 0).bare_circuit()
    ce = verify_fault_tolerance(bare, state, 1, "X")
    assert ce is not None and len(ce.faults) == 1
    flips, residual = replay_faults(bare, "X", list(ce.faults))
    assert flips == 0
    assert residual == ce.residual_code_mask


def test_flag_outcome_index_out_of_range_rejected():
    # The k-th flag measurement's bit is 1 << k, below the seed bits, so no
    # stored index can land among the syndrome or residual bits.  In the
    # text form a label past the flag count is an error on its line.
    state = get_state("steane")
    text = ("CIRCUIT code=steane state=|0>\n" + "".join(f"INIT0 t{q}\n" for q in range(7))
            + "INIT0 f0\nCX t0 f0\nMZ f0 -> m3\nFINAL_MEAS Z\n")
    with pytest.raises(ParseError, match=r"^line 11: measurement 0 must record m0, not m3$"):
        parse_circuit(text)
    circ, _, _ = parse_circuit(text.replace("m3", "m0"))
    assert propagate_backward(circ, coset_key_columns(state, "X"), "X")[9, 7] == (1, 0)


@pytest.mark.parametrize("t", [0, -2])
def test_t_below_one_is_rejected_before_enumeration(monkeypatch, steane_circuit, t):
    state, _, circ = steane_circuit

    def no_enumeration(*args):
        raise AssertionError("fault locations were enumerated")

    monkeypatch.setattr(verify, "enumerate_fault_locations", no_enumeration)
    with pytest.raises(ValueError, match="require t >= 1"):
        verify_fault_tolerance(circ, state, t, "X")


def test_combination_cap_raises_before_any_block(monkeypatch, steane_circuit):
    state, _, circ = steane_circuit

    def no_blocks(lo, hi):
        raise AssertionError("a block was built")

    monkeypatch.setattr(verify, "COMBINATION_CAP", 10)
    monkeypatch.setattr(verify, "_ranges", no_blocks)
    with pytest.raises(VerificationBudgetError, match="exceed the cap 10") as info:
        verify_fault_tolerance(circ, state, 1, "X")
    assert isinstance(info.value, ValueError)


def _filed_under(library, t_from, t_to):
    """``library`` with its t_from gadgets also filed under t_to: a circuit
    assembled from it is protected against fewer faults than its labels say."""
    weak = GadgetLibrary(dict(library.entries))
    for (t, r), entry in library.entries.items():
        if t == t_from:
            weak.entries[(t_to, r)] = entry
    return weak


def _brute_force(circuit, state, t, fault_type, locations=None):
    """Reference verdict: scan every combination of f <= t variants at
    distinct locations in lexicographic order, smallest f first, and return
    the first undetected one whose residual reduces by group enumeration to
    weight above f, as (faults, residual, reduced weight).  ``locations``
    are ``(site, masks)`` pairs, by default the verifier's own.  Replay is
    linear in the fault set, so each variant is replayed once and a
    combination XORs its variants' flips and residuals."""
    if locations is None:
        locations = [(l.site, l.variants) for l in enumerate_fault_locations(circuit, fault_type)]
    loc = [i for i, (_, masks) in enumerate(locations) for _ in masks]
    faults = [(site, mask) for site, masks in locations for mask in masks]
    flips, resid = zip(*(replay_faults(circuit, fault_type, [f]) for f in faults))
    group = state.reduction_group(fault_type)

    @functools.cache
    def weight(mask):
        return min_weight_modulo(mask, group)

    for f in range(1, t + 1):
        for combo in itertools.combinations(range(len(faults)), f):
            if functools.reduce(operator.xor, [flips[v] for v in combo]):
                continue
            if len({loc[v] for v in combo}) < f:
                continue
            residual = functools.reduce(operator.xor, [resid[v] for v in combo])
            if weight(residual) > f:
                return tuple(faults[v] for v in combo), residual, weight(residual)
    return None


@pytest.fixture(scope="module")
def color17_weakened(library):
    state = get_state("color17")
    bip = best_of_trials(state, 5, 0)
    circuits = {}
    for label, lib in (("t=2 gadgets", library), ("t=1 gadgets", _filed_under(library, 1, 2))):
        asm = assemble_ft_circuit(state, bip, lib, seed=5)
        circuits[label] = schedule_circuit(asm, "min_max_qubits", shuffles=5, seed=3)
    return state, circuits


@pytest.mark.parametrize(
    "case, t, fault_type, first_failure",
    [
        ("steane", 2, "X", None),
        ("steane", 2, "Z", None),
        ("steane", 3, "X", None),
        ("steane", 3, "Z", None),
        ("t=2 gadgets", 2, "X", None),
        ("t=2 gadgets", 2, "Z", None),
        ("t=2 gadgets", 3, "X", 3),
        ("t=1 gadgets", 2, "X", 2),
        ("t=1 gadgets", 2, "Z", 2),
        ("t=1 gadgets", 3, "X", 2),
        ("t=1 gadgets", 3, "Z", 2),
    ],
)
def test_join_matches_brute_force_scan(monkeypatch, steane_circuit, color17_weakened, case, t,
                                       fault_type, first_failure):
    if case == "steane":
        state, _, circ = steane_circuit
    else:
        state, circuits = color17_weakened
        circ = circuits[case]
    ref = _brute_force(circ, state, t, fault_type)
    assert (None if ref is None else len(ref[0])) == first_failure
    # A small block size also checks the order across block boundaries.
    for block in (verify.JOIN_BLOCK, 1000):
        monkeypatch.setattr(verify, "JOIN_BLOCK", block)
        ce = verify_fault_tolerance(circ, state, t, fault_type)
        assert (None if ce is None else (ce.faults, ce.residual_code_mask, ce.reduced_weight)) == ref


def _smallest_failures_match_all_sites(circuit, state, t, fault_type):
    """Check verify at every t' <= t against the brute force over every
    single-qubit fault site: the same verdict and the same smallest failing
    f, and each counterexample replays undetected with its residual and a
    reduced weight above f.  Returns the smallest failing f up to t, or
    None."""
    ref = _brute_force(circuit, state, t, fault_type, all_fault_locations(circuit, fault_type))
    first = None if ref is None else len(ref[0])
    group = state.reduction_group(fault_type)
    for t_ in range(1, t + 1):
        ce = verify_fault_tolerance(circuit, state, t_, fault_type)
        assert (None if ce is None else len(ce.faults)) == (first if first and first <= t_ else None)
        if ce is not None:
            flips, residual = replay_faults(circuit, fault_type, list(ce.faults))
            assert flips == 0 and residual == ce.residual_code_mask
            assert ce.reduced_weight == min_weight_modulo(residual, group) > len(ce.faults)
    return first


def _without_cx(circuit, rng, k):
    """``circuit`` with k of its CX gates, chosen by ``rng``, removed."""
    cx = [pos for pos, op in enumerate(circuit.ops) if isinstance(op, CXGate)]
    drop = set(rng.choice(cx, size=k, replace=False).tolist())
    return Circuit(circuit.code_index, tuple(op for pos, op in enumerate(circuit.ops) if pos not in drop))


@pytest.mark.parametrize("name", ["steane", "surface9", "color17"])
def test_verify_matches_all_sites_brute_force_on_catalog_circuits(library, name):
    # The verifier lists one pattern per CX and the detecting flag flips;
    # every other fault moves forward to one of these.  Bare circuits,
    # default and no-Z-gadget assemblies, and each with 1-3 CX removed.
    state = get_state(name)
    bip = best_of_trials(state, 5, 0)
    circuits = [bip.bare_circuit()]
    for kwargs in ({}, {"z_gadget_t_override": 0, "allow_uncertified_override": True}):
        asm = assemble_ft_circuit(state, bip, library, seed=5, **kwargs)
        circuits.append(schedule_circuit(asm, "min_max_qubits", shuffles=5, seed=3))
    rng = np.random.default_rng(11)
    circuits += [_without_cx(c, rng, k) for c in circuits[1:] for k in (1, 2, 3)]
    firsts = [
        _smallest_failures_match_all_sites(circ, state, 2, fault_type)
        for circ in circuits for fault_type in ("X", "Z")
    ]
    assert None in firsts and 1 in firsts


@pytest.mark.parametrize("seed", range(4))
def test_verify_matches_all_sites_brute_force_on_random_gadgets(library, seed):
    # Random partial gadgets as the circuits that prepare their GHZ states:
    # a bundled gadget's last gates (the search builds from the temporal end
    # backwards), with a random gate put in at random, checked up to one
    # fault past the gadget's t (at most 3).
    rng = np.random.default_rng(seed)
    entries = [e.gadget for (t, r), e in sorted(library.entries.items()) if r <= 8]
    firsts = []
    for _ in range(25):
        g = entries[int(rng.integers(len(entries)))]
        gates = list(g.gates[int(rng.integers(len(g.gates))):])
        if rng.random() < 0.5:
            gate = tuple(int(q) for q in rng.choice(1 + g.r + g.m, size=2, replace=False))
            gates.insert(int(rng.integers(len(gates) + 1)), gate)
        circuit, ghz = ghz_preparation(FlagGadget(g.t, g.r, g.m, tuple(gates)))
        firsts.append(_smallest_failures_match_all_sites(circuit, ghz, min(g.t + 1, 3), "X"))
    assert None in firsts and any(f is not None and f > 1 for f in firsts)


def _random_circuit(rng, n, n_flags, n_cx):
    """Code qubits in random bases, random CX gates among them, and CX gates
    onto Z-measured flags: arbitrary structure for reference comparisons."""
    ops = [Init(q, "0+"[int(rng.integers(2))]) for q in range(n)]
    ops += [Init(n + j, "0") for j in range(n_flags)]
    for _ in range(n_cx):
        if rng.random() < 0.3:
            ops.append(CXGate(int(rng.integers(n)), n + int(rng.integers(n_flags))))
        else:
            a, b = rng.choice(n, 2, replace=False)
            ops.append(CXGate(int(a), int(b)))
    ops += [FlagMeasure(n + j, "Z") for j in range(n_flags)]
    return Circuit(tuple(range(n)) + (None,) * n_flags, tuple(ops))


@pytest.mark.parametrize("seed", range(3))
def test_join_matches_brute_force_on_random_circuits(seed):
    state = get_state("steane")
    rng = np.random.default_rng(seed)
    for _ in range(20):
        circ = _random_circuit(rng, state.n, 2, int(rng.integers(3, 14)))
        for fault_type in ("X", "Z"):
            ref = _brute_force(circ, state, 3, fault_type)
            ce = verify_fault_tolerance(circ, state, 3, fault_type)
            assert (None if ce is None else (ce.faults, ce.residual_code_mask, ce.reduced_weight)) == ref


@pytest.mark.parametrize("seed", range(3))
def test_verify_matches_all_sites_brute_force_on_random_circuits(seed):
    state = get_state("steane")
    rng = np.random.default_rng(100 + seed)
    for _ in range(20):
        circ = _random_circuit(rng, state.n, 2, int(rng.integers(3, 14)))
        for fault_type in ("X", "Z"):
            _smallest_failures_match_all_sites(circ, state, 3, fault_type)


def test_last_variant_of_a_join_range_is_checked():
    # One CX between two |+> qubits: its X_a X_b pattern, the last variant
    # of the circuit, is the only fault whose residual reduces above weight 1.
    state = get_state("steane")
    ops = (*(Init(q, "+") for q in range(7)), CXGate(0, 1))
    circ = Circuit(tuple(range(7)), ops)
    ce = verify_fault_tolerance(circ, state, 1, "X")
    assert ce is not None and ce.faults == ((7, 0b11),)
    assert (ce.faults, ce.residual_code_mask, ce.reduced_weight) == _brute_force(circ, state, 1, "X")


@pytest.mark.parametrize("block", [1, 4, 1000])
def test_prefixes_are_distinct_location_combinations_in_order(monkeypatch, block):
    monkeypatch.setattr(verify, "JOIN_BLOCK", block)
    n = 7  # one fault per location
    for k in range(4):
        rows, starts = [], []
        for prefix, start in verify._prefixes(k, n):
            rows += map(tuple, prefix.tolist())
            starts += start.tolist()
        want = list(itertools.combinations(range(n), k))
        assert rows == want
        assert starts == [c[-1] + 1 if c else 0 for c in want]


def test_golay_t2_gadgets_under_t3_labels_fail_at_three_faults(library):
    state = get_state("golay")
    bip = best_of_trials(state, 5, 0)
    asm = assemble_ft_circuit(state, bip, _filed_under(library, 2, 3), z_gadget_t_override=2, seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=5, seed=3)
    ce = verify_fault_tolerance(circ, state, 3, "X")
    assert ce is not None and len(ce.faults) == 3
    flips, residual = replay_faults(circ, "X", list(ce.faults))
    assert flips == 0
    assert residual == ce.residual_code_mask
    assert ce.reduced_weight == min_weight_modulo(residual, state.reduction_group("X")) > 3


@functools.cache
def _criterion_10_circuit(name):
    """``name``'s state and its circuit as criterion 10 builds it."""
    state = get_state(name)
    prep = build_preparation_circuit(
        state, GadgetLibrary.bundled(), bip_trials=100, assembly_candidates=4, shuffles=50,
        seed=9, use_trivial_gadgets=True,
    )
    return state, prep.circuit


@pytest.mark.parametrize("side", ["X", "Z"])
@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_circuit_is_fault_tolerant_at_full_t(name, side):
    state, circ = _criterion_10_circuit(name)
    assert verify_fault_tolerance(circ, state, state.t, side) is None
