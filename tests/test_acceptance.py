"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured values; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  All randomness is
seeded, so the measured numbers reproduce exactly.
"""

import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ftprep.assemble import (
    assemble_ft_circuit,
    circuit_metrics,
    schedule_circuit,
)
from ftprep.bipartite import best_of_trials
from ftprep.catalog import catalog_names, get_state
from ftprep.css import max_coset_weight
from ftprep.decoder import build_ml_lut, build_mw_lut, decode, evaluate_test_set
from ftprep.gadgets import FOUND, SEARCH_EXHAUSTED, discover_gadget
from ftprep.library import GadgetLibrary
from ftprep.noise import (
    NoiseModel,
    build_effect_tables,
    build_subset_plan,
    count_fault_locations,
    run_monte_carlo,
)
from ftprep.pipeline import build_preparation_circuit
from ftprep.steane_qec import (
    FT_X_ONLY,
    FULL_FT,
    NO_QEC,
    SteaneQecConfig,
    run_steane_qec_experiment,
)
from ftprep.verify import verify_fault_tolerance

from _reference import frame_replay_check, syndrome_and_class


@pytest.fixture(scope="module")
def library():
    return GadgetLibrary.bundled()


@pytest.fixture(scope="module")
def steane_prep(library):
    state = get_state("steane")
    prep = build_preparation_circuit(
        state, library, bip_trials=200, assembly_candidates=6, shuffles=100,
        seed=9, use_trivial_gadgets=False,
    )
    return state, prep


@pytest.fixture(scope="module")
def color17_prep(library):
    state = get_state("color17")
    prep = build_preparation_circuit(
        state, library, bip_trials=150, assembly_candidates=4, shuffles=100,
        seed=9, use_trivial_gadgets=False,
    )
    return state, prep


def _mc(state, circ, p, effective_target, seed, tables=None):
    l_p, l_q = count_fault_locations(circ)
    p_triv = (1 - p) ** l_p * (1 - p / 100) ** l_q
    samples = max(int(effective_target * (1 - p_triv)), 10_000)
    plan = build_subset_plan(l_p, l_q, p, p / 100, samples)
    if tables is None:
        tables = build_effect_tables(circ, state)
    return run_monte_carlo(circ, state, NoiseModel(p), plan, seed=seed, tables=tables)


def _minimal_flags(t, r):
    """The smallest m with a (t, r, m) gadget, and whether every smaller m
    was exhausted (its certificate)."""
    m = 0
    while True:
        res = discover_gadget(t, r, m, budget=None)
        if res.status == FOUND:
            return m, True
        if res.status != SEARCH_EXHAUSTED:
            return m, False
        m += 1


def test_criterion_1_gadget_table_row_t2():
    expected = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 3, 8: 3, 9: 3, 10: 3, 11: 3, 12: 4, 13: 4}
    start = time.time()
    # The rows are independent searches; two processes run the (2, 12, 3)
    # and (2, 13, 3) exhaustions side by side.  map keeps the input order.
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        rows = list(pool.map(_minimal_flags, itertools.repeat(2), expected))
    for (r, flags), (m, certified) in zip(expected.items(), rows):
        assert certified, f"r={r}: certificate chain broken"
        assert m == flags, f"r={r}: found {m} flags, expected {flags}"
    elapsed = time.time() - start
    assert elapsed < 600, f"t=2 row took {elapsed:.0f}s (> 10 min)"
    print(f"\n[criterion 1] PASS: t=2 flag counts 1-13 reproduced with "
          f"exhaustion certificates in {elapsed:.0f}s")


def test_criterion_2_gadget_table_row_t3():
    expected = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 4, 8: 4}
    start = time.time()
    for r, flags in expected.items():
        m, certified = _minimal_flags(3, r)
        assert certified and m == flags, f"r={r}: {m} flags (expected {flags})"
    elapsed = time.time() - start
    assert elapsed < 7200
    print(f"\n[criterion 2] PASS: t=3 flag counts 1-8 reproduced with "
          f"certificates in {elapsed:.1f}s")


def test_criterion_3_exhaustive_verification(steane_prep, color17_prep):
    state_s, prep_s = steane_prep
    start = time.time()
    for typ in ("X", "Z"):
        assert verify_fault_tolerance(prep_s.circuit, state_s, 1, typ) is None
    steane_time = time.time() - start
    assert steane_time < 60

    state_c, prep_c = color17_prep
    start = time.time()
    for typ in ("X", "Z"):
        assert verify_fault_tolerance(prep_c.circuit, state_c, 2, typ) is None
    color_time = time.time() - start
    assert color_time < 4 * 3600

    for state, prep in (steane_prep, color17_prep):
        bare = prep.bipartite.bare_circuit()
        ce = verify_fault_tolerance(bare, state, 1, "X")
        assert ce is not None and len(ce.faults) == 1
    print(f"\n[criterion 3] PASS: Steane t=1 both types ({steane_time:.1f}s), "
          f"[[17,1,5]] t=2 both types ({color_time:.1f}s); stripped variants "
          f"yield single-fault counterexamples")


def test_criterion_4_steane_table_row(steane_prep):
    state, prep = steane_prep
    start = time.time()
    res = _mc(state, prep.circuit, 1e-3, 1.05e8, seed=42)
    assert res.effective_samples >= 1e8
    assert 0.975 <= res.acceptance_rate <= 0.981, res.acceptance_rate
    ml = build_ml_lut(res.train)
    mw = build_mw_lut(state, "X", 1)
    report = evaluate_test_set(res.test, ml, mw)
    assert 1.8e-5 <= report.logical_error_rate <= 4.4e-5, report.logical_error_rate
    elapsed = time.time() - start
    assert elapsed < 3600
    print(f"\n[criterion 4] PASS: acceptance {res.acceptance_rate:.5f} in "
          f"[0.975, 0.981]; logical {report.logical_error_rate:.3g} in "
          f"[1.8e-5, 4.4e-5] over {res.effective_samples:.3g} effective samples "
          f"({elapsed:.0f}s)")


def test_criterion_5_scaling_slopes(steane_prep, color17_prep):
    state_s, prep_s = steane_prep
    tables_s = build_effect_tables(prep_s.circuit, state_s)
    mw_s = build_mw_lut(state_s, "X", 1)
    ps = [2.5e-3, 5e-3, 1e-2]
    rates = []
    for p in ps:
        res = _mc(state_s, prep_s.circuit, p, 3e7, seed=42, tables=tables_s)
        rep = evaluate_test_set(res.test, build_ml_lut(res.train), mw_s)
        rates.append(rep.logical_error_rate)
    slope_s = float(np.polyfit(np.log(ps), np.log(rates), 1)[0])
    assert 1.7 <= slope_s <= 2.3, slope_s

    state_c, prep_c = color17_prep
    tables_c = build_effect_tables(prep_c.circuit, state_c)
    mw_c = build_mw_lut(state_c, "X", 2)
    ps_c = [5e-3, 7.5e-3, 1e-2]
    rates_c = []
    for p in ps_c:
        res = _mc(state_c, prep_c.circuit, p, 2e7, seed=43, tables=tables_c)
        rep = evaluate_test_set(res.test, build_ml_lut(res.train), mw_c)
        rates_c.append(rep.logical_error_rate)
    slope_c = float(np.polyfit(np.log(ps_c), np.log(rates_c), 1)[0])
    assert 2.5 <= slope_c <= 3.5, slope_c
    print(f"\n[criterion 5] PASS: Steane slope {slope_s:.2f} (2.0 +- 0.3); "
          f"[[17,1,5]] slope {slope_c:.2f} (3.0 +- 0.5)")


def test_criterion_6_golay_code_capacity_exactness():
    golay = get_state("golay")
    mw = build_mw_lut(golay, "X", 3)
    assert len(mw) == 2047
    assert mw.synd.tolist() == list(range(1, 2**11))
    synds, classes = [], []
    for w in range(1, 4):
        for qubits in itertools.combinations(range(23), w):
            mask = 0
            for q in qubits:
                mask |= 1 << q
            synd, cls = syndrome_and_class(mask, golay, "X")
            synds.append(synd)
            classes.append(cls)
    assert decode(synds, None, mw)[0].tolist() == classes
    checked = len(synds)
    print(f"\n[criterion 6] PASS: Golay MW-LUT has 2047 syndromes covering all "
          f"nonzero 11-bit patterns; {checked} enumerated errors decode exactly")


def test_criterion_7_coset_max_weights():
    w_steane = max_coset_weight(get_state("steane"), "Z")
    w_golay = max_coset_weight(get_state("golay"), "Z")
    assert w_steane == 1
    assert w_golay == 3
    print(f"\n[criterion 7] PASS: max coset weight Steane(Z) = {w_steane}, "
          f"Golay(Z) = {w_golay}")


def test_criterion_8_golay_circuit_size(library):
    state = get_state("golay")
    bip = best_of_trials(state, trials=1000, seed=11)
    asm = assemble_ft_circuit(
        state, bip, library, z_gadget_t_override=2, seed=5, width_anneal=60_000
    )
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=10_000, seed=3)
    m = circuit_metrics(circ)
    assert m.cx_count <= 260, m.cx_count
    assert m.max_simultaneous_qubits <= 56, m.max_simultaneous_qubits
    for typ in ("X", "Z"):
        assert verify_fault_tolerance(circ, state, state.t, typ) is None
    print(f"\n[criterion 8] PASS: Golay circuit {m.cx_count} CX (<= 260), "
          f"{m.max_simultaneous_qubits} simultaneous qubits (<= 56), "
          f"{m.flag_count} flags; t={state.t} exhaustive verification passes both types")


def test_criterion_9_steane_qec_ablation(color17_prep, library):
    state, prep = color17_prep
    asm_x = assemble_ft_circuit(
        state, prep.bipartite, library,
        z_gadget_t_override=0, allow_uncertified_override=True, seed=5,
    )
    x_circ = schedule_circuit(asm_x, "min_max_qubits", shuffles=50, seed=3)
    multiplier = 6.0
    ps = [2.5e-3, 5e-3, 1e-2]
    rates = {}
    for mode, circ in ((FULL_FT, prep.circuit), (FT_X_ONLY, x_circ), (NO_QEC, None)):
        rates[mode] = []
        for p in ps:
            cfg = SteaneQecConfig(
                state, p, samples=3_000_000, prep_mode=mode,
                data_noise_multiplier=multiplier, seed=77,
            )
            rates[mode].append(run_steane_qec_experiment(cfg, circ).logical_error_rate)
    slope_full = float(np.polyfit(np.log(ps), np.log(rates[FULL_FT]), 1)[0])
    slope_x = float(np.polyfit(np.log(ps), np.log(rates[FT_X_ONLY]), 1)[0])
    assert 2.5 <= slope_full <= 3.5, slope_full
    assert 1.7 <= slope_x <= 2.3, slope_x
    assert rates[FULL_FT][0] <= rates[NO_QEC][0]
    for mode in (FULL_FT, NO_QEC):
        cfg = SteaneQecConfig(
            state, 1e-3, samples=6_000_000, prep_mode=mode,
            data_noise_multiplier=multiplier, seed=78,
        )
        rates[mode + "@1e-3"] = run_steane_qec_experiment(
            cfg, prep.circuit if mode == FULL_FT else None
        ).logical_error_rate
    assert rates[FULL_FT + "@1e-3"] <= rates[NO_QEC + "@1e-3"]
    print(f"\n[criterion 9] PASS: full-FT slope {slope_full:.2f} (3.0 +- 0.5), "
          f"X-only slope {slope_x:.2f} (2.0 +- 0.3); QEC beats no-QEC at "
          f"p = 1e-3 and 2.5e-3")


def test_criterion_10_oracle_equivalence(library):
    # Every catalog circuit on both error sides; the per-side count shrinks
    # with the circuit, since a tableau replay grows with its width.
    total = 0
    used = []
    for name in catalog_names():
        state = get_state(name)
        prep = build_preparation_circuit(
            state, library, bip_trials=100, assembly_candidates=4, shuffles=50,
            seed=9, use_trivial_gadgets=True,
        )
        circ = prep.circuit
        n_qubits = circ.n_qubits
        per_side = 2_500 if n_qubits <= 12 else 300 if n_qubits <= 50 else 100
        for side in ("X", "Z"):
            tables = build_effect_tables(circ, state, error_side=side)
            total += frame_replay_check(circ, state, tables, per_side, seed=11)
        used.append(f"{name}({n_qubits}q, {per_side}/side)")
    assert total >= 10_000
    print(f"\n[criterion 10] PASS: Pauli-frame and tableau oracles agree on "
          f"{total} random fault injections on the X and Z sides of {', '.join(used)}")
