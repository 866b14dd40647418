import hashlib
import math
import re
import statistics
from dataclasses import replace

import numpy as np
import pytest

from ftprep import noise
from ftprep.assemble import assemble_ft_circuit, schedule_circuit
from ftprep.bipartite import best_of_trials, synthesize_bipartite
from ftprep.catalog import catalog_names, get_state
from ftprep.circuit import Circuit, CXGate, FlagMeasure, Init, pack_effects, propagate_backward
from ftprep.css import CssState, coset_key_columns
from ftprep.decoder import build_ml_lut, build_mw_lut, evaluate_test_set
from ftprep.library import GadgetLibrary
from ftprep.noise import (
    DegeneratePlanError,
    NoiseModel,
    SLOTS,
    SampleSet,
    _binom_pmf,
    _draw_distinct,
    _sample_bucket,
    build_effect_tables,
    build_subset_plan,
    count_fault_locations,
    run_monte_carlo,
    wilson_interval,
)
from _reference import (
    effect_tables_reference,
    flag_int,
    frame_replay_check,
    replay_sample,
    sample_bucket_reference,
    subset_plan_reference,
    transfer_columns_reference,
)


@pytest.fixture(scope="module")
def library():
    return GadgetLibrary.bundled()


@pytest.fixture(scope="module")
def steane_prepared(library):
    state = get_state("steane")
    bip = best_of_trials(state, 200, 7)
    asm = assemble_ft_circuit(state, bip, library, seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=100, seed=3)
    return state, circ


def wide_flag_circuit(circ: Circuit, n_extra: int = 130) -> Circuit:
    """``circ`` padded with ``n_extra`` flags, each touching a code qubit with
    two CX gates that cancel when fault-free.  At 130 extra flags the flag
    layout spans three 64-bit words."""
    code = [q for q, ci in enumerate(circ.code_index) if ci is not None]
    ops = list(circ.ops)
    for k in range(n_extra):
        f, c = circ.n_qubits + k, code[k % len(code)]
        ops += [Init(f, "0"), CXGate(c, f), CXGate(c, f), FlagMeasure(f, "Z")]
    return Circuit(circ.code_index + (None,) * n_extra, tuple(ops))


@pytest.fixture(scope="module")
def wide_prepared(steane_prepared):
    return wide_flag_circuit(steane_prepared[1])


def toy_circuit() -> Circuit:
    ops = (
        Init(0, "+"),
        Init(1, "0"),
        CXGate(0, 1),
        FlagMeasure(1, "Z"),
    )
    return Circuit((0, None), ops)


def test_count_locations_toy():
    assert count_fault_locations(toy_circuit()) == (4, 2)


def test_count_locations_empty():
    empty = Circuit((), ())
    assert count_fault_locations(empty) == (0, 0)


def test_idle_counting_superadditive(library):
    # doubling the CX list more than doubles idle locations when lifetimes
    # overlap
    state = get_state("steane")
    bip = best_of_trials(state, 100, 7)
    asm = assemble_ft_circuit(state, bip, library, seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=10, seed=3)
    _, l_q = count_fault_locations(circ)
    assert l_q > 2 * circ.cx_count  # several qubits live per step


def test_trivial_probability_matches_log_space_oracle(steane_prepared):
    _, circ = steane_prepared
    l_p, l_q = count_fault_locations(circ)
    p = 1e-3
    plan = build_subset_plan(l_p, l_q, p, p / 100, 10**6)
    oracle = math.exp(l_p * math.log1p(-p) + l_q * math.log1p(-p / 100))
    assert abs(plan.p_trivial - oracle) < 1e-12


def test_effective_count_low_rate_expansion(steane_prepared):
    _, circ = steane_prepared
    l_p, l_q = count_fault_locations(circ)
    p = 1e-6
    plan = build_subset_plan(l_p, l_q, p, p / 100, 10**4)
    first_order = plan.samples / (l_p * p + l_q * p / 100)
    assert abs(plan.effective_samples - first_order) / first_order < 0.01


def test_effective_count_grows_at_high_rate(steane_prepared):
    _, circ = steane_prepared
    l_p, l_q = count_fault_locations(circ)
    plan = build_subset_plan(l_p, l_q, 1e-2, 1e-4, 10**6)
    assert plan.effective_samples > 3.4 * plan.samples


def test_degenerate_plan():
    message = ("no fault-count pair but (0, 0) has P > 1/samples^2 = 0.01 "
               "(L_p=1, L_q=0, p=1e-09, q=1e-11, samples=10)")
    with pytest.raises(DegeneratePlanError, match=f"^{re.escape(message)}$"):
        build_subset_plan(1, 0, 1e-9, 1e-11, 10)


@pytest.mark.parametrize("p, q", [(0.0, 0.0), (1.0, 1e-2), (1.5, 1e-2), (-0.1, 1e-3), (1e-3, 0.0), (1e-3, 1.0)])
def test_plan_rejects_rates_outside_the_unit_interval(p, q):
    # Named before any pmf is built, not as math.log's domain error.
    with pytest.raises(ValueError, match=f"p={p}, q={q}"):
        build_subset_plan(10, 10, p, q, 100)


def test_plan_forced_bucket():
    plan = build_subset_plan(3, 0, 1e-4, 1e-6, 1000)
    assert plan.pairs == ((1, 0),)


def _benchmark_plan_args():
    """(l_p, l_q, p, q, samples) of every plan the benchmark builds, at both
    of its sizes: (L_p, L_q) of its Steane, [[17,1,5]] and Golay recipe
    circuits and of its X-only [[17,1,5]] circuit."""
    full = {"steane": (44, 156), "color17": (173, 2764), "golay": (420, 12752)}
    tiny = {"steane": (44, 159), "color17": (173, 2866), "golay": (420, 12207)}
    args = [(44, 156, 1e-3, 1e-5, 1_000)]  # set-up warm run
    for locs in (full, tiny):
        for l_p, l_q in locs.values():  # prep-mc: effective samples per round
            for p in (1e-3, 5e-3):
                p_triv = (1 - p) ** l_p * (1 - p / 100) ** l_q
                for effective in (1.75e7, 3.5e6, 1e5):
                    samples = max(int(effective * (1 - p_triv)), 10_000)
                    args.append((l_p, l_q, p, p / 100, samples))
        for l_p, l_q in (locs["color17"], (121, 1015)):  # qec-ablation
            for p in (2.5e-3, 5e-3, 1e-2):
                for samples in (100_000, 4_000, 2_000):
                    args.append((l_p, l_q, p, p / 100, max(samples, 10_000)))
    return args


# Plans the tests build, as (L_p, L_q, p, samples) with q = p / 100.
TEST_PLAN_ARGS = [
    (1, 0, 1e-9, 10), (3, 0, 1e-4, 1_000), (121, 1015, 2.5e-3, 3_000_000),
    (121, 993, 5e-3, 20_000), (169, 2759, 5e-3, 50_000), (173, 2753, 2e-3, 10_000),
    (173, 2753, 2.5e-3, 400_000), (173, 2753, 5e-3, 20_000), (173, 2764, 1e-3, 18_368_263),
    (173, 2764, 5e-3, 12_681_838), (173, 2764, 7.5e-3, 15_580_465),
    (173, 2764, 1e-2, 17_333_917), (32, 132, 1e-3, 1_000_000), (32, 132, 5e-2, 1_000),
    (32, 132, 1e-6, 10_000), (44, 156, 2.5e-3, 3_233_272), (44, 156, 1e-2, 11_020_075),
    (552, 2212, 1e-2, 20_000), (552, 2212, 5e-2, 1_000),
]


def _edge_plan_args():
    """Empty location sets, one sample, and rates up to 0.5, with q = p / 100
    and, where L_q is small, q = p."""
    args = []
    for l_p in (0, 1, 3, 44, 420):
        for l_q in (0, 1, 156, 12752):
            for p in (1e-9, 1e-4, 1e-3, 5e-2, 0.2, 0.5):
                for samples in (1, 2, 10, 1_000, 10**7):
                    args.append((l_p, l_q, p, p / 100, samples))
                    if l_q < 1000:
                        args.append((l_p, l_q, p, p, samples))
    return args


@pytest.mark.parametrize("args", [
    pytest.param(_benchmark_plan_args(), id="benchmark"),
    pytest.param([(l_p, l_q, p, p / 100, n) for l_p, l_q, p, n in TEST_PLAN_ARGS], id="tests"),
    pytest.param(_edge_plan_args(), id="edges"),
])
def test_plan_matches_the_per_cell_scan(args):
    # Binomial pmfs are unimodal, so one mask per f_p row keeps what the
    # scan keeps, in the same order and with the same probabilities.
    degenerate = 0
    for case in args:
        try:
            expected = subset_plan_reference(*case)
        except DegeneratePlanError:
            degenerate += 1
            with pytest.raises(DegeneratePlanError):
                build_subset_plan(*case)
            continue
        assert build_subset_plan(*case) == expected, case
    assert degenerate < len(args)


def test_z95_is_the_two_sided_95_percent_normal_quantile():
    # A literal, so that no ftprep process imports statistics for it.
    assert noise.Z95 == statistics.NormalDist().inv_cdf(0.975)


def test_wilson_interval_bounds():
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    lo, hi = wilson_interval(2, 6140)
    assert abs(lo - 0.9e-4) < 0.05e-4
    assert abs(hi - 11.9e-4) < 0.05e-4


def test_monte_carlo_deterministic(steane_prepared):
    state, circ = steane_prepared
    l_p, l_q = count_fault_locations(circ)
    plan = build_subset_plan(l_p, l_q, 1e-3, 1e-5, 20000)
    tables = build_effect_tables(circ, state)
    a = run_monte_carlo(circ, state, NoiseModel(1e-3), plan, seed=5, tables=tables)
    b = run_monte_carlo(circ, state, NoiseModel(1e-3), plan, seed=5, tables=tables)
    assert a.accepted == b.accepted
    assert a.train.counts == b.train.counts
    assert a.test.counts == b.test.counts
    c = run_monte_carlo(circ, state, NoiseModel(1e-3), plan, seed=6, tables=tables)
    assert a.train.counts != c.train.counts


def histogram_digest(samples):
    """sha256 over the (syndrome, class, count, weight) rows, floats in hex."""
    rows = sorted(zip(samples.synd.tolist(), samples.cls.tolist(),
                      samples.count.tolist(), samples.weight.tolist()))
    text = "".join(f"{s},{c},{n.hex()},{w.hex()}\n" for s, c, n, w in rows)
    return len(rows), hashlib.sha256(text.encode()).hexdigest()


def test_golden_steane_histogram_and_report(steane_prepared, monkeypatch):
    # With 1000-sample chunks the 20,000 samples arrive in 25 chunks, so
    # per-key sums must follow draw order.
    monkeypatch.setattr(noise, "SAMPLE_CHUNK", 1000)
    state, circ = steane_prepared
    l_p, l_q = count_fault_locations(circ)
    plan = build_subset_plan(l_p, l_q, 5e-3, 5e-5, 20_000)
    res = run_monte_carlo(circ, state, NoiseModel(5e-3), plan, seed=5)
    assert res.accepted == 120589.48392595924
    assert histogram_digest(res.train) == (
        15, "b08731eed789d49f14eb4ba4503514a5fa88777c2afeb96071469fe9a0513fed")
    assert histogram_digest(res.test) == (
        15, "dd8c43f1ade351aa3c4b9be3ef02886f780b2887d2942ee517e5bfba9b9bfd09")
    assert res.test.counts[(1, 1)] == 112.0
    rep = evaluate_test_set(res.test, build_ml_lut(res.train), build_mw_lut(state, "X", 1))
    assert (rep.errors, rep.ml_errors, rep.discarded, rep.mw_hits, rep.fallback) == (
        31.0, 31.0, 0.0, 0.0, 0.0)
    for got, want in (
        (rep.total, 60288.24196297962),
        (rep.kept, 60288.24196297962),
        (rep.ml_hits, 60288.24196297962),
        (rep.logical_error_rate, 0.0005141964500977777),
        (rep.weighted_logical_error_rate, 0.0005113185742452478),
    ):
        assert got == pytest.approx(want, rel=1e-12)


def test_acceptance_tends_to_one_at_low_rate(steane_prepared):
    state, circ = steane_prepared
    l_p, l_q = count_fault_locations(circ)
    plan = build_subset_plan(l_p, l_q, 1e-6, 1e-8, 1000)
    res = run_monte_carlo(circ, state, NoiseModel(1e-6), plan, seed=1)
    assert res.acceptance_rate > 0.999


def test_frame_agrees_with_tableau_oracle(steane_prepared):
    state, circ = steane_prepared
    tables = build_effect_tables(circ, state)
    assert frame_replay_check(circ, state, tables, 300, seed=11) == 300


@pytest.mark.parametrize("side", ["X", "Z"])
def test_frame_replay_check_catches_a_corrupted_location(steane_prepared, side):
    # The oracle can fail: corrupt every variant of one CX location, in its
    # lowest and then its highest key bit (a class bit on the X side), then
    # in flag 0, and each time the replay must raise.
    state, circ = steane_prepared
    tables = build_effect_tables(circ, state, error_side=side)
    assert tables.error_side == side
    assert frame_replay_check(circ, state, tables, 300, seed=11) == 300
    cx = SLOTS * next(pos for pos, op in enumerate(circ.ops) if isinstance(op, CXGate))
    for bit in (1, 1 << (tables.synd_bits + tables.class_bits - 1)):
        bad_sc = tables.sc.copy()
        bad_sc[cx:cx + SLOTS] ^= np.uint64(bit)
        with pytest.raises(AssertionError, match="syndrome/class"):
            frame_replay_check(circ, state, replace(tables, sc=bad_sc), 300, seed=11)
    bad_flags = tables.flags.copy()
    bad_flags[0, cx:cx + SLOTS] ^= np.uint64(1)
    with pytest.raises(AssertionError, match="flag mismatch"):
        frame_replay_check(circ, state, replace(tables, flags=bad_flags), 300, seed=11)
    # The replay decodes each variant from its id, so effects emitted in
    # the wrong order fail too: reverse the slots of the first Init location
    # whose X and Z effects differ (Z, Y, X instead of X, Y, Z), then shift
    # every idle variant's effects by one location.  The replay stops at the
    # first mismatch, so the long runs only make a miss unlikely; every id
    # is replayed alone in test_every_variant_id_replays_alone.
    inits = [SLOTS * pos for pos, op in enumerate(circ.ops) if isinstance(op, Init)]
    x = next(s for s in inits if tables.sc[s] != tables.sc[s + 10]
             or (tables.flags[:, s] != tables.flags[:, s + 10]).any())
    swap = np.arange(len(tables.sc))
    swap[x:x + SLOTS] = swap[x:x + SLOTS][::-1].copy()
    roll = np.arange(len(tables.sc))
    idle = slice(SLOTS * tables.l_p, None)
    roll[idle] = np.roll(roll[idle], 3)
    for order in (swap, roll):
        bad = replace(tables, sc=tables.sc[order], flags=tables.flags[:, order])
        with pytest.raises(AssertionError, match=r"sample \d+"):
            frame_replay_check(circ, state, bad, 3000, seed=11)


@pytest.mark.parametrize("side", ["X", "Z"])
def test_every_variant_id_replays_alone(steane_prepared, side):
    # Every id of the tables, each slot of each op and each idle id, is
    # replayed alone through the tableau, as its decoded Pauli, and must
    # match its flags and sc entry.
    state, circ = steane_prepared
    tables = build_effect_tables(circ, state, error_side=side)
    idle = noise._idle_locations(circ)
    assert (tables.l_p, tables.l_q) == (len(circ.ops), len(idle))
    assert len(tables.sc) == SLOTS * tables.l_p + 3 * tables.l_q
    rng = np.random.default_rng(0)
    for v in range(len(tables.sc)):
        flags, sc = replay_sample(circ, state, tables, idle, [v], rng)
        assert flags == flag_int(tables.flags, v), v
        assert sc == int(tables.sc[v]), v


def test_effect_tables_match_the_per_entry_builder(catalog_circuits, wide_prepared):
    # Gathering at most four packed record entries per variant gives the
    # tables of forming and packing every variant's effect on its own, on
    # both sides: every catalog assembly, the two-word Golay circuit, the
    # three-word wide circuit, a flagless circuit and one without a CX (no
    # idle location).
    steane = get_state("steane")
    bare = best_of_trials(steane, 20, 1).bare_circuit()
    inits = Circuit(tuple(range(steane.n)), tuple(Init(q, "0") for q in range(steane.n)))
    cases = catalog_circuits + [(steane, wide_prepared), (steane, bare), (steane, inits)]
    golay, golay_circ = catalog_circuits[1]
    assert len(build_effect_tables(golay_circ, golay).flags) == 2
    for state, circ in cases:
        for side in "XZ":
            got, want = build_effect_tables(circ, state, side), effect_tables_reference(circ, state, side)
            for name in ("flags", "sc"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w), (state.name, side)
            assert replace(got, flags=None, sc=None) == replace(want, flags=None, sc=None)
    assert build_effect_tables(bare, steane).flags.shape[0] == 0
    assert build_effect_tables(inits, steane).l_q == 0


def test_effect_linearity(steane_prepared):
    # the frame of a union of fault sets is the XOR of the individual frames
    state, circ = steane_prepared
    tables = build_effect_tables(circ, state)
    rng = np.random.default_rng(2)
    n = len(tables.sc)
    for _ in range(50):
        i, j = rng.integers(0, n, size=2)
        combined_flags = flag_int(tables.flags, i) ^ flag_int(tables.flags, j)
        combined_sc = int(tables.sc[i]) ^ int(tables.sc[j])
        assert combined_flags == flag_int(tables.flags[:, [i]] ^ tables.flags[:, [j]], 0)
        assert combined_sc == int(tables.sc[i] ^ tables.sc[j])


@pytest.fixture(scope="module")
def catalog_circuits(library, steane_prepared, golay_prepared):
    """One assembly per catalog code and state, in tight order, and the
    scheduled Steane and Golay circuits."""
    cases = [steane_prepared, golay_prepared]
    for name in catalog_names():
        for label in ("|0>", "|+>"):
            state = get_state(name, label)
            asm = assemble_ft_circuit(state, synthesize_bipartite(state, seed=0), library, seed=0)
            cases.append((state, asm.schedule(asm.tight_order())))
    return cases


def test_site_record_is_the_transfer_columns_at_each_ops_qubits(catalog_circuits):
    # The record keeps, per op, exactly its qubits' entries of the full
    # columns: after an Init or CX, and before a flag measurement, where the
    # columns are those after the last Init or CX.  An idle location reads
    # the entry at its qubit's last Init or CX, which is the columns' entry
    # at the idle location's own CX.
    for state, circ in catalog_circuits:
        for side in "XZ":
            for seed in (coset_key_columns(state, side), [1 << q for q in range(state.n)]):
                sites = propagate_backward(circ, seed, side)
                cols = transfer_columns_reference(circ, seed, side)
                expected = {}
                for pos, op in enumerate(circ.ops):
                    if isinstance(op, FlagMeasure):
                        at = max(p for p in cols if p < pos)
                        expected[pos, op.qubit] = (cols[at][0][op.qubit], cols[at][1][op.qubit])
                    else:
                        for q in (op.control, op.target) if isinstance(op, CXGate) else (op.qubit,):
                            expected[pos, q] = (cols[pos][0][q], cols[pos][1][q])
                assert sites == expected, (state.name, side)
                idle = [(pos, q, last) for pos, live in noise._idle_steps(circ) for q, last in live]
                assert [(pos, q) for pos, q, _ in idle] == noise._idle_locations(circ)
                for pos, q, last in idle:
                    assert sites[last, q] == (cols[pos][0][q], cols[pos][1][q]), (pos, q)


def test_model_plan_mismatch_rejected(steane_prepared):
    state, circ = steane_prepared
    l_p, l_q = count_fault_locations(circ)
    plan = build_subset_plan(l_p, l_q, 1e-3, 1e-5, 1000)
    with pytest.raises(ValueError, match="disagrees"):
        run_monte_carlo(circ, state, NoiseModel(2e-3), plan, seed=1)
    # Same p, but the plan's idle rate is 1e-4 against the model's q = 1e-5.
    idle_plan = build_subset_plan(l_p, l_q, 1e-3, 1e-4, 1000)
    with pytest.raises(ValueError, match="disagrees"):
        run_monte_carlo(circ, state, NoiseModel(1e-3), idle_plan, seed=1)


def test_tables_plan_mismatch_rejected(steane_prepared, wide_prepared):
    # The wide circuit's plan asks for up to about 50 distinct p-locations at
    # 5e-2, more than the Steane tables hold: drawing them would never end.
    state, circ = steane_prepared
    tables = build_effect_tables(circ, state)
    plan = build_subset_plan(*count_fault_locations(wide_prepared), 5e-2, 5e-4, 1000)
    assert max(fp for fp, _ in plan.pairs) > tables.l_p
    with pytest.raises(ValueError, match="effect tables"):
        run_monte_carlo(circ, state, NoiseModel(5e-2), plan, seed=1, tables=tables)
    # Tables of another circuit are rejected even when every bucket fits.
    wide_tables = build_effect_tables(wide_prepared, state)
    plan = build_subset_plan(*count_fault_locations(circ), 5e-2, 5e-4, 1000)
    with pytest.raises(ValueError, match="effect tables"):
        run_monte_carlo(circ, state, NoiseModel(5e-2), plan, seed=1, tables=wide_tables)


def test_tables_of_the_wrong_side_rejected(steane_prepared):
    # Z-side tables carry the Z syndrome and no class bit on Steane |0>, so
    # no logical error could be counted; tables of other widths would
    # misread every key.
    state, circ = steane_prepared
    l_p, l_q = count_fault_locations(circ)
    plan = build_subset_plan(l_p, l_q, 1e-3, 1e-5, 1000)
    z_tables = build_effect_tables(circ, state, "Z")
    assert z_tables.class_bits == 0
    narrow = replace(build_effect_tables(circ, state), synd_bits=2)
    for tables, got in ((z_tables, ("Z", 3, 0, l_p, l_q)), (narrow, ("X", 2, 1, l_p, l_q))):
        with pytest.raises(ValueError, match=re.escape(f"{got} are not the state's X side")):
            run_monte_carlo(circ, state, NoiseModel(1e-3), plan, seed=1, tables=tables)


def sorted_draw_distinct(rng, n_rows, k, limit, stride=1):
    """The sort-based `_draw_distinct` that the column-pair version replaced,
    keyed by ``entry // stride``: like the sampler, it draws and redraws
    (k, rows) blocks, one fault column per block row, and returns their
    transpose."""
    out = rng.integers(0, limit, size=(k, n_rows), dtype=np.int64)
    if k == 1:
        return out.T
    while True:
        srt = np.sort(out // stride, axis=0)
        dup = (srt[1:] == srt[:-1]).any(axis=0)
        n_bad = int(dup.sum())
        if not n_bad:
            return out.T
        out[:, dup] = rng.integers(0, limit, size=(k, n_bad), dtype=np.int64)


# The whole-row path's old threshold: every sort-based case has a row
# acceptance above it, so with it set the whole-row path draws them all.
WHOLE_ROW_TEST_MIN = 1e-3


@pytest.mark.parametrize("k", range(1, 21))
def test_draw_distinct_matches_sort_based_draw(k, monkeypatch):
    # A tight key count forces many redraw passes: k + 1 keys up to k = 9,
    # then 2k (at k + 1 a row of k = 20 needs about 5e6 draws to come out
    # distinct).  Strides 15 and 3 are the fault sampler's, where a key is
    # an id's location; 3k keys still force redraws there, at less cost.
    # Below ROW_ACCEPT_MIN the tight cases would take the column path, so
    # the threshold is lowered to keep checking the whole-row path.
    monkeypatch.setattr(noise, "ROW_ACCEPT_MIN", WHOLE_ROW_TEST_MIN)
    tight = k + 1 if k < 10 else 2 * k
    for stride, keys in ((1, tight), (1, 420), (SLOTS, 3 * k), (SLOTS, 420), (3, 3 * k), (3, 420)):
        limit = stride * keys
        rng_a = np.random.default_rng([k, limit, stride])
        rng_b = np.random.default_rng([k, limit, stride])
        got = _draw_distinct(rng_a, 64, k, limit, stride)
        want = sorted_draw_distinct(rng_b, 64, k, limit, stride)
        assert np.array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert all(len(set(row)) == k for row in (got // stride).tolist())
        assert 0 <= got.min() and got.max() < limit


def _row_acceptance(k, keys):
    return math.prod(1 - i / keys for i in range(k))


def test_draw_distinct_column_path_is_uniform_over_distinct_rows(monkeypatch):
    # Forced onto the column-by-column path, every ordered row of entries
    # with distinct keys is equally likely: chi-squared over all 5*4*3 key
    # tuples times 3^3 offsets within the keys, 100 rows expected in each.
    monkeypatch.setattr(noise, "ROW_ACCEPT_MIN", 1.0)
    k, stride, keys = 3, 3, 5
    cells = math.perm(keys, k) * stride**k
    rows = _draw_distinct(np.random.default_rng(11), 100 * cells, k, keys * stride, stride)
    assert all(len(set(row)) == k for row in (rows // stride).tolist())
    _, counts = np.unique(rows, axis=0, return_counts=True)
    assert len(counts) == cells
    chi2, dof = float(((counts - 100.0) ** 2 / 100.0).sum()), cells - 1
    assert abs(chi2 - dof) < 5 * math.sqrt(2 * dof), chi2


@pytest.mark.parametrize("keys, stride", [(10, 1), (32, SLOTS), (130, 3)])
def test_draw_distinct_ends_when_every_location_is_drawn(keys, stride):
    # k = L: a whole row would be a permutation with probability L!/L^L,
    # so each column is drawn on its own; the last column's key is uniform.
    assert _row_acceptance(keys, keys) < noise.ROW_ACCEPT_MIN
    n = 2000
    rows = _draw_distinct(np.random.default_rng(keys), n, keys, keys * stride, stride)
    assert (np.sort(rows // stride, axis=1) == np.arange(keys)).all()
    counts = np.bincount(rows[:, -1] // stride, minlength=keys)
    expected = n / keys
    chi2, dof = float(((counts - expected) ** 2 / expected).sum()), keys - 1
    assert chi2 < dof + 5 * math.sqrt(2 * dof), chi2


def test_draw_distinct_refuses_more_keys_than_locations():
    with pytest.raises(ValueError, match="cannot draw 4 distinct locations out of 3"):
        _draw_distinct(np.random.default_rng(0), 1, 4, 9, 3)


def test_draw_distinct_sort_cases_keep_the_whole_row_path():
    # Every case of test_draw_distinct_matches_sort_based_draw is drawn
    # whole-row under the threshold it sets: its acceptance is at least
    # 3e-3.
    for k in range(1, 21):
        tight = k + 1 if k < 10 else 2 * k
        assert _row_acceptance(k, tight) >= 3e-3 > WHOLE_ROW_TEST_MIN
        assert _row_acceptance(k, 3 * k) >= 3e-3


def per_k_lgamma_pmf(n, p):
    ks = np.arange(n + 1)
    log_comb = np.array(
        [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in ks]
    )
    return np.exp(log_comb + ks * math.log(p) + (n - ks) * math.log1p(-p))


@pytest.mark.parametrize("n, p", [(44, 1e-3), (420, 5e-3), (12752, 5e-5)])
def test_binom_pmf_matches_per_k_lgamma(n, p):
    assert np.array_equal(_binom_pmf(n, p), per_k_lgamma_pmf(n, p))


def test_binom_pmf_grows_and_slices_one_log_factorial_table(monkeypatch):
    # From an empty table: n = 12,752 grows it, 44 and 420 slice it, and
    # 20,000 grows it again; every pmf equals the per-k formula.
    monkeypatch.setattr(noise, "_log_factorials", np.zeros(0))
    for n, p, size in ((12752, 5e-5, 12753), (44, 1e-3, 12753), (420, 5e-3, 12753), (20000, 1e-4, 20001)):
        assert np.array_equal(_binom_pmf(n, p), per_k_lgamma_pmf(n, p))
        assert len(noise._log_factorials) == size


def test_effect_tables_reject_more_than_64_syndrome_and_class_bits():
    # 64 Z generators plus one Z logical: 65 bits of the X residual.
    n = 65
    state = CssState(
        name="wide",
        n=n,
        k=1,
        d=1,
        x_stabilizers=(),
        z_stabilizers=tuple(1 << q for q in range(64)),
        logical_x=(1 << 64,),
        logical_z=(1 << 64,),
    )
    ops = tuple(Init(q, "0") for q in range(n))
    circ = Circuit(tuple(range(n)), ops)
    with pytest.raises(ValueError, match="64-bit"):
        build_effect_tables(circ, state)


def test_more_than_128_flags(steane_prepared, wide_prepared):
    state, _ = steane_prepared
    wide = wide_prepared
    wide.validate()
    tables = build_effect_tables(wide, state)
    assert tables.flags.shape == (3, len(tables.sc))
    assert tables.flags[2].any()
    assert frame_replay_check(wide, state, tables, 40, seed=4) == 40


def test_golden_wide_circuit_large_buckets(steane_prepared, wide_prepared, monkeypatch):
    # Three flag words and buckets up to f_p = 16 (1,035 samples at f_p >= 10),
    # so `_draw_distinct` runs many redraw passes.
    state, _ = steane_prepared
    l_p, l_q = count_fault_locations(wide_prepared)
    plan = build_subset_plan(l_p, l_q, 1e-2, 1e-4, 20_000)
    assert max(fp for fp, _ in plan.pairs) >= 10
    monkeypatch.setattr(noise, "SAMPLE_CHUNK", 1000)
    res = run_monte_carlo(wide_prepared, state, NoiseModel(1e-2), plan, seed=7)
    assert res.accepted == 495.7352203070622
    assert histogram_digest(res.train) == (
        16, "6c2887f6d69ef11d1b57f4278c4821bf750d1a5dc2b7a7d6caa93941fbb7b663")
    assert histogram_digest(res.test) == (
        16, "ea73fcced0cc09a02d2ec48fd7bf9fc6097e95b131abc73fd04f09d80edca6e0")


def three_pass_pack_effects(effects, n_flags):
    # The three-pass packing the one-pass pack_effects replaced.
    flags = np.empty((-(-n_flags // 64), len(effects)), dtype=np.uint64)
    for w in range(len(flags)):
        shift = 64 * w
        mask = (1 << min(64, n_flags - shift)) - 1
        flags[w] = [(e >> shift) & mask for e in effects]
    return flags, np.array([e >> n_flags for e in effects], dtype=np.uint64)


@pytest.mark.parametrize("n_flags", [0, 1, 63, 64, 80, 130])
def test_pack_effects_matches_three_pass_packing(n_flags):
    rng = np.random.default_rng(n_flags)
    effects = [0, (1 << (n_flags + 64)) - 1]
    for key_bits in (1, 17, 63, 64):
        for _ in range(50):
            key = int(rng.integers(0, 1 << key_bits, dtype=np.uint64, endpoint=False))
            flags = sum(int(rng.integers(0, 2)) << i for i in range(n_flags))
            effects.append(key << n_flags | flags)
    got, want = pack_effects(effects, n_flags), three_pass_pack_effects(effects, n_flags)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and g.flags.c_contiguous
        assert np.array_equal(g, w)


@pytest.fixture(scope="module")
def golay_prepared(library):
    state = get_state("golay")
    bip = best_of_trials(state, 5, 9)
    asm = assemble_ft_circuit(state, bip, library, z_gadget_t_override=2, seed=9)
    return state, schedule_circuit(asm, "min_max_qubits", shuffles=2, seed=9)


@pytest.fixture(scope="module")
def golay_tables(golay_prepared):
    state, circ = golay_prepared
    return build_effect_tables(circ, state)


@pytest.fixture(scope="module")
def wide_tables(steane_prepared, wide_prepared):
    return build_effect_tables(wide_prepared, steane_prepared[0])


def test_sample_bucket_xors_uniform_variants_at_distinct_locations(
    golay_tables, wide_tables, monkeypatch
):
    # A bucket's faults are the ids `_draw_distinct` returns: p ids below
    # 15 L_p and idle ids below 3 L_q, offset by 15 L_p.  Each row's ids sit
    # at distinct locations, and the full-gather reference XORs exactly
    # their table entries.  The sampler accepts exactly the rows whose flag
    # words are all zero there and returns the reference's `sc` of those
    # rows, in row order; some rows are clean in word 0 and flagged later.
    # Every location and slot is drawn equally often within 5 binomial
    # standard deviations.  Golay's tables have two flag words, the wide
    # circuit's three.
    real = noise._draw_distinct
    drawn = []

    def recording(rng, n_rows, k, limit, stride=1):
        out = real(rng, n_rows, k, limit, stride)
        drawn.append((limit, stride, out))
        return out

    monkeypatch.setattr(noise, "_draw_distinct", recording)
    for tables, n_words in ((golay_tables, 2), (wide_tables, 3)):
        assert len(tables.flags) == n_words
        ids = {SLOTS: [], 3: []}
        later_word_rejects = 0
        for fp, fq in [(1, 0), (0, 1), (2, 3), (5, 1)]:
            drawn.clear()
            sc = _sample_bucket(tables, fp, fq, 20_000, np.random.default_rng([fp, fq]))
            calls = [(limit, stride, out.shape[1]) for limit, stride, out in drawn]
            assert calls == [(SLOTS * tables.l_p, SLOTS, fp)] * bool(fp) + [(3 * tables.l_q, 3, fq)] * bool(fq)
            flags, full_sc = sample_bucket_reference(
                tables, fp, fq, 20_000, np.random.default_rng([fp, fq]))
            want_flags, want_sc = np.zeros_like(flags), np.zeros_like(full_sc)
            for _, stride, out in drawn:
                assert all(len(set(row)) == len(row) for row in (out // stride).tolist())
                ids[stride].append(out.ravel())
                var = out if stride == SLOTS else out + SLOTS * tables.l_p
                want_flags ^= np.bitwise_xor.reduce(tables.flags[:, var], axis=2)
                want_sc ^= np.bitwise_xor.reduce(tables.sc[var], axis=1)
            assert np.array_equal(flags, want_flags) and np.array_equal(full_sc, want_sc)
            ok = (flags == 0).all(axis=0)
            assert sc.dtype == np.uint64 and np.array_equal(sc, full_sc[ok])
            later_word_rejects += int(((flags[0] == 0) & ~ok).sum())
        assert later_word_rejects > 0
        for stride, n_loc in ((SLOTS, tables.l_p), (3, tables.l_q)):
            every = np.concatenate(ids[stride])
            for cells, key in ((n_loc, every // stride), (stride, every % stride)):
                counts = np.bincount(key, minlength=cells)
                mean = len(every) / cells
                assert np.abs(counts - mean).max() <= 5 * math.sqrt(mean * (1 - 1 / cells)), (stride, cells)


def fixed_draws(monkeypatch, rows_for):
    """Make `_draw_distinct` return ``rows_for(n_rows, k, limit)``."""
    monkeypatch.setattr(
        noise, "_draw_distinct", lambda rng, n_rows, k, limit, stride=1: rows_for(n_rows, k, limit))


def equal_flag_pair(tables, ids, word):
    """Two ids at distinct locations with equal flag words, nonzero in
    ``word`` and zero in every word before it."""
    flags = tables.flags[:, ids]
    seen = {}
    for v, col in zip(ids.tolist(), map(tuple, flags.T.tolist())):
        if col[word] and not any(col[:word]):
            other = seen.setdefault(col, v)
            if other // SLOTS != v // SLOTS:
                return other, v
    raise AssertionError(f"no equal pair in word {word}")


def test_sample_bucket_rejects_on_the_xor_of_each_word(golay_tables, monkeypatch):
    # (a) Two faults that flip the same word-0 flag cancel and the row is
    # accepted, while either one with a flag-free fault is rejected.
    # (b) A row clean in word 0 that flips a flag >= 64 is rejected, and two
    # faults that cancel there are accepted.  On tables whose `sc` gives
    # each of the six ids its own bit, every row's `sc` differs, so the
    # returned words name the accepted rows.
    tables = golay_tables
    p_ids = np.arange(SLOTS * tables.l_p)
    a, b = equal_flag_pair(tables, p_ids, 0)
    d, e = equal_flag_pair(tables, p_ids, 1)
    clean = [v for v in p_ids[~tables.flags[:, p_ids].any(axis=0)].tolist()
             if v // SLOTS not in {a // SLOTS, b // SLOTS, d // SLOTS, e // SLOTS}]
    c, c2 = clean[0], clean[-1]
    rows = np.array([[a, b], [a, c], [b, c], [d, c], [d, e], [c, c2]])
    fixed_draws(monkeypatch, lambda n_rows, k, limit: rows)
    sc = _sample_bucket(tables, 2, 0, len(rows), np.random.default_rng(0))
    assert sc.dtype == np.uint64
    assert sc.tolist() == [int(tables.sc[x] ^ tables.sc[y]) for x, y in rows[[0, 4, 5]]]
    tagged = np.zeros_like(tables.sc)
    tagged[[a, b, c, d, e, c2]] = 1 << np.arange(6, dtype=np.uint64)
    row_sc = [int(tagged[x] ^ tagged[y]) for x, y in rows]
    want = [row_sc[i] for i in (0, 4, 5)]
    assert _sample_bucket(replace(tables, sc=tagged), 2, 0, len(rows), np.random.default_rng(0)).tolist() == want
    assert all(row_sc[i] not in want for i in (1, 2, 3))


def test_all_rejected_chunks_leave_only_the_trivial_addback(golay_prepared, golay_tables, monkeypatch):
    # (c) Every drawn row flips a flag: every chunk yields an empty `sc`, and
    # each histogram holds only its half of the trivial add-back on key 0.
    state, circ = golay_prepared
    tables = golay_tables
    offset = SLOTS * tables.l_p
    flagged = tables.flags.any(axis=0)
    p_flag = int(np.flatnonzero(flagged[:offset])[0])
    q_flag = next(v for v in np.flatnonzero(flagged[offset:]).tolist()
                  if (tables.flags[:, offset + v] != tables.flags[:, p_flag]).any())
    p_clean, q_clean = (int(np.flatnonzero(~part)[0]) for part in (flagged[:offset], flagged[offset:]))

    def rows_for(n_rows, k, limit):
        first, rest = (p_flag, p_clean) if limit == offset else (q_flag, q_clean)
        rows = np.full((n_rows, k), rest)
        rows[:, 0] = first
        return rows

    fixed_draws(monkeypatch, rows_for)
    monkeypatch.setattr(noise, "SAMPLE_CHUNK", 100)
    plan = build_subset_plan(tables.l_p, tables.l_q, 5e-3, 5e-5, 2000)
    assert any(fp == 0 for fp, _ in plan.pairs) and any(fp and fq for fp, fq in plan.pairs)
    counts = np.full(len(plan.pairs), 150)
    chunks = list(noise._accepted_chunks(tables, plan.pairs, counts, np.random.default_rng(0)))
    assert len(chunks) == 2 * len(plan.pairs)
    for _, sc in chunks:
        assert sc.shape == (0,) and sc.dtype == np.uint64
    res = run_monte_carlo(circ, state, NoiseModel(5e-3), plan, seed=3, tables=tables)
    assert res.accepted == plan.trivial_addback
    for half in (res.train, res.test):
        assert half.keys.tolist() == [0]
        assert half.count.tolist() == [plan.trivial_addback / 2]
        assert half.weight.tolist() == [plan.p_trivial / 2]


def test_train_and_test_take_alternate_accepted_samples(golay_prepared, golay_tables, monkeypatch):
    # The generator serves the plan's multinomial and then the fault draws
    # alone, so replaying both on one generator gives every chunk's accepted
    # `sc`: its even positions are the train half, its odd ones the test
    # half, and each half holds half the trivial add-back on key 0.
    monkeypatch.setattr(noise, "SAMPLE_CHUNK", 500)
    state, circ = golay_prepared
    tables = golay_tables
    plan = build_subset_plan(tables.l_p, tables.l_q, 5e-3, 5e-5, 5000)
    rng = np.random.default_rng(np.random.SeedSequence(3))
    counts = rng.multinomial(plan.samples, plan.probabilities)
    chunks = list(noise._accepted_chunks(tables, plan.pairs, counts, rng))
    assert len(chunks) > np.count_nonzero(counts)  # some stratum spans several chunks
    res = run_monte_carlo(circ, state, NoiseModel(5e-3), plan, seed=3, tables=tables)
    for half, start in ((res.train, 0), (res.test, 1)):
        taken = [(i, sc[start::2]) for i, sc in chunks]
        keys = np.concatenate([sc for _, sc in taken] + [np.zeros(1, dtype=np.uint64)])
        weight = [plan.probabilities[i] * (1.0 - plan.p_trivial) / counts[i] for i, sc in taken for _ in sc]
        want = SampleSet.tally(
            tables.synd_bits, tables.class_bits, keys,
            [1.0] * (len(keys) - 1) + [plan.trivial_addback / 2], weight + [plan.p_trivial / 2])
        assert np.array_equal(half.keys, want.keys) and np.array_equal(half.count, want.count)
        assert half.weight == pytest.approx(want.weight, rel=1e-12)
    assert 0 <= res.train.count.sum() - res.test.count.sum() <= len(chunks)


def test_flagless_circuit_accepts_every_sample():
    # (d) A bare bipartite circuit has no flag word, so every row is kept.
    state = get_state("steane")
    circ = best_of_trials(state, 20, 1).bare_circuit()
    tables = build_effect_tables(circ, state)
    assert tables.flags.shape == (0, len(tables.sc))
    sc = _sample_bucket(tables, 2, 1, 1000, np.random.default_rng(4))
    flags, full_sc = sample_bucket_reference(tables, 2, 1, 1000, np.random.default_rng(4))
    clean = (flags == 0).all(axis=0)
    assert clean.all() and np.array_equal(sc, full_sc[clean])
    l_p, l_q = count_fault_locations(circ)
    plan = build_subset_plan(l_p, l_q, 1e-2, 1e-4, 5000)
    res = run_monte_carlo(circ, state, NoiseModel(1e-2), plan, seed=2, tables=tables)
    assert res.accepted == pytest.approx(plan.effective_samples, rel=1e-12)
    assert res.train.count.sum() + res.test.count.sum() == pytest.approx(res.accepted, rel=1e-12)
