import dataclasses
import tracemalloc

import numpy as np
import pytest

from ftprep import noise, steane_qec
from ftprep.assemble import assemble_ft_circuit, schedule_circuit
from ftprep.catalog import catalog_names, get_state, rotated_surface
from ftprep.css import CssState, GroupTooLargeError, coset_key_columns, swap_xz
from ftprep.decoder import build_ideal_class_table, build_ml_lut, build_mw_lut, decode
from ftprep.library import GadgetLibrary
from ftprep.pipeline import build_preparation_circuit
from ftprep.noise import SampleSet
from ftprep.steane_qec import (
    FT_X_ONLY,
    FULL_FT,
    NO_QEC,
    SteaneQecConfig,
    _accepted_chunks,
    _code_tables,
    _prep_sampler,
    _prep_tables,
    _trained_classes,
    run_steane_qec_experiment,
)
from ftprep.verify import verify_fault_tolerance

from _reference import coset_keys


@pytest.fixture(scope="module")
def library():
    return GadgetLibrary.bundled()


@pytest.fixture(scope="module")
def color17_prep(library):
    state = get_state("color17")
    prep = build_preparation_circuit(
        state, library, bip_trials=100, assembly_candidates=3, shuffles=50, seed=9,
        use_trivial_gadgets=False,
    )
    return state, prep


@pytest.fixture(scope="module")
def color17_x_only(color17_prep, library):
    # Z gadgets stripped: the ft_x_only ablation circuit.
    state, prep = color17_prep
    asm = assemble_ft_circuit(
        state, prep.bipartite, library,
        z_gadget_t_override=0, allow_uncertified_override=True, seed=5,
    )
    return schedule_circuit(asm, "min_max_qubits", shuffles=30, seed=3)


def test_negligible_noise_gives_zero_errors(color17_prep):
    state, prep = color17_prep
    cfg = SteaneQecConfig(state, 1e-9, samples=3000, prep_mode=FULL_FT, seed=1)
    res = run_steane_qec_experiment(cfg, prep.circuit)
    assert res.logical_errors == 0
    for mode in (NO_QEC,):
        cfg = SteaneQecConfig(state, 1e-9, samples=3000, prep_mode=mode, seed=1)
        assert run_steane_qec_experiment(cfg).logical_errors == 0


def test_transversal_propagation_reads_single_z_errors():
    # A Z on computational qubit i copies onto the resource block and shows
    # up as the X-generator syndrome column of qubit i.
    state = get_state("color17")
    cols = coset_key_columns(swap_xz(state), "X")
    synd_mask = (1 << len(state.x_stabilizers)) - 1
    for i in range(state.n):
        frames = np.array([1 << i], dtype=np.uint64)
        synd = int(coset_keys(frames, cols)[0]) & synd_mask
        expected = 0
        for j, g in enumerate(state.x_stabilizers):
            if (g >> i) & 1:
                expected |= 1 << j
        assert int(synd) == expected


def test_two_logical_code_corrects_sparse_z_errors():
    # selfdual20 has k=2: residual classes carry both logical-X bits, as the
    # ideal class table does, so isolated Z errors are never logical errors.
    state = get_state("selfdual20")
    cfg = SteaneQecConfig(state, 1e-4, samples=20_000, prep_mode=NO_QEC, seed=1)
    assert run_steane_qec_experiment(cfg).logical_errors == 0


def test_ablated_circuit_keeps_x_ft_loses_z_ft(color17_prep, color17_x_only):
    state, _ = color17_prep
    circ = color17_x_only
    assert verify_fault_tolerance(circ, state, 2, "X") is None
    ce = verify_fault_tolerance(circ, state, 2, "Z")
    assert ce is not None
    assert len(ce.faults) <= 2


def test_qec_helps_at_moderate_rate(color17_prep):
    state, prep = color17_prep
    cfg_full = SteaneQecConfig(
        state, 2.5e-3, samples=400_000, prep_mode=FULL_FT,
        data_noise_multiplier=6.0, seed=77,
    )
    cfg_none = SteaneQecConfig(
        state, 2.5e-3, samples=400_000, prep_mode=NO_QEC,
        data_noise_multiplier=6.0, seed=77,
    )
    full = run_steane_qec_experiment(cfg_full, prep.circuit)
    none = run_steane_qec_experiment(cfg_none)
    assert full.logical_error_rate <= none.logical_error_rate
    assert 0 < full.prep_acceptance < 1


def test_no_qec_matches_ideal_decoding_prediction():
    # With a single-round Z channel the ideal decoder fixes every
    # single-qubit error, so errors need weight >= 3 across both rounds.
    state = get_state("color17")
    cfg = SteaneQecConfig(state, 1e-4, samples=200_000, prep_mode=NO_QEC, seed=5)
    res = run_steane_qec_experiment(cfg)
    # two rounds at z-rate 2/3*1e-3 each: triple coincidences are ~1e-8
    assert res.logical_error_rate < 1e-4


def _exact_no_qec_rate(state, p, multiplier):
    # Both data rounds flip each qubit's Z with q = 2/3 * multiplier * p, so
    # the net flip per qubit is r = 2q(1-q).  Sum the probability of every Z
    # pattern the ideal decoder misclassifies.
    plus = swap_xz(state)
    ideal = build_ideal_class_table(plus, "X")
    frames = np.arange(1 << state.n, dtype=np.uint64)
    keys = coset_keys(frames, coset_key_columns(plus, "X"))
    synd_bits = len(state.x_stabilizers)
    fails = decode(keys & np.uint64((1 << synd_bits) - 1), ideal, None)[0] != keys >> synd_bits
    weights = np.bitwise_count(frames[fails]).astype(np.float64)
    q = 2.0 / 3.0 * multiplier * p
    r = 2.0 * q * (1.0 - q)
    return float(np.sum(r**weights * (1.0 - r) ** (state.n - weights)))


@pytest.mark.parametrize("p, multiplier", [(5e-3, 6.0), (1e-2, 6.0), (2.5e-3, 10.0)])
def test_no_qec_rate_matches_exact_enumeration(p, multiplier):
    # The sparse data-channel draw must reproduce the exact two-round
    # failure probability of color17 within four binomial standard deviations.
    state = get_state("color17")
    exact = _exact_no_qec_rate(state, p, multiplier)
    n = 200_000
    cfg = SteaneQecConfig(state, p, samples=n, prep_mode=NO_QEC,
                          data_noise_multiplier=multiplier, seed=3)
    res = run_steane_qec_experiment(cfg)
    sigma = np.sqrt(n * exact * (1.0 - exact))
    assert abs(res.logical_errors - n * exact) <= 4.0 * sigma, (res.logical_errors, n * exact)


def test_more_than_64_qubits_runs():
    # Samples carry coset keys (1 syndrome + 1 class bit here), not qubit
    # frames, so the code size is not limited by the 64-bit word.
    n = 65
    state = CssState(
        name="wide",
        n=n,
        k=1,
        d=2,
        x_stabilizers=(0b11,),
        z_stabilizers=(),
        logical_x=(0b100,),
        logical_z=(0b100,),
    )
    cfg = SteaneQecConfig(state, 1e-3, samples=100, prep_mode=NO_QEC, seed=1)
    assert run_steane_qec_experiment(cfg).samples == 100


def test_more_than_64_key_bits_rejected():
    # 65 X generators plus one X logical: 66 bits of the Z-error key.
    n = 66
    state = CssState(
        name="wide",
        n=n,
        k=1,
        d=1,
        x_stabilizers=tuple(1 << q for q in range(n - 1)),
        z_stabilizers=(),
        logical_x=(1 << (n - 1),),
        logical_z=(1 << (n - 1),),
    )
    cfg = SteaneQecConfig(state, 1e-3, samples=100, prep_mode=NO_QEC, seed=1)
    with pytest.raises(ValueError, match="65 syndrome \\+ 1 class bits exceed the 64-bit key width"):
        run_steane_qec_experiment(cfg)


def test_golden_color17_modes(color17_prep, color17_x_only):
    # Recorded with the shared stratum sampler drawing each preparation
    # fault as one variant id, the sparse data-channel and transversal-CX
    # draws, chunked phases whose preparation sampler draws exactly the
    # preparations it keeps, and fault ids drawn one fault column at a time.  One chunk per phase here; no_qec's single
    # chunk draws as the unchunked run did.
    state, prep = color17_prep
    golden = {
        FULL_FT: (prep.circuit, 146, 10_000, 0.5488642793630264),
        FT_X_ONLY: (color17_x_only, 226, 10_000, 0.7048574813575859),
        NO_QEC: (None, 269, 20_000, 1.0),
    }
    for mode, (circ, errors, samples, acceptance) in golden.items():
        cfg = SteaneQecConfig(
            state, 5e-3, samples=20_000, prep_mode=mode, data_noise_multiplier=6.0, seed=11
        )
        res = run_steane_qec_experiment(cfg, circ)
        assert (res.logical_errors, res.samples, res.prep_acceptance) == (
            errors, samples, acceptance), mode


def test_unknown_prep_mode_rejected(color17_prep):
    state, prep = color17_prep
    with pytest.raises(ValueError, match="unknown prep_mode 'fulft'"):
        SteaneQecConfig(state, 1e-3, samples=100, prep_mode="fulft")


def test_p_outside_unit_interval_rejected():
    state = get_state("steane")
    for p in (-1e-3, 0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="0 < p < 1"):
            SteaneQecConfig(state, p, samples=100, prep_mode=NO_QEC, data_noise_multiplier=0.5)


def test_data_noise_above_one_rejected():
    state = get_state("steane")
    with pytest.raises(ValueError, match=r"data_noise_multiplier 10 \* p 0.2$"):
        SteaneQecConfig(state, 0.2, samples=100, prep_mode=NO_QEC)


def test_negative_or_nan_data_noise_rejected():
    # Either must fail here, not later inside numpy's sampler.
    state = get_state("steane")
    for multiplier in (-1.0, float("nan")):
        with pytest.raises(ValueError, match=r"require 0 <= data_noise_multiplier \* p <= 1"):
            SteaneQecConfig(state, 1e-3, samples=100, prep_mode=NO_QEC,
                            data_noise_multiplier=multiplier)


def test_nonpositive_samples_rejected():
    state = get_state("steane")
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            SteaneQecConfig(state, 1e-3, samples=samples, prep_mode=NO_QEC)


def test_ideal_table_past_the_cap_fails_at_once():
    # Rotated surface d=7: 2^24 X-stabilizer syndromes exceed the ideal
    # table's enumeration cap, so the experiment stops before sampling.
    state = rotated_surface(7)
    cfg = SteaneQecConfig(state, 1e-3, samples=10, prep_mode=NO_QEC)
    with pytest.raises(GroupTooLargeError):
        run_steane_qec_experiment(cfg)


BUILDERS = ("coset_key_columns", "build_ideal_class_table", "build_effect_tables")


def test_warm_call_builds_no_tables_and_matches_the_cold_call(color17_prep, monkeypatch):
    state, prep = color17_prep
    calls = dict.fromkeys(BUILDERS, 0)
    for name in BUILDERS:
        def counted(*args, _name=name, _build=getattr(steane_qec, name), **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(steane_qec, name, counted)
    _code_tables.cache_clear()
    _prep_tables.cache_clear()
    cfg = SteaneQecConfig(state, 5e-3, samples=4_000, prep_mode=FULL_FT, seed=2)
    cold = run_steane_qec_experiment(cfg, prep.circuit)
    assert calls == dict.fromkeys(BUILDERS, 1)
    warm = run_steane_qec_experiment(cfg, prep.circuit)
    # Another p and another mode of the same sweep reuse the tables too.
    run_steane_qec_experiment(SteaneQecConfig(state, 2e-3, samples=4_000), prep.circuit)
    run_steane_qec_experiment(SteaneQecConfig(state, 2e-3, samples=4_000, prep_mode=NO_QEC))
    assert calls == dict.fromkeys(BUILDERS, 1)
    assert warm == cold


def test_cached_tables_are_read_only(color17_prep):
    state, prep = color17_prep
    code = _code_tables(state)
    tables = _prep_tables(prep.circuit, state)
    for array in (code.key_cols, code.ideal, code.mw, tables.flags, tables.sc):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize("name", catalog_names())
def test_dense_ideal_table_decodes_as_the_sorted_one(name):
    state = get_state(name)
    ideal = build_ideal_class_table(swap_xz(state), "X")
    synd = np.arange(1 << ideal.synd_bits, dtype=np.uint64)
    dense = _code_tables(state).ideal
    assert np.array_equal(dense, decode(synd, ideal, None)[0])
    assert np.array_equal(steane_qec._decoded(dense, synd[::-1]), dense[::-1])


@pytest.mark.parametrize("name", catalog_names())
def test_dense_mw_layer_is_the_mw_table(name):
    # The MW layer is read off the ideal table within the distance
    # guarantee; a separate MW enumeration must give the same dense array.
    state = get_state(name)
    mw = build_mw_lut(swap_xz(state), "X", (state.d - 1) // 2)
    dense = np.zeros(1 << mw.synd_bits, dtype=np.uint64)
    dense[mw.synd] = mw.cls
    got = _code_tables(state).mw
    assert got.dtype == np.uint64 and np.array_equal(got, dense)


def test_dense_tables_are_indexed_by_syndrome_under_dependent_checks():
    # An unvalidated state with a redundant X check reaches half of its
    # 2^4 syndromes; the dense arrays still hold each class at its syndrome.
    steane = get_state("steane")
    x = steane.x_stabilizers
    state = dataclasses.replace(steane, x_stabilizers=(*x, x[0] ^ x[1]))
    table = build_ideal_class_table(swap_xz(state), "X")
    code = _code_tables(state)
    assert len(code.ideal) == len(code.mw) == 2 * len(table) == 16
    assert np.array_equal(code.ideal[table.synd], table.cls)
    assert np.array_equal(code.mw[table.synd], np.where(table.weight <= 1, table.cls, 0))


def test_dense_ml_over_mw_decodes_as_decode():
    # Random training keys over color17's MW table: the trained syndromes
    # share some with the MW table, where ML must win, and miss others,
    # which read 0.  Few key values and many repeats make class ties, which
    # both sides break toward the smallest class.
    plus = swap_xz(get_state("color17"))
    mw = build_mw_lut(plus, "X", 2)
    dense_mw = _code_tables(get_state("color17")).mw
    rng = np.random.default_rng(4)
    synd = np.arange(1 << 8, dtype=np.uint64)
    ties = 0
    for n_keys in (300, 2_000):
        keys = rng.integers(0, 1 << 9, size=n_keys, dtype=np.uint64)
        per_class = np.bincount(keys.astype(np.int64), minlength=1 << 9).reshape(2, -1)
        ties += int(((per_class[0] == per_class[1]) & (per_class[0] > 0)).sum())
        ones = np.ones(len(keys))
        ml = build_ml_lut(SampleSet.tally(8, 1, keys, ones, ones))
        assert 0 < len(np.intersect1d(ml.synd, mw.synd)) < len(ml)
        hist = np.bincount(keys.astype(np.int64), minlength=1 << 9)
        for table, dense in ((mw, dense_mw), (None, np.zeros_like(dense_mw))):
            got = _trained_classes(hist, dense)
            assert got.dtype == np.uint64
            assert np.array_equal(got, decode(synd, ml, table)[0])
    assert ties


def _sampler_at(circ, state, p, seed, **tally):
    sampler = _prep_sampler(circ, state, p, 10_000, np.random.default_rng(seed))
    return dataclasses.replace(sampler, **tally)


@pytest.mark.parametrize("p", [2.5e-3, 1e-2])
def test_prep_sampler_draws_exactly_the_requested_count(color17_prep, p):
    # Counts that end inside a round and counts that need several rounds
    # (the first round assumes full acceptance; at 1e-2 about 30 % pass).
    state, prep = color17_prep
    sampler = _sampler_at(prep.circuit, state, p, 3)
    total = 0
    for n_needed in (1, 7, 1_000, 20_011, 3):
        synd = sampler.draw(n_needed)
        total += n_needed
        assert synd.dtype == np.uint64 and len(synd) == n_needed
        assert total <= sampler.accepted <= sampler.attempts


def test_prep_sampler_keeps_a_uniform_subset_of_its_last_round(color17_prep):
    # A prior tally of 1 accepted in 9 attempts sizes the first round for
    # 20 % acceptance, so at about 30 % the round overshoots by half and
    # keeps two thirds of its accepted rows.  The round lists the fault-free
    # rows first (about 73 % of the accepted ones) and the strata after, so
    # keeping its first rows would keep zero syndromes only.  The kept rows'
    # nonzero share and the round's acceptance must match a population
    # drawn directly, with every accepted row kept.
    state, prep = color17_prep
    n_needed = 30_000
    sampler = _sampler_at(prep.circuit, state, 1e-2, 5, accepted=1, attempts=9)
    synd = sampler.draw(n_needed)
    assert len(synd) == n_needed and sampler.attempts - 9 > n_needed / 0.3
    rng = np.random.default_rng(6)
    attempts = 400_000
    counts = rng.multinomial(attempts, sampler.split)
    chunks = [sc for _, sc in _accepted_chunks(sampler.tables, sampler.pairs, counts[1:], rng)]
    accepted = counts[0] + sum(map(len, chunks))
    share = sum(np.count_nonzero(sc) for sc in chunks) / accepted
    assert 0.1 < share < 0.5
    assert np.count_nonzero(synd) / n_needed == pytest.approx(share, abs=5 * np.sqrt(share / n_needed))
    rate = accepted / attempts
    sigma = np.sqrt(rate * (1 - rate) / (sampler.attempts - 9))
    assert (sampler.accepted - 1) / (sampler.attempts - 9) == pytest.approx(rate, abs=5 * sigma)


def test_every_sample_draws_a_preparation_of_its_own(color17_prep, monkeypatch):
    # Training and evaluation each draw their own preparations: the
    # sampler is asked for exactly one per sample, in chunk-sized calls.
    state, prep = color17_prep
    monkeypatch.setattr(noise, "SAMPLE_CHUNK", 1_000)
    asked = []
    draw = steane_qec._PrepSampler.draw

    def counted(self, n_needed):
        asked.append(n_needed)
        return draw(self, n_needed)

    monkeypatch.setattr(steane_qec._PrepSampler, "draw", counted)
    cfg = SteaneQecConfig(state, 5e-3, samples=4_501, prep_mode=FULL_FT, seed=2)
    run_steane_qec_experiment(cfg, prep.circuit)
    assert asked == [1_000, 1_000, 250, 1_000, 1_000, 251]


def test_memory_does_not_grow_with_the_sample_count(color17_prep, monkeypatch):
    # With 2,000-row chunks, 8,000 samples make two chunks per phase and
    # 80,000 make twenty.  The traced peak of a warm run stays put (both
    # measured at 0.25 MB); holding every sample, it would grow tenfold.
    state, prep = color17_prep
    monkeypatch.setattr(noise, "SAMPLE_CHUNK", 2_000)
    run_steane_qec_experiment(SteaneQecConfig(state, 1e-2, samples=100), prep.circuit)  # warm
    peaks = []
    for samples in (8_000, 80_000):
        cfg = SteaneQecConfig(state, 1e-2, samples=samples, data_noise_multiplier=6.0, seed=1)
        tracemalloc.start()
        try:
            run_steane_qec_experiment(cfg, prep.circuit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.3 * peaks[0], peaks
