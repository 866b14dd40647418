import dataclasses
import itertools
import time
import warnings

import numpy as np
import pytest

from ftprep import decoder
from ftprep.catalog import catalog_names, get_state, rotated_surface
from ftprep.css import GroupTooLargeError, max_coset_weight
from ftprep.decoder import (
    DISCARD,
    FALLBACK,
    ML,
    MW,
    ClassConflictError,
    build_ideal_class_table,
    build_ml_lut,
    build_mw_lut,
    decode,
    evaluate_test_set,
)
from ftprep.noise import SampleSet

from _reference import syndrome_and_class


def histogram(synd_bits, class_bits, *rows):
    """SampleSet from (syndrome, class, count, weight) rows."""
    synd, cls, count, weight = zip(*rows)
    keys = [s | c << synd_bits for s, c in zip(synd, cls)]
    return SampleSet.tally(synd_bits, class_bits, keys, count, weight)


def decode_one(synd, ml, mw, discard_weight=None):
    """(class, layer) of one syndrome."""
    cls, layer = decode([synd], ml, mw, discard_weight)
    return int(cls[0]), int(layer[0])


def test_ml_majority_and_tie_break():
    ml = build_ml_lut(histogram(3, 1, (0b101, 0, 2, 2.0), (0b101, 1, 1, 1.0)))
    assert decode_one(0b101, ml, None) == (0, ML)
    heavier = build_ml_lut(histogram(3, 2, (0b101, 2, 1, 1.0), (0b101, 3, 1, 3.0)))
    assert decode_one(0b101, heavier, None) == (3, ML)
    tied = histogram(3, 2, (0b011, 3, 5, 5.0), (0b011, 1, 5, 5.0), (0b011, 2, 5, 5.0))
    # lexicographically smallest class
    assert decode_one(0b011, build_ml_lut(tied), None) == (1, ML)


def test_ml_table_matches_per_syndrome_reference():
    # Reference: maximal weight per syndrome, ties toward the smallest class.
    rng = np.random.default_rng(3)
    synd = rng.integers(0, 16, size=400)
    cls = rng.integers(0, 4, size=400)
    weight = rng.integers(1, 4, size=400) / 8.0
    train = histogram(4, 2, *zip(synd.tolist(), cls.tolist(), [1.0] * 400, weight.tolist()))
    mass: dict[int, dict[int, float]] = {}
    for s, c, w in zip(train.synd.tolist(), train.cls.tolist(), train.weight.tolist()):
        mass.setdefault(s, {})[c] = w
    ml = build_ml_lut(train)
    assert ml.synd.tolist() == sorted(mass)
    expected = [max(mass[s].items(), key=lambda kv: (kv[1], -kv[0]))[0] for s in sorted(mass)]
    assert ml.cls.tolist() == expected


def test_trivial_stream_maps_zero_syndrome():
    ml = build_ml_lut(histogram(3, 1, (0, 0, 1000, 1.0)))
    assert decode_one(0, ml, None) == (0, ML)


def test_mw_steane_single_errors():
    steane = get_state("steane")
    mw = build_mw_lut(steane, "X", 1)
    assert len(mw) == 7
    assert mw.synd.tolist() == list(range(1, 8))
    assert (mw.weight == 1).all()


def test_mw_golay_perfect_coverage():
    golay = get_state("golay")
    mw = build_mw_lut(golay, "X", 3)
    assert len(mw) == 2047
    assert mw.synd.tolist() == list(range(1, 2048))


def test_mw_golay_code_capacity_exactness():
    golay = get_state("golay")
    mw = build_mw_lut(golay, "X", 3)
    synds, classes = [], []
    for w in range(1, 4):
        for qubits in itertools.combinations(range(23), w):
            mask = 0
            for q in qubits:
                mask |= 1 << q
            synd, cls = syndrome_and_class(mask, golay, "X")
            synds.append(synd)
            classes.append(cls)
    decoded, layer = decode(synds, None, mw)
    assert decoded.tolist() == classes
    assert (layer == MW).all()


def test_mw_empty_at_zero_weight():
    steane = get_state("steane")
    assert len(build_mw_lut(steane, "X", 0)) == 0


@pytest.mark.parametrize("w_max", [-1, -5])
def test_mw_rejects_a_negative_weight(w_max):
    with pytest.raises(ValueError, match=f"w_max must be >= 0, got {w_max}"):
        build_mw_lut(get_state("steane"), "X", w_max)


def test_mw_table_has_no_syndrome_zero_row():
    # The empty error explains syndrome 0; the weight-3 logical must not.
    steane = get_state("steane")
    with pytest.warns(UserWarning):
        mw = build_mw_lut(steane, "X", 3)
    assert 0 not in mw.synd.tolist()
    fault_free = histogram(3, 1, (0, 0, 1000, 1000.0))
    assert evaluate_test_set(fault_free, None, mw).errors == 0


def test_fault_free_samples_are_not_discarded():
    # surface25 at its default w_max = 2 with the even-distance discard at 2.
    state = get_state("surface25")
    mw = build_mw_lut(state, "X", 2)
    fault_free = histogram(mw.synd_bits, mw.class_bits, (0, 0, 1000, 1000.0))
    report = evaluate_test_set(fault_free, build_ml_lut(fault_free), mw, discard_weight=2)
    assert report.discarded == 0
    assert report.kept == 1000


def test_mw_warns_once_beyond_the_guarantee():
    color17 = get_state("color17")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_mw_lut(color17, "X", 2)
        assert not caught
        build_mw_lut(color17, "X", 3)
    assert len(caught) == 1


def test_overstated_distance_raises_class_conflict():
    steane = dataclasses.replace(get_state("steane"), d=7)
    message = "weight-1 and weight-2 errors share syndrome 0x6 with classes 1 != 0"
    for w_max in (2, 3):
        with pytest.raises(ClassConflictError) as err:
            build_mw_lut(steane, "X", w_max)
        assert str(err.value) == message
    with pytest.raises(ClassConflictError, match="weight-1 and weight-2"):
        build_ideal_class_table(steane, "X")
    golay = dataclasses.replace(get_state("golay"), d=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w_max in range(4):
            build_mw_lut(golay, "X", w_max)


def test_mw_enumeration_cap(monkeypatch):
    monkeypatch.setattr(decoder, "ENUMERATION_CAP", 100)
    with pytest.raises(ValueError, match="enumeration cap 100"):
        build_mw_lut(get_state("golay"), "X", 2)


def test_decode_pipeline_order():
    ml = build_ml_lut(histogram(3, 1, (0b001, 1, 10, 10.0)))
    steane = get_state("steane")
    mw = build_mw_lut(steane, "X", 1)
    # ML layer wins where trained, MW covers the rest, fallback is trivial.
    assert decode_one(0b001, ml, mw) == (1, ML)
    other = 0b010
    assert decode_one(other, ml, mw) == (int(mw.cls[mw.synd == other][0]), MW)
    assert decode_one(0, None, None) == (0, FALLBACK)
    assert decode_one(other, None, build_mw_lut(steane, "X", 0)) == (0, FALLBACK)
    cls, layer = decode(np.array([], dtype=np.uint64), ml, mw)
    assert cls.shape == layer.shape == (0,)


def test_even_distance_discard():
    golay = get_state("golay")
    mw = build_mw_lut(golay, "X", 3)
    weight3_synds = mw.synd[mw.weight == 3].tolist()
    weight1_synds = mw.synd[mw.weight == 1].tolist()
    assert decode_one(weight3_synds[0], None, mw, 3)[1] == DISCARD
    assert decode_one(weight1_synds[0], None, mw, 3)[1] != DISCARD
    # The discard precedes the ML layer.
    ml = build_ml_lut(histogram(11, 1, (weight3_synds[0], 1, 5, 5.0)))
    assert decode_one(weight3_synds[0], ml, mw, 3) == (0, DISCARD)


def test_evaluate_counts_fallback_errors():
    test = histogram(3, 1, (0b111, 1, 4, 4.0), (0, 0, 96, 96.0))  # unseen syndrome 0b111
    report = evaluate_test_set(test, None, None)
    assert report.fallback == 100
    assert report.errors == 4
    assert report.logical_error_rate == pytest.approx(0.04)


def test_evaluate_rejects_mismatched_widths():
    # A 3-bit Steane test set against 11-bit Golay tables.
    test = histogram(3, 1, (0b111, 1, 4, 4.0), (0, 0, 96, 96.0))
    golay_mw = build_mw_lut(get_state("golay"), "X", 1)
    with pytest.raises(ValueError, match="MW table has 11 syndrome"):
        evaluate_test_set(test, None, golay_mw)
    wide_ml = build_ml_lut(histogram(3, 2, (0b111, 1, 4, 4.0)))
    with pytest.raises(ValueError, match="ML table has 3 syndrome \\+ 2 class"):
        evaluate_test_set(test, wide_ml, None)


def test_pipeline_dominance_on_simulated_steane():
    # ML plus MW never does worse than MW alone on the same test set.
    from ftprep.assemble import assemble_ft_circuit, schedule_circuit
    from ftprep.bipartite import best_of_trials
    from ftprep.library import GadgetLibrary
    from ftprep.noise import (
        NoiseModel,
        build_effect_tables,
        build_subset_plan,
        count_fault_locations,
        run_monte_carlo,
    )

    state = get_state("steane")
    lib = GadgetLibrary.bundled()
    bip = best_of_trials(state, 200, 7)
    asm = assemble_ft_circuit(state, bip, lib, seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=50, seed=3)
    l_p, l_q = count_fault_locations(circ)
    plan = build_subset_plan(l_p, l_q, 2e-3, 2e-5, 400_000)
    res = run_monte_carlo(circ, state, NoiseModel(2e-3), plan, seed=8)
    ml = build_ml_lut(res.train)
    mw = build_mw_lut(state, "X", 1)
    with_ml = evaluate_test_set(res.test, ml, mw)
    without_ml = evaluate_test_set(res.test, None, mw)
    assert with_ml.logical_error_rate <= without_ml.logical_error_rate


def test_even_distance_policy_keeps_no_boundary_syndromes():
    golay = get_state("golay")
    mw = build_mw_lut(golay, "X", 3)
    test = histogram(11, 1, *((s, c, 1, 1.0) for s, c in zip(mw.synd[:50], mw.cls[:50])))
    report = evaluate_test_set(test, None, mw, 3)
    weight3 = mw.synd[mw.weight == 3]
    assert (decode(weight3, None, mw, 3)[1] == DISCARD).all()
    assert report.discarded == (mw.weight[:50] == 3).sum()


def test_ideal_class_table_covers_all_syndromes():
    steane = get_state("steane")
    table = build_ideal_class_table(steane, "Z")
    assert len(table) == 8  # the Z side quotients to the syndrome space


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("label", ["|0>", "|+>"])
def test_ideal_table_heaviest_first_hit_is_the_max_coset_weight(name, label):
    # Two independent lightest-first passes: Z keys carry no class bits, so
    # each syndrome is one coset and its first hit is the coset minimum.
    state = get_state(name, label)
    table = build_ideal_class_table(state, "Z")
    assert table.class_bits == 0
    assert table.weight.max() == max_coset_weight(state, "Z")


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("label", ["|0>", "|+>"])
@pytest.mark.parametrize("error_type", ["X", "Z"])
def test_mw_table_is_the_ideal_table_up_to_its_weight(name, label, error_type):
    # One lightest-first cover: at w_max = w = 0..t+1 the MW table is the
    # ideal table's rows of weight <= w without the syndrome-0 row.
    state = get_state(name, label)
    ideal = build_ideal_class_table(state, error_type)
    for w in range(state.t + 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # w past the distance guarantee
            mw = build_mw_lut(state, error_type, w)
        rows = (ideal.weight <= w) & (ideal.synd != 0)
        assert (mw.synd_bits, mw.class_bits, mw.w_max) == (ideal.synd_bits, ideal.class_bits, w)
        for got, want in ((mw.synd, ideal.synd), (mw.cls, ideal.cls), (mw.weight, ideal.weight)):
            assert got.dtype == want.dtype and got.tolist() == want[rows].tolist()


def test_mw_table_is_capped_only_past_the_guarantee():
    # Within floor((d-1)/2) = 3 the table keeps every error and reaches no
    # further, so rotated surface d=7 builds it although its 2^24 syndromes
    # exceed the cap; one weight more must reach syndromes past the kept
    # errors, and is refused before enumerating.
    state = rotated_surface(7)
    assert build_mw_lut(state, "X", 3).weight.max() == 3
    start = time.perf_counter()
    with pytest.warns(UserWarning), pytest.raises(GroupTooLargeError, match="2\\^24 cosets"):
        build_mw_lut(state, "X", 4)
    assert time.perf_counter() - start < 1.0


def test_even_distance_code_discard_flow():
    # The [[20,2,6]] code: syndromes only explicable at weight t = 3 are
    # detectable but not correctable, so decoding discards them.
    state = get_state("selfdual20")
    assert state.d == 6
    with pytest.warns(UserWarning, match="exceeds the distance guarantee"):
        mw = build_mw_lut(state, "X", 3)
    boundary = mw.synd[mw.weight == 3]
    correctable = mw.synd[mw.weight <= 2]
    assert len(boundary), "no weight-3 boundary syndromes found"
    assert (decode(boundary[:50], None, mw, 3)[1] == DISCARD).all()
    assert (decode(correctable[:50], None, mw, 3)[1] != DISCARD).all()


def test_color17_logical_ceiling_at_reference_rate():
    # Distance-5 preparation at p = 1e-3 stays below the 1e-5 ceiling with
    # 1e8 effective samples.
    from ftprep.library import GadgetLibrary
    from ftprep.noise import (
        NoiseModel,
        build_effect_tables,
        build_subset_plan,
        count_fault_locations,
        run_monte_carlo,
    )
    from ftprep.pipeline import build_preparation_circuit

    state = get_state("color17")
    lib = GadgetLibrary.bundled()
    prep = build_preparation_circuit(
        state, lib, bip_trials=150, assembly_candidates=4, shuffles=100,
        seed=9, use_trivial_gadgets=False,
    )
    circ = prep.circuit
    p = 1e-3
    l_p, l_q = count_fault_locations(circ)
    p_triv = (1 - p) ** l_p * (1 - p / 100) ** l_q
    plan = build_subset_plan(l_p, l_q, p, p / 100, int(1.01e8 * (1 - p_triv)))
    res = run_monte_carlo(circ, state, NoiseModel(p), plan, seed=42,
                          tables=build_effect_tables(circ, state))
    assert res.effective_samples >= 1e8
    rep = evaluate_test_set(res.test, build_ml_lut(res.train), build_mw_lut(state, "X", 2))
    assert rep.logical_error_rate < 1e-5


@pytest.mark.parametrize("error_type", ["X", "Z"])
def test_ideal_class_table_past_the_cap_fails_at_once(error_type):
    # Rotated surface d=7 has 24 checks per side: 2^24 syndromes, each of
    # which needs an enumerated error, exceed the cap before any enumeration.
    state = rotated_surface(7)
    start = time.perf_counter()
    with pytest.raises(GroupTooLargeError, match="2\\^24 cosets"):
        build_ideal_class_table(state, error_type)
    assert time.perf_counter() - start < 1.0
