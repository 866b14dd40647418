import dataclasses
import itertools
import time

import numpy as np
import pytest

from ftprep.catalog import get_state, rotated_surface
from ftprep.css import (
    CssState,
    GroupTooLargeError,
    coset_enumeration,
    coset_key_columns,
    max_coset_weight,
    validate_css_state,
)

from _reference import coset_keys, min_weight_modulo, syndrome_and_class


def test_min_weight_of_group_element_is_zero():
    steane = get_state("steane")
    gen = steane.x_stabilizers[0]
    assert min_weight_modulo(gen, list(steane.x_stabilizers)) == 0


def test_min_weight_full_support_stabilizer_reduction():
    # A weight-4 error on the far targets reduces to weight 2 against the
    # full-support operator X_c X_t1..X_t5 (qubit 0 is c).
    assert min_weight_modulo(0b111100, [0b111111]) == 2  # t2..t5


def test_min_weight_matches_brute_force():
    steane = get_state("steane")
    gens = list(steane.x_stabilizers)
    rng = np.random.default_rng(3)
    for _ in range(20):
        qubits = rng.choice(7, size=4, replace=False)
        mask = 0
        for q in qubits:
            mask |= 1 << int(q)
        # independent oracle: enumerate all 8 products directly
        best = 8
        for bits in range(8):
            acc = mask
            for j in range(3):
                if (bits >> j) & 1:
                    acc ^= gens[j]
            best = min(best, bin(acc).count("1"))
        assert min_weight_modulo(mask, gens) == best


def test_min_weight_group_cap():
    with pytest.raises(GroupTooLargeError):
        min_weight_modulo(1, [1 << i for i in range(25)])


def test_syndrome_identity_error():
    steane = get_state("steane")
    synd, cls = syndrome_and_class(0, steane, "X")
    assert synd == 0 and cls == 0


def test_syndrome_single_qubit_error():
    steane = get_state("steane")
    synd, cls = syndrome_and_class(1, steane, "X")
    expected = 0
    for i, zg in enumerate(steane.z_stabilizers):
        if zg & 1:
            expected |= 1 << i
    assert synd == expected
    assert cls == (steane.logical_z[0] & 1)


def test_syndrome_of_stabilizer_product_is_trivial():
    steane = get_state("steane")
    prod = steane.x_stabilizers[0] ^ steane.x_stabilizers[1]
    synd, cls = syndrome_and_class(prod, steane, "X")
    assert synd == 0 and cls == 0


def test_syndrome_linearity():
    state = get_state("color17")
    rng = np.random.default_rng(9)
    for _ in range(30):
        e = int(rng.integers(0, 2**17))
        f = int(rng.integers(0, 2**17))
        se, ce = syndrome_and_class(e, state, "X")
        sf, cf = syndrome_and_class(f, state, "X")
        sef, cef = syndrome_and_class(e ^ f, state, "X")
        assert sef == se ^ sf
        assert cef == ce ^ cf


def test_validate_catalog_entries():
    for name in ("steane", "color17", "surface9", "surface25", "golay"):
        validate_css_state(get_state(name))


def test_validate_flags_anticommuting_generator():
    steane = get_state("steane")
    bad = CssState(
        name="bad",
        n=7,
        k=1,
        d=3,
        x_stabilizers=steane.x_stabilizers,
        z_stabilizers=(0b0000001,) + steane.z_stabilizers[1:],
        logical_x=steane.logical_x,
        logical_z=steane.logical_z,
    )
    with pytest.raises(ValueError, match=r"invalid CSS state bad: .*commutation: x_stabilizers\[\d\] "):
        validate_css_state(bad)


def test_validate_flags_duplicate_generator():
    steane = get_state("steane")
    bad = CssState(
        name="dup",
        n=7,
        k=1,
        d=3,
        x_stabilizers=(steane.x_stabilizers[0],) * 2 + (steane.x_stabilizers[2],),
        z_stabilizers=steane.z_stabilizers,
        logical_x=steane.logical_x,
        logical_z=steane.logical_z,
    )
    with pytest.raises(ValueError, match="rank: x_stabilizers are linearly dependent"):
        validate_css_state(bad)


def test_validate_flags_mask_beyond_n():
    steane = get_state("steane")
    bad = dataclasses.replace(steane, logical_x=(steane.logical_x[0] | 1 << 7,))
    with pytest.raises(ValueError) as err:
        validate_css_state(bad)
    assert str(err.value) == "invalid CSS state steane: length: logical_x[0] acts beyond 7 qubits"


def test_validate_flags_wrong_counts():
    steane = get_state("steane")
    with pytest.raises(ValueError, match="counts: logical representative count differs from k"):
        validate_css_state(dataclasses.replace(steane, logical_x=()))
    with pytest.raises(ValueError, match=r"counts: 3\+3 stabilizers with k=2 do not account for n=7"):
        validate_css_state(dataclasses.replace(steane, k=2))


def test_validate_flags_distance_below_one():
    # t = d // 2 would be 0 or negative: no gadget placed, or a negative
    # gadget override.
    steane = get_state("steane")
    for d in (0, -3):
        with pytest.raises(ValueError, match=rf"distance: d={d} is below 1"):
            validate_css_state(dataclasses.replace(steane, d=d))


def test_validate_lists_every_issue_in_one_message():
    # A logical beyond n that also anticommutes with a Z stabilizer: both
    # kinds come back in one error, in check order.
    steane = get_state("steane")
    bad = dataclasses.replace(steane, logical_x=(1 << 7 | 1,))
    with pytest.raises(ValueError) as err:
        validate_css_state(bad)
    message = str(err.value)
    assert message.startswith("invalid CSS state steane: length: logical_x[0] acts beyond 7 qubits; ")
    assert "; commutation: logical_x[0] anticommutes with z_stabilizers[" in message


def test_max_coset_weight_paper_values():
    assert max_coset_weight(get_state("steane"), "Z") == 1
    assert max_coset_weight(get_state("golay"), "Z") == 3


@pytest.mark.parametrize(
    "name, x_weight, z_weight",
    [("color17", 5, 3), ("golay", 7, 3), ("selfdual20", 6, 5), ("steane", 3, 1),
     ("surface25", 7, 6), ("surface9", 3, 2)],
)
def test_max_coset_weight_every_catalog_code(name, x_weight, z_weight):
    state = get_state(name)
    assert max_coset_weight(state, "X") == x_weight
    assert max_coset_weight(state, "Z") == z_weight


@pytest.mark.parametrize("error_type", ["X", "Z"])
@pytest.mark.parametrize("name", ["steane", "color17", "golay"])
def test_coset_table_matches_group_reduction(name, error_type):
    # A residual's key is in the table of errors of weight <= t exactly when
    # its reduced weight is <= t, and then the table holds that weight.
    state = get_state(name)
    t = state.t
    cols = coset_key_columns(state, error_type)
    table: dict[int, int] = {}
    for w, key in coset_enumeration(cols, t):
        table.setdefault(key, w)
    rng = np.random.default_rng(11)
    masks = []
    for _ in range(80):
        qubits = rng.choice(state.n, size=int(rng.integers(0, state.n + 1)), replace=False)
        masks.append(sum(1 << int(q) for q in qubits))
    keys = coset_keys(np.array(masks, dtype=np.uint64), cols).tolist()
    group = state.reduction_group(error_type)
    for mask, key in zip(masks, keys):
        ref = min_weight_modulo(mask, group)
        assert min(table.get(key, t + 1), t + 1) == min(ref, t + 1)


@pytest.mark.parametrize("error_type, bits", [("X", 25), ("Z", 24)])
def test_max_coset_weight_past_the_cap_fails_at_once(error_type, bits):
    # Rotated surface d=7: 24 checks per side, plus the class bit on the X
    # side, give more cosets than ENUMERATION_CAP before any enumeration.
    state = rotated_surface(7)
    start = time.perf_counter()
    with pytest.raises(GroupTooLargeError, match=f"2\\^{bits} cosets exceed the enumeration cap"):
        max_coset_weight(state, error_type)
    assert time.perf_counter() - start < 1.0


def test_max_coset_weight_x_side():
    # Without the logical in the reduction group, the logical coset keeps
    # its full distance-3 weight.
    assert max_coset_weight(get_state("steane"), "X") == 3


def test_distance_consistency_small_codes():
    # Distinct correctable errors with the same syndrome share a class.
    for name, wmax in (("steane", 1), ("color17", 2)):
        state = get_state(name)
        seen: dict[int, int] = {}
        for w in range(1, wmax + 1):
            for qubits in itertools.combinations(range(state.n), w):
                mask = 0
                for q in qubits:
                    mask |= 1 << q
                synd, cls = syndrome_and_class(mask, state, "X")
                if synd in seen:
                    assert seen[synd] == cls
                else:
                    seen[synd] = cls


def test_min_weight_empty_group_is_weight():
    assert min_weight_modulo(0b10110, []) == 3
