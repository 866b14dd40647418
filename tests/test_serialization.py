import json
import re

import numpy as np
import pytest

from ftprep.assemble import assemble_ft_circuit, schedule_circuit
from ftprep.bipartite import best_of_trials
from ftprep.catalog import get_state
from ftprep.circuit import Circuit, CXGate, FlagMeasure, Init
from ftprep.decoder import build_mw_lut
from ftprep.gadgets import discover_gadget
from ftprep.library import GadgetLibrary
from ftprep.noise import SampleSet
from ftprep.serialization import (
    ParseError,
    load_sample_set,
    parse_circuit,
    parse_gadget,
    sample_set_state,
    sample_set_to_csv,
    save_mw_table,
    save_sample_set,
    serialize_circuit,
    serialize_gadget,
)

from _reference import load_mw_table


def test_circuit_round_trip_byte_identical():
    state = get_state("steane")
    lib = GadgetLibrary.bundled()
    bip = best_of_trials(state, 100, 7)
    asm = assemble_ft_circuit(state, bip, lib, seed=5)
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=20, seed=3)
    text = serialize_circuit(circ, "steane", "|0>")
    parsed, code, label = parse_circuit(text)
    assert code == "steane" and label == "|0>"
    # Internal qubit ids may renumber; the text form is the identity.
    assert serialize_circuit(parsed, code, label) == text
    parsed.validate()
    assert parsed.cx_count == circ.cx_count
    assert parsed.flag_count == circ.flag_count


def test_flags_are_numbered_in_f_number_order():
    # f1 appears before f0; flags get the qubits after the code qubits in
    # f-number order, so the text survives a round trip.
    text = (
        "CIRCUIT code=? state=?\nINIT+ c0\nINIT0 f1\nCX c0 f1\nINIT0 t1\nCX c0 t1\n"
        "INIT+ f0\nCX f0 t1\nMZ f1 -> m0\nMX f0 -> m1\nFINAL_MEAS Z\n"
    )
    circ, _, _ = parse_circuit(text)
    assert circ.code_index == (0, 1, None, None)
    assert circ.ops[1] == Init(3, "0") and circ.ops[5] == Init(2, "+")
    assert serialize_circuit(circ) == text


def test_bare_circuit_round_trip():
    bip = best_of_trials(get_state("steane"), 20, 1)
    text = serialize_circuit(bip.bare_circuit(), "steane", "|0>")
    assert sum(line.startswith("INIT+ c") for line in text.splitlines()) == len(bip.controls)
    assert sum(line.startswith("INIT0 t") for line in text.splitlines()) == len(bip.targets)
    assert serialize_circuit(parse_circuit(text)[0], "steane", "|0>") == text


@pytest.mark.parametrize("body, line_no, reason", [
    ("INIT+ c0\nFINAL_MEAS X\n", 3, "FINAL_MEAS Z"),
    ("INIT+ c0\nINIT0 fzz\nCX c0 fzz\nMZ fzz -> m0\nFINAL_MEAS Z\n", 3, "malformed index in 'fzz'"),
    ("INIT+ c0\n", 2, "FINAL_MEAS Z"),
    ("INIT+ c0\nFINAL_MEAS Z\nINIT0 t1\nFINAL_MEAS Z\n", 3, "FINAL_MEAS Z"),
    ("INIT0 c0\nFINAL_MEAS Z\n", 2, "c-qubits start in |+>"),
    ("INIT+ c0\nCX c0 c0\nFINAL_MEAS Z\n", 3, "CX control and target are both c0"),
    # More digits than int() reads by default.
    pytest.param("INIT+ c" + "1" * 5000 + "\nFINAL_MEAS Z\n", 2, "malformed index in 'c111",
                 id="oversized-index"),
])
def test_malformed_circuit_lines_are_reported(body, line_no, reason):
    with pytest.raises(ParseError, match=re.escape(reason)) as err:
        parse_circuit("CIRCUIT code=x state=y\n" + body)
    assert err.value.line_no == line_no


def test_two_qubits_on_one_code_qubit_are_rejected():
    circ = Circuit((0, 0), (Init(0, "+"), Init(1, "0"), CXGate(0, 1)))
    with pytest.raises(ValueError, match="code qubit 0 mapped from two circuit qubits"):
        circ.validate()
    # c0 and t0 both name code qubit 0.
    with pytest.raises(ValueError, match="code qubit 0 mapped from two circuit qubits"):
        parse_circuit("CIRCUIT code=x state=y\nINIT+ c0\nINIT0 t0\nCX c0 t0\nFINAL_MEAS Z\n")


def test_cx_onto_its_own_control_is_rejected():
    circ = Circuit((0,), (Init(0, "+"), CXGate(0, 0)))
    with pytest.raises(ValueError, match="CX on qubit 0 has it as both control and target"):
        circ.validate()


@pytest.mark.parametrize("code_index, ops, reason", [
    ((0,), (Init(0, "+"), Init(0, "0")), "qubit 0 initialized twice"),
    ((0, None), (Init(0, "+"), Init(1, "0"), FlagMeasure(1, "Z"), CXGate(0, 1)),
     "qubit 1 used after measurement"),
    ((0, None), (Init(0, "+"), Init(1, "0"), FlagMeasure(1, "Z"), FlagMeasure(1, "Z")),
     "flag 1 measured twice"),
    ((0,), (Init(0, "0"), FlagMeasure(0, "Z")), "code qubits may only be measured transversally"),
    ((0, 1), (Init(0, "+"),), "qubit 1 never initialized"),
    ((0, None), (Init(0, "+"), Init(1, "0"), CXGate(0, 1)), "flag 1 never measured"),
])
def test_circuit_validate_names_each_broken_invariant(code_index, ops, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        Circuit(code_index, ops).validate()


@pytest.mark.parametrize("text, line_no, reason", [
    ("INIT+ c0\nFINAL_MEAS Z\n", 1, "expected a CIRCUIT header"),
    ("CIRCUIT code=x state=y\nINIT0 q0\nFINAL_MEAS Z\n", 2, "unknown qubit name 'q0'"),
    ("CIRCUIT code=x state=y\nINIT+ c0 c1\nFINAL_MEAS Z\n", 2, "INIT+ takes one qubit"),
    ("CIRCUIT code=x state=y\nINIT+ c0\nINIT0 t1\nCX c0\nFINAL_MEAS Z\n", 4, "CX takes two qubits"),
    ("CIRCUIT code=x state=y\nINIT0 f0\nMZ f0 m0\nFINAL_MEAS Z\n", 3, "MZ syntax: MZ <q> -> m<i>"),
    # The k-th measurement records m<k>: swapped, repeated and past the flag count.
    ("CIRCUIT code=x state=y\nINIT0 f0\nINIT0 f1\nMZ f0 -> m1\nMZ f1 -> m0\nFINAL_MEAS Z\n", 4,
     "measurement 0 must record m0, not m1"),
    ("CIRCUIT code=x state=y\nINIT0 f0\nINIT0 f1\nMZ f0 -> m0\nMZ f1 -> m0\nFINAL_MEAS Z\n", 5,
     "measurement 1 must record m1, not m0"),
    ("CIRCUIT code=x state=y\nINIT0 f0\nINIT0 f1\nMZ f0 -> m0\nMZ f1 -> m2\nFINAL_MEAS Z\n", 5,
     "measurement 1 must record m1, not m2"),
])
def test_circuit_parse_errors_name_their_line(text, line_no, reason):
    with pytest.raises(ParseError, match=re.escape(reason)) as err:
        parse_circuit(text)
    assert err.value.line_no == line_no


def test_gadget_round_trip_and_line_counts():
    g = discover_gadget(2, 5, 2).gadget
    text = serialize_gadget(g)
    lines = text.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("CX")) == 9
    assert sum(1 for l in lines if l.startswith("MZ")) == 2
    parsed = parse_gadget(text)
    assert parsed == g


def test_gadget_text_is_pinned():
    # The gadget file format, byte for byte.
    expected = (
        "GADGET t=2 r=5 m=2 type=X\n"
        "INIT0 f1\n"
        "INIT0 f2\n"
        "CX c f2\n"
        "CX c f1\n"
        "CX f2 t5\n"
        "CX f2 t4\n"
        "CX c t3\n"
        "CX c t2\n"
        "CX c f2\n"
        "CX c t1\n"
        "CX c f1\n"
        "MZ f1 -> m0\n"
        "MZ f2 -> m1\n"
    )
    assert serialize_gadget(discover_gadget(2, 5, 2).gadget) == expected


@pytest.mark.parametrize("text, line_no, reason", [
    ("GADGET t=1 r=1 m=0 type=X\nCX c\n", 2, "CX takes two qubits"),
    ("GADGET r=1 m=0 type=X\nCX c t1\n", 1, "integer t=, r= and m="),
    ("GADGET t=1 r=1 m=0 type=X\nCX c tx\n", 2, "unknown gadget qubit 'tx'"),
    ("GADGET t=1 r=1 m=0 type=Z\nCX t1 c\n", 1, "unsupported gadget type 'Z'"),
    ("GADGET t=0 r=1 m=1 type=X\nCX c f1\nCX c t1\nCX c f1\n", 1,
     "the header needs t, r >= 1 and m >= 0, got t=0 r=1 m=1"),
    pytest.param("GADGET t=1 r=1 m=0 type=X\nCX c t" + "1" * 5000 + "\n", 2,
                 "unknown gadget qubit 't111", id="oversized-label"),
    ("CX c t1\n", 1, "expected a GADGET header"),
    ("GADGET t=1 r=1 m=0 type=X\nCX c t1\nMX c -> m0\n", 3, "unknown opcode 'MX'"),
])
def test_malformed_gadget_lines_are_reported(text, line_no, reason):
    with pytest.raises(ParseError, match=re.escape(reason)) as err:
        parse_gadget(text)
    assert err.value.line_no == line_no


def test_unknown_opcode_is_reported_with_line():
    with pytest.raises(ParseError) as err:
        parse_circuit("CIRCUIT code=x state=y\nBOGUS c0\n")
    assert err.value.line_no == 2


def test_lut_round_trips(tmp_path):
    state = get_state("steane")
    mw = build_mw_lut(state, "X", 1)
    mw_path = tmp_path / "mw.json"
    save_mw_table(mw, mw_path)
    loaded = load_mw_table(mw_path)
    assert (loaded.synd_bits, loaded.class_bits, loaded.w_max) == (3, 1, 1)
    for name in ("synd", "cls", "weight"):
        assert np.array_equal(getattr(loaded, name), getattr(mw, name))
        assert getattr(loaded, name).dtype == getattr(mw, name).dtype


def test_mw_table_file_rows_ascend_and_unsorted_files_load(tmp_path):
    mw = build_mw_lut(get_state("golay"), "X", 3)
    mw_path = tmp_path / "mw.json"
    save_mw_table(mw, mw_path)
    raw = json.loads(mw_path.read_text())
    assert [int(s, 16) for s in raw["entries"]] == list(range(1, 2048))
    # Rows in any order, a syndrome-0 row included, load as written.
    raw["entries"] = {"0x5": [1, 1], "0x0": [1, 3], "0x2": [0, 1]}
    mw_path.write_text(json.dumps(raw))
    loaded = load_mw_table(mw_path)
    assert loaded.synd.tolist() == [0, 2, 5]
    assert loaded.cls.tolist() == [1, 0, 1]
    assert loaded.weight.tolist() == [3, 1, 1]


# (syndrome, class, count, weight) rows in (syndrome, class) order; the packed
# keys (syndrome | class << 4) order them differently.
ROWS = [(0, 0, 5000.5, 0.97), (0, 1, 4.0, 0.125), (3, 0, 2.0, 1e-7), (3, 1, 17.0, 0.25),
        (15, 1, 1.0, 3.3e-9)]


def rows_histogram():
    synd, cls, count, weight = zip(*ROWS)
    return SampleSet.tally(4, 1, [s | c << 4 for s, c in zip(synd, cls)], count, weight)


def assert_same_histogram(a, b):
    assert (a.synd_bits, a.class_bits) == (b.synd_bits, b.class_bits)
    assert a.keys.tolist() == b.keys.tolist()
    assert a.count.tolist() == b.count.tolist()
    assert a.weight.tolist() == b.weight.tolist()


def test_sample_set_round_trip_and_csv(tmp_path):
    samples = rows_histogram()
    path = tmp_path / "samples.npz"
    save_sample_set(samples, path)
    assert_same_histogram(load_sample_set(path), samples)
    csv_path = tmp_path / "samples.csv"
    sample_set_to_csv(samples, csv_path)
    # Byte for byte what the dict-backed histogram wrote.
    assert csv_path.read_text() == (
        "syndrome,class,count,weight\n"
        "0x0,0,5000.500000,0.97\n"
        "0x0,1,4.000000,0.125\n"
        "0x3,0,2.000000,1e-07\n"
        "0x3,1,17.000000,0.25\n"
        "0xf,1,1.000000,3.3e-09\n"
    )


def test_sample_set_is_written_at_a_path_without_npz(tmp_path):
    path = tmp_path / "samples.bin"
    save_sample_set(rows_histogram(), path, "|+>")
    assert [p.name for p in tmp_path.iterdir()] == ["samples.bin"]
    assert_same_histogram(load_sample_set(path), rows_histogram())
    assert sample_set_state(path) == "|+>"


def test_sample_set_archive_layout(tmp_path):
    # The archive layout: one row per key, sorted by (syndrome, class).
    path = tmp_path / "legacy.npz"
    synd, cls, count, weight = (np.array(col) for col in zip(*ROWS))
    np.savez_compressed(
        path, synd=synd.astype(np.uint64), cls=cls.astype(np.uint64), counts=count,
        weights=weight, meta=np.array([4, 1], dtype=np.int64),
    )
    assert_same_histogram(load_sample_set(path), rows_histogram())
    # An archive without a state entry was sampled from |0>.
    assert sample_set_state(path) == "|0>"
    written = tmp_path / "written.npz"
    save_sample_set(rows_histogram(), written, "|+>")
    assert sample_set_state(written) == "|+>"
    with np.load(path) as legacy, np.load(written) as new:
        assert sorted(new.files) == sorted(legacy.files + ["state"])
        for name in legacy.files:
            assert legacy[name].dtype == new[name].dtype, name
            assert legacy[name].tolist() == new[name].tolist(), name
