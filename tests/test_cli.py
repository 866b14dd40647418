import csv
import json
import re
import time
import zipfile

import numpy as np
import pytest

from ftprep.assemble import assemble_ft_circuit, schedule_circuit
from ftprep.bipartite import best_of_trials
from ftprep.catalog import export_code_file, get_state, steane
from ftprep import cli, library
from ftprep.cli import main
from ftprep.decoder import build_ml_lut, build_mw_lut, evaluate_test_set
from ftprep.library import GadgetLibrary
from ftprep.noise import SampleSet
from ftprep.serialization import (
    load_sample_set,
    sample_set_to_csv,
    save_sample_set,
    serialize_circuit,
)


def test_gadget_command(tmp_path, capsys):
    out = tmp_path / "gadget.txt"
    rc = main(["gadget", "--t", "2", "--r", "5", "--m", "2", "--out", str(out)])
    assert rc == 0
    assert "2 flags, 9 CX" in capsys.readouterr().out
    assert out.read_text().startswith("GADGET t=2 r=5 m=2 type=X")


def test_gadget_command_exhausted(capsys):
    rc = main(["gadget", "--t", "2", "--r", "5", "--m", "1"])
    assert rc == 1
    assert "exhausted" in capsys.readouterr().out


def test_gadget_command_negative_budget(capsys):
    rc = main(["gadget", "--t", "2", "--r", "5", "--m", "2", "--budget", "-1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "no gadget" not in out and err == "error: budget -1 is negative\n"


def test_gadget_command_exhausted_t4(capsys):
    rc = main(["gadget", "--t", "4", "--r", "6", "--m", "2"])
    assert rc == 1
    assert "no gadget: exhausted after 1661 nodes" in capsys.readouterr().out


def test_synth_assemble_verify_flow(tmp_path, capsys):
    circ_path = tmp_path / "steane.circuit"
    rc = main([
        "assemble", "--code", "steane", "--seed", "5", "--trials", "100",
        "--shuffles", "50", "--circuit-out", str(circ_path),
        "--out", str(tmp_path / "metrics.json"),
    ])
    assert rc == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["cx"] == metrics["flags"] * 2 + 9

    rc = main(["verify", "--circuit", str(circ_path), "--code", "steane", "--t", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "X: PASS" in out and "Z: PASS" in out


def test_verify_fails_on_stripped_circuit(tmp_path, capsys):
    circ_path = tmp_path / "bare.circuit"
    rc = main([
        "synth", "--code", "steane", "--seed", "7", "--trials", "100",
        "--circuit-out", str(circ_path),
    ])
    assert rc == 0
    rc = main(["verify", "--circuit", str(circ_path), "--code", "steane", "--t", "1"])
    assert rc == 1
    assert "COUNTEREXAMPLE" in capsys.readouterr().out


def test_verify_reports_the_combination_cap_as_an_error(tmp_path, capsys):
    # A cap overflow is a usage error (exit 2), not a counterexample (exit 1).
    # The color17 circuit has about a hundred X fault locations, so up to 9
    # faults make trillions of combinations.
    circ_path = tmp_path / "c17.circuit"
    main([
        "assemble", "--code", "color17", "--seed", "5", "--trials", "50",
        "--shuffles", "20", "--circuit-out", str(circ_path),
    ])
    capsys.readouterr()
    rc = main(["verify", "--circuit", str(circ_path), "--code", "color17", "--t", "9"])
    assert rc == 2
    captured = capsys.readouterr()
    assert re.match(r"error: \d+ fault combinations exceed the cap 200000000 ", captured.err)
    assert "COUNTEREXAMPLE" not in captured.out


@pytest.mark.parametrize("command", [
    ["verify", "--circuit", "{dir}", "--code", "steane", "--t", "1"],
    ["coset", "--code", "steane", "--out", "{dir}"],
])
def test_a_directory_path_is_an_error(tmp_path, capsys, command):
    # Reading or writing a directory as a file is an OS error: exit 2.
    rc = main([arg.format(dir=tmp_path) for arg in command])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


def test_verify_csv_quotes_counterexamples(tmp_path, capsys):
    # t=1 Z gadgets on color17 (d=5): two Z faults leave a weight-3 residual,
    # and the counterexample text lists both sites with a comma between.
    state = get_state("color17")
    asm = assemble_ft_circuit(
        state, best_of_trials(state, 50, 7), GadgetLibrary.bundled(),
        z_gadget_t_override=1, allow_uncertified_override=True, seed=5,
    )
    circ_path = tmp_path / "weak.circuit"
    circ_path.write_text(serialize_circuit(schedule_circuit(asm, shuffles=5, seed=3), "color17", "|0>"))
    out = tmp_path / "r.csv"
    rc = main(["verify", "--circuit", str(circ_path), "--code", "color17", "--t", "2",
               "--out", str(out)])
    assert rc == 1
    printed = capsys.readouterr().out
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["X", "Z"] and len(rows) == 2 and len(rows[1]) == 2
    assert rows[1][0] == "pass"
    assert rows[1][1].startswith("2 Z fault(s) [op") and ", op" in rows[1][1]
    assert f"Z: COUNTEREXAMPLE {rows[1][1]}" in printed


def test_steane_out_json_and_csv(tmp_path):
    args = ["steane", "--code", "steane", "--p", "1e-3,2e-3", "--mode", "no_qec",
            "--samples", "2000", "--seed", "1", "--out"]
    assert main(args + [str(tmp_path / "r.json")]) == 0
    rows = json.loads((tmp_path / "r.json").read_text())
    assert [(row["p"], row["mode"]) for row in rows] == [(1e-3, "no_qec"), (2e-3, "no_qec")]
    assert main(args + [str(tmp_path / "r.csv")]) == 0
    with (tmp_path / "r.csv").open(newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    assert [{k: float(v) if k != "mode" else v for k, v in row.items()} for row in csv_rows] == rows


def test_steane_qec_modes_build_their_preparation(tmp_path):
    # full_ft runs the preparation circuit as built; ft_x_only re-assembles
    # it without Z gadgets.
    for mode in ("full_ft", "ft_x_only"):
        out = tmp_path / f"{mode}.json"
        rc = main(["steane", "--code", "steane", "--p", "1e-3,2e-3", "--mode", mode,
                   "--samples", "2000", "--trials", "20", "--shuffles", "10", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert [(row["p"], row["mode"]) for row in rows] == [(1e-3, mode), (2e-3, mode)]
        assert all(0 < row["prep_acceptance"] <= 1 for row in rows)


@pytest.mark.parametrize("mode", ["full_ft", "ft_x_only"])
def test_steane_qec_below_the_plan_resolution_prepares_fault_free(tmp_path, mode):
    # At p = 1e-12 the subset plan keeps no stratum: every preparation is
    # fault-free at its resolution, so all are accepted and none fails.
    out = tmp_path / "rows.json"
    rc = main(["steane", "--code", "steane", "--p", "1e-12", "--mode", mode, "--samples", "1000",
               "--seed", "1", "--trials", "20", "--shuffles", "5", "--out", str(out)])
    assert rc == 0
    [row] = json.loads(out.read_text())
    assert (row["logical_error_rate"], row["prep_acceptance"]) == (0.0, 1.0)


@pytest.mark.parametrize(
    "rate, message",
    [
        (["--p", "1e-3,2"], "require 0 < p < 1, got p=2"),
        (["--p", "1e-3", "--multiplier", "-1"], "data_noise_multiplier -1 * p 0.001"),
    ],
)
def test_steane_rates_are_checked_before_preparation(monkeypatch, capsys, rate, message):
    def no_preparation(*args, **kwargs):
        raise AssertionError("a circuit was built for a bad rate")

    monkeypatch.setattr(cli, "build_preparation_circuit", no_preparation)
    rc = main(["steane", "--code", "golay", "--samples", "10", "--seed", "1", *rate])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_simulate_decode_flow(tmp_path, capsys):
    circ_path = tmp_path / "steane.circuit"
    main([
        "assemble", "--code", "steane", "--seed", "5", "--trials", "100",
        "--shuffles", "50", "--circuit-out", str(circ_path),
    ])
    train = tmp_path / "train.npz"
    test = tmp_path / "test.npz"
    rc = main([
        "simulate", "--circuit", str(circ_path), "--code", "steane",
        "--p", "1e-3", "--samples", "200000", "--seed", "42",
        "--train-out", str(train), "--test-out", str(test),
        "--out", str(tmp_path / "sim.json"),
    ])
    assert rc == 0
    sim = json.loads((tmp_path / "sim.json").read_text())
    assert 0.97 < sim["acceptance"] < 0.99

    rc = main([
        "decode", "--code", "steane", "--train", str(train), "--test", str(test),
        "--out", str(tmp_path / "decode.json"),
    ])
    assert rc == 0
    result = json.loads((tmp_path / "decode.json").read_text())
    assert result["logical_error_rate"] < 1e-3

    # Steane sample sets against Golay's 11-bit tables are a width mismatch.
    rc = main(["decode", "--code", "golay", "--train", str(train), "--test", str(test)])
    assert rc == 2
    assert "syndrome" in capsys.readouterr().err


def test_sample_sets_land_at_paths_without_npz(tmp_path):
    # numpy appends ".npz" to a bare file name; the archives must be
    # written at exactly the paths given, so decode finds them.
    circ_path = tmp_path / "steane.circuit"
    main([
        "assemble", "--code", "steane", "--seed", "5", "--trials", "100",
        "--shuffles", "50", "--circuit-out", str(circ_path),
    ])
    train, test = tmp_path / "tr.bin", tmp_path / "te.bin"
    rc = main([
        "simulate", "--circuit", str(circ_path), "--code", "steane",
        "--p", "1e-3", "--samples", "20000", "--seed", "42",
        "--train-out", str(train), "--test-out", str(test),
    ])
    assert rc == 0
    assert train.is_file() and test.is_file()
    assert not list(tmp_path.glob("*.npz"))
    assert main(["decode", "--code", "steane", "--train", str(train), "--test", str(test)]) == 0


def test_decode_uses_the_state_the_samples_came_from(tmp_path, capsys):
    # color17's |0> and |+> MW tables give different classes: decoding |+>
    # samples with the |0> table reports 0.000772 here instead of 0.000182.
    circ_path, train, test = tmp_path / "plus.circuit", tmp_path / "train.npz", tmp_path / "test.npz"
    assert main([
        "assemble", "--code", "color17", "--state", "|+>", "--seed", "5", "--trials", "20",
        "--shuffles", "5", "--circuit-out", str(circ_path),
    ]) == 0
    assert main([
        "simulate", "--circuit", str(circ_path), "--code", "color17", "--p", "5e-3",
        "--samples", "50000", "--seed", "2", "--train-out", str(train), "--test-out", str(test),
    ]) == 0
    capsys.readouterr()
    assert main(["decode", "--code", "color17", "--train", str(train), "--test", str(test)]) == 0
    expected = evaluate_test_set(
        load_sample_set(test), build_ml_lut(load_sample_set(train)),
        build_mw_lut(get_state("color17", "|+>"), "X", 2),
    )
    assert capsys.readouterr().out == f"{expected}\n"
    # Train and test sets from different states are an error.
    save_sample_set(load_sample_set(test), test, "|0>")
    assert main(["decode", "--code", "color17", "--train", str(train), "--test", str(test)]) == 2
    assert "train samples are for |+>, test samples for |0>" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["npy", "csv", "npz", "truncated", "corrupt"])
def test_decode_rejects_a_file_that_is_not_a_sample_set(tmp_path, capsys, kind):
    # A plain array, a CSV export, an archive of other arrays, a zip header
    # with nothing after it, and a sample set with one byte flipped in the
    # middle of a member's compressed data (the archive still opens).
    samples = SampleSet.tally(3, 1, [0], [100.0], [1.0])
    good, bad = tmp_path / "good.npz", tmp_path / f"bad.{kind}"
    save_sample_set(samples, good)
    if kind == "npy":
        np.save(bad, np.zeros(3))
    elif kind == "csv":
        sample_set_to_csv(samples, bad)
    elif kind == "npz":
        np.savez(bad, synd=np.zeros(3))
    elif kind == "truncated":
        bad.write_bytes(b"PK\x03\x04")
    else:
        raw = bytearray(good.read_bytes())
        with zipfile.ZipFile(good) as z:
            counts, weights = z.getinfo("counts.npy"), z.getinfo("weights.npy")
        raw[weights.header_offset - counts.compress_size // 2] ^= 0xFF
        bad.write_bytes(bytes(raw))
    message = f"{bad} is not a sample-set archive written by ftprep simulate"
    for train, test in ((bad, good), (good, bad)):
        rc = main(["decode", "--code", "steane", "--train", str(train), "--test", str(test)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message} (CSV exports cannot be decoded)\n"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_sample_set(bad)


def test_decode_wmax_zero_builds_no_mw_table(tmp_path, capsys):
    # Steane X side: 3 syndrome bits, 1 class bit.  The training set holds
    # only syndrome 0, so the ten test samples at syndrome 0b101 miss the
    # ML table; with --wmax 0 they must reach the fallback, not an MW row.
    train, test = tmp_path / "train.npz", tmp_path / "test.npz"
    save_sample_set(SampleSet.tally(3, 1, [0], [100.0], [1.0]), train)
    save_sample_set(SampleSet.tally(3, 1, [0b101], [10.0], [0.1]), test)
    for wmax, layers in (("0", "MW 0/0 err, fallback 10/"), ("1", "MW 10/")):
        rc = main(["decode", "--code", "steane", "--train", str(train), "--test", str(test),
                   "--wmax", wmax])
        assert rc == 0
        assert layers in capsys.readouterr().out


def test_even_discard_needs_an_even_distance(tmp_path, capsys):
    train, test = tmp_path / "train.npz", tmp_path / "test.npz"
    save_sample_set(SampleSet.tally(3, 1, [0], [100.0], [1.0]), train)
    save_sample_set(SampleSet.tally(3, 1, [0b101], [10.0], [0.1]), test)
    rc = main(["decode", "--code", "steane", "--train", str(train), "--test", str(test),
               "--even-discard"])
    assert rc == 2
    assert "steane has d=3" in capsys.readouterr().err


def test_even_discard_drops_weight_d_over_2_syndromes(tmp_path):
    # selfdual20 has d=6: a test syndrome whose lightest X error has weight
    # 3 = d/2 is discarded; the default table then reaches weight 3.
    with pytest.warns(UserWarning, match="exceeds the distance guarantee"):
        mw = build_mw_lut(get_state("selfdual20"), "X", 3)
    heavy = int(mw.synd[mw.weight == 3][0])
    train, test, out = tmp_path / "train.npz", tmp_path / "test.npz", tmp_path / "decode.json"
    save_sample_set(SampleSet.tally(mw.synd_bits, mw.class_bits, [0], [100.0], [1.0]), train)
    save_sample_set(SampleSet.tally(mw.synd_bits, mw.class_bits, [0, heavy], [90.0, 10.0],
                                    [0.9, 0.1]), test)
    args = ["decode", "--code", "selfdual20", "--train", str(train), "--test", str(test),
            "--out", str(out)]
    with pytest.warns(UserWarning, match="exceeds the distance guarantee"):
        assert main(args + ["--even-discard"]) == 0
    assert json.loads(out.read_text())["discarded"] == 10.0
    assert main(args) == 0
    assert json.loads(out.read_text())["discarded"] == 0.0


@pytest.mark.parametrize("knob", ["--width-anneal", "--shuffles"])
def test_negative_assembly_knob_is_an_error(capsys, knob):
    rc = main(["assemble", "--code", "steane", "--seed", "5", "--trials", "10", knob, "-1"])
    assert rc == 2
    name = knob[2:].replace("-", "_")
    assert f"error: {name} -1 is negative" in capsys.readouterr().err


def test_simulate_reproducible(tmp_path):
    circ_path = tmp_path / "c.circuit"
    main([
        "assemble", "--code", "steane", "--seed", "5", "--trials", "100",
        "--shuffles", "50", "--circuit-out", str(circ_path),
    ])
    outs = []
    for name in ("a.csv", "b.csv"):
        main([
            "simulate", "--circuit", str(circ_path), "--code", "steane",
            "--p", "1e-3", "--samples", "50000", "--seed", "42",
            "--out", str(tmp_path / name),
        ])
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("p", ["0", "1", "1.5", "-0.1"])
def test_simulate_rejects_a_rate_outside_the_unit_interval(tmp_path, capsys, p):
    circ_path = tmp_path / "bare.circuit"
    main(["synth", "--code", "steane", "--seed", "7", "--trials", "20", "--circuit-out", str(circ_path)])
    capsys.readouterr()
    rc = main(["simulate", "--circuit", str(circ_path), "--code", "steane",
               "--p", p, "--samples", "1000", "--seed", "1"])
    assert rc == 2
    assert f"error: require rates 0 < p, q < 1, got p={float(p)}" in capsys.readouterr().err


def test_lut_mw_command(tmp_path, capsys):
    rc = main([
        "lut-mw", "--code", "golay", "--wmax", "3", "--out", str(tmp_path / "mw.json")
    ])
    assert rc == 0
    assert "2047 syndromes" in capsys.readouterr().out
    # Syndrome 0 is the empty error's, so Steane has 7 rows at any w_max.
    with pytest.warns(UserWarning, match="exceeds the distance guarantee of steane"):
        rc = main(["lut-mw", "--code", "steane", "--wmax", "3"])
    assert rc == 0
    assert "7 syndromes" in capsys.readouterr().out
    # A negative weight is a usage error, not an empty table.
    rc = main(["lut-mw", "--code", "steane", "--wmax", "-1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "syndromes" not in out and err == "error: w_max must be >= 0, got -1\n"


def test_verify_rejects_invalid_circuit_files(tmp_path, capsys):
    # A gate before its target's initialization, on a flag never measured.
    early = tmp_path / "early.circuit"
    early.write_text(
        "CIRCUIT code=steane state=|0>\nINIT+ c0\nCX c0 t1\nINIT0 t1\nCX c0 f0\nFINAL_MEAS Z\n"
    )
    # Every flag of a valid circuit measured into outcome m0.
    shared = tmp_path / "shared.circuit"
    rc = main([
        "assemble", "--code", "steane", "--seed", "5", "--trials", "100",
        "--shuffles", "50", "--circuit-out", str(shared),
    ])
    assert rc == 0
    shared.write_text(re.sub(r"-> m\d+", "-> m0", shared.read_text()))
    second = [n for n, line in enumerate(shared.read_text().splitlines(), 1) if line.startswith("M")][1]
    # Malformed qubit and outcome indices.
    bad_qubit = tmp_path / "bad_qubit.circuit"
    bad_qubit.write_text("CIRCUIT code=steane state=|0>\nINIT0 cx\n")
    bad_outcome = tmp_path / "bad_outcome.circuit"
    bad_outcome.write_text("CIRCUIT code=steane state=|0>\nINIT0 f0\nMZ f0 -> mx\n")
    self_cx = tmp_path / "self_cx.circuit"
    self_cx.write_text("CIRCUIT code=steane state=|0>\nINIT+ c0\nCX c0 c0\nFINAL_MEAS Z\n")
    capsys.readouterr()
    for path, reason in (
        (early, "before initialization"),
        (shared, f"line {second}: measurement 1 must record m1, not m0"),
        (bad_qubit, "line 2: malformed index in 'cx'"),
        (bad_outcome, "line 3: malformed index in 'mx'"),
        (self_cx, "line 3: CX control and target are both c0"),
    ):
        rc = main(["verify", "--circuit", str(path), "--code", "steane", "--t", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "COUNTEREXAMPLE" not in captured.out
        assert captured.err.startswith("error:") and reason in captured.err


def test_verify_takes_the_state_from_the_circuit_header(tmp_path, capsys):
    # A |+> circuit is fault-tolerant for the |+> state its header names.
    circ_path = tmp_path / "plus.circuit"
    rc = main([
        "assemble", "--code", "surface9", "--state", "|+>", "--seed", "1", "--trials", "20",
        "--shuffles", "5", "--circuit-out", str(circ_path),
    ])
    assert rc == 0
    assert circ_path.read_text().startswith("CIRCUIT code=surface9 state=|+>\n")
    capsys.readouterr()
    rc = main(["verify", "--circuit", str(circ_path), "--code", "surface9", "--t", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "X: PASS" in out and "Z: PASS" in out
    # A header naming another code is an error.
    rc = main(["verify", "--circuit", str(circ_path), "--code", "steane", "--t", "1"])
    assert rc == 2
    assert "circuit is for code 'surface9', not 'steane'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_circuit_code_qubits_must_match_the_code(tmp_path, capsys, command):
    path = tmp_path / "c99.circuit"
    path.write_text("CIRCUIT code=steane state=|0>\nINIT+ c99\nFINAL_MEAS Z\n")
    extra = ["--t", "1"] if command == "verify" else ["--p", "1e-3", "--samples", "100", "--seed", "1"]
    rc = main([command, "--circuit", str(path), "--code", "steane", *extra])
    assert rc == 2
    assert "code qubits are not exactly 0..6, each used once" in capsys.readouterr().err


def test_coset_command(capsys):
    rc = main(["coset", "--code", "golay", "--type", "Z"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max coset weight (Z): 3" in out


def test_code_file_with_a_string_distance_is_an_error(tmp_path, capsys):
    path = tmp_path / "steane.json"
    export_code_file(steane(), path)
    raw = json.loads(path.read_text())
    raw["d"] = "3"
    path.write_text(json.dumps(raw))
    rc = main(["coset", "--code", str(path), "--type", "Z"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path}: d must be an integer\n"


@pytest.mark.parametrize("d, command", [
    (0, ["assemble", "--seed", "1", "--trials", "5", "--shuffles", "2"]),
    (-3, ["coset"]),
])
def test_code_file_with_a_distance_below_one_is_an_error(tmp_path, capsys, d, command):
    path = tmp_path / "steane.json"
    export_code_file(steane(), path)
    raw = json.loads(path.read_text())
    raw["d"] = d
    path.write_text(json.dumps(raw))
    rc = main([command[0], "--code", str(path), *command[1:]])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"distance: d={d} is below 1" in captured.err


def test_code_file_with_a_spaced_name_is_an_error(tmp_path, capsys):
    # A serialized circuit's header holds the name as one token, so a name
    # with a space would write a circuit that no longer names its code.
    path = tmp_path / "steane.json"
    export_code_file(steane(), path)
    raw = json.loads(path.read_text())
    raw["name"] = "my steane"
    path.write_text(json.dumps(raw))
    out = tmp_path / "steane.circuit"
    rc = main(["synth", "--code", str(path), "--seed", "1", "--circuit-out", str(out)])
    assert rc == 2
    assert not out.exists()
    message = "name must be a non-empty string without whitespace"
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_seed_required_for_stochastic_commands(capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--code", "steane"])


def test_invalid_bundled_library_is_an_error(monkeypatch, capsys):
    def broken(cls):
        raise ValueError("library entry t=2 r=5 fails its FT test")

    monkeypatch.setattr(GadgetLibrary, "bundled", classmethod(broken))
    rc = main(["assemble", "--code", "steane", "--seed", "5", "--trials", "10", "--shuffles", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ({"t": 1, "r": 1, "m": 1, "gates": [[0, 2], [0, 1], [0, 2]]},
     "error: library entry t=1 r=1: missing 'optimal'\n"),
    ([1, 1, 1, [[0, 2], [0, 1], [0, 2]], True],
     "error: library entry '1,1' is a JSON list, not an object\n"),
    ({"t": 0, "r": 1, "m": 1, "gates": [[0, 2], [0, 1], [0, 2]], "optimal": True},
     "error: library entry t=0 r=1: require t, r >= 1 and m >= 0, got t=0 r=1 m=1\n"),
])
def test_malformed_library_entry_is_an_error(tmp_path, capsys, entry, message):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({"1,1": entry}))
    rc = main(["assemble", "--code", "steane", "--library", str(lib), "--seed", "5",
               "--trials", "10", "--shuffles", "2"])
    assert rc == 2
    assert capsys.readouterr().err == message


def test_missing_bundled_library_is_an_error(monkeypatch, capsys):
    # An empty library would fall back to minutes of gadget search.
    def missing(cls):
        raise FileNotFoundError("no bundled gadget library")

    def no_search(*args, **kwargs):
        raise AssertionError("discover_gadget called")

    monkeypatch.setattr(GadgetLibrary, "bundled", classmethod(missing))
    monkeypatch.setattr(library, "discover_gadget", no_search)
    rc = main(["assemble", "--code", "steane", "--seed", "5", "--trials", "10", "--shuffles", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: no bundled gadget library")


def _assert_bare_error(captured) -> str:
    # Each message is printed once, as written, without quotes around it.
    err = captured.err
    assert err.startswith("error: ") and not err.startswith("error: '")
    assert '"' not in err
    return err


def test_unknown_code_error_is_printed_unquoted(capsys):
    rc = main(["synth", "--code", "nope", "--seed", "1"])
    assert rc == 2
    err = _assert_bare_error(capsys.readouterr())
    assert err.startswith("error: unknown code 'nope' (catalog: ")


def test_missing_gadget_error_is_printed_unquoted(tmp_path, monkeypatch, capsys):
    # An empty library searching no flag counts: the first gadget the
    # assembly asks for is missing.
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    monkeypatch.setattr(library, "MAX_FLAGS", 0)
    rc = main([
        "assemble", "--code", "steane", "--seed", "5", "--trials", "10", "--shuffles", "2",
        "--no-trivial-gadgets", "--library", str(empty),
    ])
    assert rc == 2
    err = _assert_bare_error(capsys.readouterr())
    assert re.fullmatch(r"error: no gadget for t=1, r=\d+ with at most MAX_FLAGS=0 flags "
                        r"within the node budget 2000000 per flag count\n", err)
    assert err.count("no gadget") == 1


def test_a_bug_inside_a_subcommand_shows_its_traceback(monkeypatch):
    # Only refused inputs and limits (ValueError, OSError) exit 2; a
    # KeyError from a bug propagates out of main.
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "best_of_trials", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["synth", "--code", "steane", "--seed", "1"])


@pytest.mark.parametrize("command", [
    ["simulate", "--circuit", "{circuit}", "--code", "steane", "--p", "0.9", "--samples", "2000",
     "--seed", "1"],
    ["steane", "--code", "steane", "--p", "0.9", "--multiplier", "1", "--samples", "2000",
     "--trials", "20", "--shuffles", "5", "--seed", "1"],
])
def test_simulation_at_a_high_rate_finishes(tmp_path, command):
    # At p = 0.9 the Steane circuit's strata hold up to all 32 ops, whose
    # distinct-location rows are drawn column by column.
    circ_path = tmp_path / "steane.circuit"
    main(["assemble", "--code", "steane", "--seed", "5", "--trials", "50", "--shuffles", "20",
          "--circuit-out", str(circ_path)])
    start = time.perf_counter()
    assert main([arg.format(circuit=circ_path) for arg in command]) == 0
    assert time.perf_counter() - start < 30
