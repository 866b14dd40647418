import hashlib
import json
from pathlib import Path

import pytest

import ftprep
from ftprep import library
from ftprep.gadgets import FlagGadget, gadget_ft_test
from ftprep.library import GadgetLibrary, MissingGadgetError
from ftprep.serialization import parse_gadget, serialize_gadget


@pytest.fixture(scope="module")
def bundled():
    return GadgetLibrary.bundled()


def test_bundled_entries_match_published_flag_counts(bundled):
    # Rows of the gadget-size table reproduced by the shipped library.
    expected = {
        (1, 4): 1,
        (1, 10): 1,
        (2, 4): 1,
        (2, 5): 2,
        (2, 6): 3,
        (2, 11): 3,
        (2, 12): 4,
        (2, 13): 4,
        (3, 5): 2,
        (3, 7): 4,
        (3, 8): 4,
        (3, 9): 5,
        (3, 11): 5,
        (3, 12): 6,
    }
    for (t, r), flags in expected.items():
        assert bundled.get(t, r).m == flags, (t, r)


def test_bundled_entries_pass_ft_test(bundled):
    # bundled() trusts the file by its digest, so every entry is tested here.
    assert len(bundled.entries) == 44
    for (t, r), entry in bundled.entries.items():
        assert gadget_ft_test(entry.gadget), (t, r)


def test_bundled_digest_is_the_shipped_files():
    path = Path(ftprep.__file__).parent / "data" / "gadget_library.json"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == library.BUNDLED_SHA256


def test_bundled_refuses_a_file_off_its_digest(monkeypatch):
    monkeypatch.setattr(library, "BUNDLED_SHA256", "0" * 64)
    with pytest.raises(ValueError, match=r"gadget_library\.json does not match its sha256 0{64}"):
        GadgetLibrary.bundled()


def test_optimality_markers(bundled):
    assert bundled.is_optimal(2, 5)
    assert bundled.is_optimal(3, 7)
    # the deep exhausts were budget-capped during generation
    assert bundled.is_optimal(2, 12) is False


def test_on_miss_discovery_and_persistence(tmp_path):
    lib = GadgetLibrary()
    g = lib.get(2, 5)
    assert g.m == 2
    assert lib.is_optimal(2, 5)
    path = tmp_path / "lib.json"
    lib.save(path)
    loaded = GadgetLibrary.load(path)
    assert loaded.get(2, 5) == g
    assert loaded.is_optimal(2, 5)


def test_a_miss_within_no_budget_is_a_missing_gadget():
    # budget=0 stops every flag count's search at once: the library raises
    # its own ValueError, naming t, r, MAX_FLAGS and the budget once.
    lib = GadgetLibrary()
    with pytest.raises(MissingGadgetError) as info:
        lib.get(1, 3, budget=0)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == (
        f"no gadget for t=1, r=3 with at most MAX_FLAGS={library.MAX_FLAGS} flags "
        "within the node budget 0 per flag count"
    )
    assert (1, 3) not in lib.entries


def test_gate_count_rule(bundled):
    for (t, r), entry in bundled.entries.items():
        assert len(entry.gadget.gates) == r + 2 * entry.gadget.m


def test_nondeterministic_flags_are_rejected_on_load(tmp_path):
    # Structurally sound and fault-tolerant, but flag 2's second coupling
    # comes from flag 3, not c, so flag 2 stays entangled with c and its
    # measurement is random: the search would reject it.
    gates = ((0, 2), (2, 1), (3, 2), (2, 3), (2, 3))
    gadget = FlagGadget(1, 1, 2, gates)
    assert gadget_ft_test(gadget)
    path = tmp_path / "lib.json"
    spec = {"t": 1, "r": 1, "m": 2, "gates": [list(g) for g in gates], "optimal": True}
    path.write_text(json.dumps({"1,1": spec}))
    with pytest.raises(ValueError, match="t=1 r=1: flag measurements are not deterministic"):
        GadgetLibrary.load(path)
    with pytest.raises(ValueError, match="not deterministic"):
        parse_gadget(serialize_gadget(gadget))


@pytest.mark.parametrize("first", [(99, 1), (-1, 1)])
def test_gate_labels_outside_the_gadget_are_rejected(tmp_path, first):
    # Target 1 driven by a qubit the (1, 1, 1) gadget does not have.
    gates = (first, (0, 2), (0, 2))
    with pytest.raises(ValueError, match=r"label outside 0\.\.2"):
        FlagGadget(1, 1, 1, gates).validate()
    path = tmp_path / "lib.json"
    spec = {"t": 1, "r": 1, "m": 1, "gates": [list(g) for g in gates], "optimal": True}
    path.write_text(json.dumps({"1,1": spec}))
    with pytest.raises(ValueError, match=r"library entry t=1 r=1: gate .* outside"):
        GadgetLibrary.load(path)


GOOD_SPEC = {"t": 1, "r": 1, "m": 1, "gates": [[0, 2], [0, 1], [0, 2]], "optimal": True}


@pytest.mark.parametrize("spec, message", [
    ({k: v for k, v in GOOD_SPEC.items() if k != "optimal"}, r"entry t=1 r=1: missing 'optimal'"),
    ({k: v for k, v in GOOD_SPEC.items() if k not in "tr"}, r"entry '1,1': missing 't', 'r'"),
    ([1, 1, 1], r"entry '1,1' is a JSON list, not an object"),
    ("1,1", r"entry '1,1' is a JSON str, not an object"),
    ({**GOOD_SPEC, "t": "1"}, r"entry t=1 r=1: t must be integers"),
    ({**GOOD_SPEC, "r": 1.0, "m": True}, r"entry t=1 r=1.0: r, m must be integers"),
    ({**GOOD_SPEC, "gates": [[0, 2], [0], [0, 2]]}, r"entry t=1 r=1: gates must be"),
    ({**GOOD_SPEC, "gates": 3}, r"entry t=1 r=1: gates must be"),
    ({**GOOD_SPEC, "optimal": "no"}, r"entry t=1 r=1: optimal must be true or false"),
    ({**GOOD_SPEC, "t": 0}, r"library entry t=0 r=1: require t, r >= 1 and m >= 0"),
    ({**GOOD_SPEC, "gates": [[0, 2], [0, 2], [1, 1]]}, r"entry t=1 r=1: gate \(1, 1\): the control"),
])
def test_malformed_entries_are_rejected_by_name(tmp_path, spec, message):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({"1,1": GOOD_SPEC}))
    assert GadgetLibrary.load(path).get(1, 1).gates == ((0, 2), (0, 1), (0, 2))
    path.write_text(json.dumps({"1,1": spec}))
    with pytest.raises(ValueError, match=message):
        GadgetLibrary.load(path)


@pytest.mark.parametrize("key", ["zzz", "9,9", "1, 1"])
def test_an_entry_under_another_key_is_rejected(tmp_path, key):
    # Beside the bundled entries, or alone: either would load silently
    # under its own (t, r), so the key would say nothing.
    saved = json.loads((Path(ftprep.__file__).parent / "data/gadget_library.json").read_text())
    assert all(k == f"{spec['t']},{spec['r']}" for k, spec in saved.items())
    path = tmp_path / "lib.json"
    for payload in ({**saved, key: GOOD_SPEC}, {key: GOOD_SPEC}):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"library entry t=1 r=1: key '{key}' is not '1,1'"):
            GadgetLibrary.load(path)


def test_a_library_that_is_not_an_object_is_rejected(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps([GOOD_SPEC]))
    with pytest.raises(ValueError, match="not a JSON object"):
        GadgetLibrary.load(path)
