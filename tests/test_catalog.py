import dataclasses
import json

import pytest

from ftprep import catalog, gf2
from ftprep.catalog import (
    ParseError,
    catalog_names,
    export_code_file,
    get_state,
    parse_code_file,
    rotated_surface,
    steane,
)
from ftprep.css import validate_css_state


def rref(rows, n):
    """Reduced row echelon form of int rows over n columns: (nonzero rows, pivots)."""
    rows = list(rows)
    piv = []
    for col in range(n):
        bit = 1 << col
        hit = next((i for i in range(len(piv), len(rows)) if rows[i] & bit), None)
        if hit is None:
            continue
        k = len(piv)
        rows[k], rows[hit] = rows[hit], rows[k]
        for i in range(len(rows)):
            if i != k and rows[i] & bit:
                rows[i] ^= rows[k]
        piv.append(col)
    return rows[: len(piv)], piv


def kernel_min_weight(check_rows, op_rows, n):
    """Minimum weight over ker(checks) \\ rowspace(ops), by enumeration."""
    rows, piv = rref(check_rows, n)
    free = [c for c in range(n) if c not in piv]
    basis = []
    for f in free:
        v = 1 << f
        for i, p in enumerate(piv):
            if (rows[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    span_rank = gf2.rank(op_rows)
    best = n + 1
    for bits in range(1, 1 << len(basis)):
        vv = 0
        idx = 0
        b = bits
        while b:
            if b & 1:
                vv ^= basis[idx]
            b >>= 1
            idx += 1
        w = bin(vv).count("1")
        if w < best:
            if gf2.rank(op_rows + [vv]) > span_rank:
                best = w
    return best


@pytest.mark.parametrize("name", catalog_names())
def test_entry_validates(name):
    validate_css_state(get_state(name))


@pytest.mark.parametrize("d", [7, 9])
def test_larger_rotated_surface_codes_validate(d):
    state = rotated_surface(d)
    assert (state.name, state.n, state.k, state.d) == (f"surface{d * d}", d * d, 1, d)
    validate_css_state(state)


@pytest.mark.parametrize("name", ["steane", "surface9", "color17", "surface25", "golay", "selfdual20"])
def test_distance_is_exact(name):
    state = get_state(name)
    xs, zs = list(state.x_stabilizers), list(state.z_stabilizers)
    dx = kernel_min_weight(zs, xs, state.n)
    dz = kernel_min_weight(xs, zs, state.n)
    assert min(dx, dz) == state.d


def test_plus_state_swaps_roles():
    zero = get_state("steane", "|0>")
    plus = get_state("steane", "|+>")
    assert plus.state_label == "|+>"
    assert set(plus.z_stabilizers) == set(zero.x_stabilizers)


def test_export_parse_round_trip(tmp_path):
    path = tmp_path / "steane.json"
    export_code_file(steane(), path)
    state = parse_code_file(path)
    assert state == get_state("steane")
    # A |+> state is written as its code with |+> as the default basis.
    plus = get_state("color17", "|+>")
    export_code_file(plus, path)
    assert json.loads(path.read_text())["default_state"] == "|+>"
    assert parse_code_file(path) == plus
    assert parse_code_file(path, "|0>") == get_state("color17")


def test_parse_rejects_wrong_length(tmp_path):
    path = tmp_path / "bad.json"
    export_code_file(steane(), path)
    raw = json.loads(path.read_text())
    raw["x_stabilizers"][0] = raw["x_stabilizers"][0][:-1]
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError):
        parse_code_file(path)


def test_parse_rejects_anticommuting(tmp_path):
    path = tmp_path / "bad2.json"
    export_code_file(steane(), path)
    raw = json.loads(path.read_text())
    raw["z_stabilizers"][0] = "Z" + "I" * 6
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match=r"invalid CSS state steane: commutation: x_stabilizers\[2\]"):
        parse_code_file(path)


def test_invalid_catalog_entry_is_a_parse_error_naming_it(monkeypatch):
    bad = dataclasses.replace(rotated_surface(3), k=2)
    monkeypatch.setitem(catalog._BUILDERS, "surface9", lambda: bad)
    with pytest.raises(ParseError, match="invalid CSS state surface9: counts: "):
        get_state("surface9")


@pytest.mark.parametrize("field, value, message", [
    ("d", "3", "d must be an integer"),
    ("n", 7.0, "n must be an integer"),
    ("k", True, "k must be an integer"),
    ("x_stabilizers", "XXXXIII", "x_stabilizers must be a list of strings"),
    ("logical_z", [127], "logical_z must be a list of strings"),
    ("name", "my steane", "name must be a non-empty string without whitespace"),
    ("name", 5, "name must be a non-empty string without whitespace"),
])
def test_parse_rejects_malformed_fields(tmp_path, field, value, message):
    path = tmp_path / "bad.json"
    export_code_file(steane(), path)
    raw = json.loads(path.read_text())
    raw[field] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match=message):
        parse_code_file(path)


def test_parse_rejects_a_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="not a JSON object"):
        parse_code_file(path)


def test_unknown_code_name():
    with pytest.raises(ValueError, match=r"^unknown code 'nonexistent-code' \(catalog: .*\bsteane\b"):
        get_state("nonexistent-code")
