import json

import pytest

from ftprep import gf2
from ftprep.catalog import (
    ParseError,
    catalog_names,
    export_code_file,
    get_state,
    parse_code_file,
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
    state = get_state(name)
    assert validate_css_state(state).ok


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
    export_code_file("steane", path)
    state = parse_code_file(path)
    assert state.n == 7 and state.k == 1 and state.d == 3
    assert validate_css_state(state).ok


def test_parse_rejects_wrong_length(tmp_path):
    path = tmp_path / "bad.json"
    export_code_file("steane", path)
    raw = json.loads(path.read_text())
    raw["x_stabilizers"][0] = raw["x_stabilizers"][0][:-1]
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError):
        parse_code_file(path)


def test_parse_rejects_anticommuting(tmp_path):
    path = tmp_path / "bad2.json"
    export_code_file("steane", path)
    raw = json.loads(path.read_text())
    raw["z_stabilizers"][0] = "Z" + "I" * 6
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError):
        parse_code_file(path)


def test_unknown_code_name():
    with pytest.raises(KeyError):
        get_state("nonexistent-code")
