"""Built-in CSS code catalog and code-file parsing.

Each builder (``steane``, ``golay``, ``color17``, ``rotated_surface``,
``selfdual20``) constructs its code programmatically (cyclic
quadratic-residue codes, rotated surface codes) and returns the code's
``|0..0>`` as a :class:`CssState`.  ``get_state`` validates a catalog code
or a code file for a chosen logical basis state; preparing ``|+..+>`` is
handled by swapping the roles of X and Z data, mirroring the
Hadamard-conjugated treatment used for transversal-T-friendly codes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .css import CssState, swap_xz, validate_css_state


class ParseError(ValueError):
    """A code file is malformed."""


def _mask(bits: list[int]) -> int:
    out = 0
    for b in bits:
        out |= 1 << b
    return out


def _cyclic_shift(mask: int, n: int, k: int) -> int:
    return ((mask << k) | (mask >> (n - k))) & ((1 << n) - 1)


def _cyclic_dual_containing(n: int, g_exponents: list[int], rows: int) -> tuple[int, ...]:
    """Stabilizer rows of a dual-containing cyclic code: shifts of (x+1)g(x)."""
    g = _mask(g_exponents)
    gp = g ^ (g << 1)  # multiply by (x + 1)
    return tuple(_cyclic_shift(gp, n, k) for k in range(rows))


def steane() -> CssState:
    rows = (_mask([3, 4, 5, 6]), _mask([1, 2, 5, 6]), _mask([0, 2, 4, 6]))
    full = (1 << 7) - 1
    return CssState("steane", 7, 1, 3, rows, rows, (full,), (full,))


def golay() -> CssState:
    # [23, 12, 7] quadratic-residue (Golay) code; the even-weight subcode is
    # its dual, giving the self-dual [[23, 1, 7]] CSS code.
    g = [0, 2, 4, 5, 6, 10, 11]
    rows = _cyclic_dual_containing(23, g, 11)
    return CssState("golay", 23, 1, 7, rows, rows, (_mask(g),), (_mask(g),))


def color17() -> CssState:
    # Distance-5 CSS code on 17 qubits from the two quadratic-residue
    # factors of (x^17+1)/(x+1): X checks span <(x+1) f1>, Z checks span
    # <(x+1) f2>, and the weight-5 codeword f1 is a logical X representative.
    f1 = [0, 3, 4, 5, 8]
    f2 = [0, 1, 2, 4, 6, 7, 8]
    return CssState(
        "color17", 17, 1, 5,
        _cyclic_dual_containing(17, f1, 8), _cyclic_dual_containing(17, f2, 8),
        (_mask(f1),), (_mask(f2),),
    )


def rotated_surface(d: int) -> CssState:
    """Rotated surface code on a d x d grid, named ``surface{d*d}``."""
    if d % 2 == 0 or d < 3:
        raise ValueError("distance must be odd and >= 3")

    def q(r: int, c: int) -> int:
        return r * d + c

    x_rows: list[int] = []
    z_rows: list[int] = []
    for r in range(d - 1):
        for c in range(d - 1):
            face = _mask([q(r, c), q(r, c + 1), q(r + 1, c), q(r + 1, c + 1)])
            if (r + c) % 2 == 1:
                x_rows.append(face)
            else:
                z_rows.append(face)
    # Two-body boundary checks, staggered so everything commutes: X pairs on
    # the top row (even columns) and bottom row (odd columns), Z pairs on the
    # left column (odd rows) and right column (even rows).
    for c in range(0, d - 1, 2):
        x_rows.append(_mask([q(0, c), q(0, c + 1)]))
    for c in range(1, d - 1, 2):
        x_rows.append(_mask([q(d - 1, c), q(d - 1, c + 1)]))
    for r in range(1, d - 1, 2):
        z_rows.append(_mask([q(r, 0), q(r + 1, 0)]))
    for r in range(0, d - 1, 2):
        z_rows.append(_mask([q(r, d - 1), q(r + 1, d - 1)]))
    logical_x = _mask([q(i, i) for i in range(d)])
    logical_z = _mask([q(i, d - 1 - i) for i in range(d)])
    return CssState(
        f"surface{d * d}", d * d, 1, d, tuple(x_rows), tuple(z_rows), (logical_x,), (logical_z,)
    )


def selfdual20() -> CssState:
    # [[20, 2, 6]] self-dual CSS code: a [20, 9] self-orthogonal seed built
    # by shortening the extended [24, 12, 8] code on four coordinates plus
    # one extension row; the dual-minus-code minimum weight is exactly 6
    # (verified by full enumeration in the tests).
    rows = (
        0x80C75, 0x818EA, 0x831D4, 0x863A8, 0x8C750,
        0x98EA0, 0xB1D40, 0xE3A80, 0xB674B,
    )
    return CssState("selfdual20", 20, 2, 6, rows, rows, (0x46E, 0xCB004), (0xCB004, 0x46E))


_BUILDERS = {
    "steane": steane,
    "golay": golay,
    "color17": color17,
    "surface9": lambda: rotated_surface(3),
    "surface25": lambda: rotated_surface(5),
    "selfdual20": selfdual20,
}

DEFAULT_STATE = "|0>"


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def _validated(state: CssState, state_label: str) -> CssState:
    """``state`` (a ``|0..0>``) checked and put in the basis ``state_label``
    names; a validation failure becomes a :class:`ParseError`."""
    plus = state_label in ("|+>", "plus", "+")
    if not plus and state_label not in ("|0>", "zero", "0"):
        raise ParseError(f"unsupported state label {state_label!r}")
    try:
        validate_css_state(state)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    # |+..+> is the |0..0> of the X<->Z swapped code.
    return swap_xz(state) if plus else state


def get_state(name: str, state_label: str | None = None) -> CssState:
    """A validated CssState for a catalog code or a code-file path; ValueError otherwise."""
    if name in _BUILDERS:
        return _validated(_BUILDERS[name](), state_label or DEFAULT_STATE)
    path = Path(name)
    if path.exists():
        return parse_code_file(path, state_label)
    raise ValueError(f"unknown code {name!r} (catalog: {', '.join(catalog_names())})")


def _parse_pauli_rows(rows: object, n: int, kind: str, allowed: str) -> tuple[int, ...]:
    if not (isinstance(rows, list) and all(isinstance(row, str) for row in rows)):
        raise ParseError(f"{kind} must be a list of strings")
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"{kind}[{i}] has length {len(row)}, expected {n}")
        mask = 0
        for j, ch in enumerate(row.upper()):
            if ch == allowed:
                mask |= 1 << j
            elif ch != "I":
                raise ParseError(f"{kind}[{i}] contains {ch!r}; only I/{allowed} allowed")
        out.append(mask)
    return tuple(out)


def parse_code_file(path: str | Path, state_label: str | None = None) -> CssState:
    """Parse a JSON code file into a validated CssState.

    The format mirrors the catalog: a whitespace-free name, integer n, k
    and d, ``x_stabilizers`` and ``z_stabilizers`` as strings over I/X and
    I/Z, logical representatives, and an optional ``default_state`` label.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: not a JSON object")
    for field in ("name", "n", "k", "d", "x_stabilizers", "z_stabilizers", "logical_x", "logical_z"):
        if field not in raw:
            raise ParseError(f"{path}: missing field {field!r}")
    # The name is one token of a serialized circuit's header.
    if not isinstance(raw["name"], str) or raw["name"].split() != [raw["name"]]:
        raise ParseError(f"{path}: name must be a non-empty string without whitespace")
    for field in ("n", "k", "d"):
        if type(raw[field]) is not int:
            raise ParseError(f"{path}: {field} must be an integer")
    n = raw["n"]
    state = CssState(
        raw["name"], n, raw["k"], raw["d"],
        _parse_pauli_rows(raw["x_stabilizers"], n, "x_stabilizers", "X"),
        _parse_pauli_rows(raw["z_stabilizers"], n, "z_stabilizers", "Z"),
        _parse_pauli_rows(raw["logical_x"], n, "logical_x", "X"),
        _parse_pauli_rows(raw["logical_z"], n, "logical_z", "Z"),
    )
    return _validated(state, state_label or raw.get("default_state", DEFAULT_STATE))


def export_code_file(state: CssState, path: str | Path) -> None:
    """Write ``state``'s code in the code-file format, ``state``'s basis as
    the file's default, so ``parse_code_file`` reads ``state`` back."""
    code = swap_xz(state) if state.state_label == "|+>" else state

    def rows_to_str(rows: tuple[int, ...], ch: str) -> list[str]:
        return ["".join(ch if (row >> j) & 1 else "I" for j in range(code.n)) for row in rows]

    payload = {
        "name": code.name,
        "n": code.n,
        "k": code.k,
        "d": code.d,
        "x_stabilizers": rows_to_str(code.x_stabilizers, "X"),
        "z_stabilizers": rows_to_str(code.z_stabilizers, "Z"),
        "logical_x": rows_to_str(code.logical_x, "X"),
        "logical_z": rows_to_str(code.logical_z, "Z"),
        "default_state": state.state_label,
    }
    Path(path).write_text(json.dumps(payload, indent=1))
