"""Text formats for circuits and gadgets, plus LUT and outcome files.

Circuits and gadgets serialize to line-based text with one operation per
line in time order; serialize(parse(text)) reproduces written text exactly
(a parsed circuit may number its qubits differently).  MW look-up tables
are JSON; sample histograms persist as compressed numpy archives, with the
label of the state they were sampled from, and export to CSV.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from itertools import count
from pathlib import Path

import numpy as np

from .catalog import DEFAULT_STATE
from .circuit import Circuit, CXGate, FlagMeasure, Init
from .decoder import MWTable
from .gadgets import FlagGadget
from .noise import SampleSet


class ParseError(ValueError):
    """A circuit or gadget file is malformed."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _decimal(digits: str) -> int | None:
    """A qubit index written as ``digits``, or None unless it is a decimal
    numeral of at most 4,300 digits, the most ``int`` reads by default."""
    return int(digits) if digits.isdecimal() and len(digits) <= 4300 else None


# -- circuits ----------------------------------------------------------------


def _qubit_names(circuit: Circuit) -> list[str]:
    """``c<i>`` or ``t<i>`` for code qubit i started in |+> or |0>, and
    ``f<k>`` for the k-th flag in qubit order."""
    plus = {op.qubit for op in circuit.ops if isinstance(op, Init) and op.basis == "+"}
    flags = count()
    return [
        f"f{next(flags)}" if ci is None else f"{'c' if q in plus else 't'}{ci}"
        for q, ci in enumerate(circuit.code_index)
    ]


def serialize_circuit(circuit: Circuit, code: str = "?", state_label: str = "?") -> str:
    """One op per line, then the implicit final transversal readout as
    ``FINAL_MEAS Z``."""
    names, outcomes = _qubit_names(circuit), count()
    lines = [f"CIRCUIT code={code} state={state_label}"]
    for op in circuit.ops:
        if isinstance(op, Init):
            opcode = "INIT+" if op.basis == "+" else "INIT0"
            lines.append(f"{opcode} {names[op.qubit]}")
        elif isinstance(op, CXGate):
            lines.append(f"CX {names[op.control]} {names[op.target]}")
        elif isinstance(op, FlagMeasure):
            opcode = "MZ" if op.basis == "Z" else "MX"
            lines.append(f"{opcode} {names[op.qubit]} -> m{next(outcomes)}")
    lines.append("FINAL_MEAS Z")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> tuple[Circuit, str, str]:
    """Parse circuit text; returns (circuit, code name, state label).

    Code qubits are numbered in order of first appearance and flags after
    them in f-number order, so ``serialize_circuit`` gives back any text it
    wrote.  Measurement k must record ``m<k>``; the last line is ``FINAL_MEAS Z``.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("CIRCUIT"):
        raise ParseError(1, "expected a CIRCUIT header")
    header = dict(
        part.split("=", 1) for part in lines[0].split()[1:] if "=" in part
    )
    body = [
        (line_no, parts)
        for line_no, parts in enumerate((line.split() for line in lines[1:]), start=2)
        if parts and not parts[0].startswith("#")
    ]
    trailer = "a circuit ends with one FINAL_MEAS Z line"
    qubits: dict[tuple[str, int], None] = {}  # (prefix, number), in order of first appearance
    raw_ops = []  # (op class, qubit keys, other fields)
    measurements = count()

    def index(token: str, line_no: int) -> int:
        i = _decimal(token[1:])
        if i is None:
            raise ParseError(line_no, f"malformed index in {token!r}")
        return i

    def qubit(token: str, line_no: int) -> tuple[str, int]:
        if token[:1] not in ("c", "t", "f"):
            raise ParseError(line_no, f"unknown qubit name {token!r}")
        key = (token[0], index(token, line_no))
        qubits.setdefault(key)
        return key

    for line_no, parts in body:
        opcode = parts[0]
        if opcode in ("INIT+", "INIT0"):
            if len(parts) != 2:
                raise ParseError(line_no, f"{opcode} takes one qubit")
            key = qubit(parts[1], line_no)
            if key[0] != "f" and (key[0] == "c") != (opcode == "INIT+"):
                raise ParseError(line_no, "c-qubits start in |+> and t-qubits in |0>")
            raw_ops.append((Init, (key,), ("+" if opcode == "INIT+" else "0",)))
        elif opcode == "CX":
            if len(parts) != 3:
                raise ParseError(line_no, "CX takes two qubits")
            keys = (qubit(parts[1], line_no), qubit(parts[2], line_no))
            if keys[0] == keys[1]:
                raise ParseError(line_no, f"CX control and target are both {parts[1]}")
            raw_ops.append((CXGate, keys, ()))
        elif opcode in ("MZ", "MX"):
            if len(parts) != 4 or parts[2] != "->" or not parts[3].startswith("m"):
                raise ParseError(line_no, f"{opcode} syntax: {opcode} <q> -> m<i>")
            key = qubit(parts[1], line_no)
            k = next(measurements)
            if index(parts[3], line_no) != k:
                raise ParseError(line_no, f"measurement {k} must record m{k}, not {parts[3]}")
            raw_ops.append((FlagMeasure, (key,), (opcode[1],)))
        elif opcode == "FINAL_MEAS":
            if parts != ["FINAL_MEAS", "Z"] or line_no != body[-1][0]:
                raise ParseError(line_no, trailer)
        else:
            raise ParseError(line_no, f"unknown opcode {opcode!r}")
    if not body or body[-1][1] != ["FINAL_MEAS", "Z"]:
        raise ParseError(body[-1][0] if body else len(lines), trailer)
    order = [key for key in qubits if key[0] != "f"] + sorted(key for key in qubits if key[0] == "f")
    qid = {key: q for q, key in enumerate(order)}
    circuit = Circuit(
        tuple(None if prefix == "f" else i for prefix, i in order),
        tuple(cls(*(qid[key] for key in keys), *rest) for cls, keys, rest in raw_ops),
    )
    circuit.validate()
    return circuit, header.get("code", "?"), header.get("state", "?")


# -- gadgets -----------------------------------------------------------------


def serialize_gadget(gadget: FlagGadget) -> str:
    names = ["c"] + [f"t{i}" for i in range(1, gadget.r + 1)]
    flags = [f"f{k}" for k in range(1, gadget.m + 1)]
    names += flags
    lines = [f"GADGET t={gadget.t} r={gadget.r} m={gadget.m} type=X"]
    lines += [f"INIT0 {f}" for f in flags]
    lines += [f"CX {names[a]} {names[b]}" for a, b in gadget.gates]
    lines += [f"MZ {f} -> m{i}" for i, f in enumerate(flags)]
    return "\n".join(lines) + "\n"


def parse_gadget(text: str) -> FlagGadget:
    """Parse gadget text.  Flag inits and readouts are implied (|0> and Z);
    only the CX lines are read."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("GADGET"):
        raise ParseError(1, "expected a GADGET header")
    header = dict(part.split("=", 1) for part in lines[0].split()[1:] if "=" in part)
    if header.get("type", "X") != "X":
        raise ParseError(1, f"unsupported gadget type {header['type']!r}; only X is stored")
    try:
        t, r, m = (int(header[key]) for key in ("t", "r", "m"))
    except (KeyError, ValueError):
        raise ParseError(1, "the header needs integer t=, r= and m=") from None
    if t < 1 or r < 1 or m < 0:
        raise ParseError(1, f"the header needs t, r >= 1 and m >= 0, got t={t} r={r} m={m}")

    def label(token: str, line_no: int) -> int:
        if token == "c":
            return 0
        i = _decimal(token[1:]) or 0
        if token[0] == "t" and 1 <= i <= r:
            return i
        if token[0] == "f" and 1 <= i <= m:
            return r + i
        raise ParseError(line_no, f"unknown gadget qubit {token!r}")

    gates = []
    for line_no, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts or parts[0].startswith("#") or parts[0] in ("INIT0", "MZ"):
            continue
        if parts[0] != "CX":
            raise ParseError(line_no, f"unknown opcode {parts[0]!r}")
        if len(parts) != 3:
            raise ParseError(line_no, "CX takes two qubits")
        gates.append((label(parts[1], line_no), label(parts[2], line_no)))
    gadget = FlagGadget(t, r, m, tuple(gates))
    gadget.validate()
    return gadget


# -- look-up tables ----------------------------------------------------------


def save_mw_table(table: MWTable, path: str | Path) -> None:
    payload = {
        "kind": "mw",
        "synd_bits": table.synd_bits,
        "class_bits": table.class_bits,
        "w_max": table.w_max,
        "entries": {
            hex(s): [c, w]
            for s, c, w in zip(table.synd.tolist(), table.cls.tolist(), table.weight.tolist())
        },
    }
    Path(path).write_text(json.dumps(payload))


# -- outcome streams ---------------------------------------------------------


def _rows(samples: SampleSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(syndrome, class, histogram index) of every key, sorted by (syndrome, class)."""
    synd, cls = samples.synd, samples.cls
    order = np.lexsort((cls, synd))
    return synd[order], cls[order], order


def save_sample_set(samples: SampleSet, path: str | Path, state_label: str = DEFAULT_STATE) -> None:
    """Persist a histogram as a compact binary archive, one row per key in
    (syndrome, class) order, with the label of the state it was sampled
    from."""
    synd, cls, order = _rows(samples)
    # A file object keeps numpy from appending ".npz" to the path.
    with open(path, "wb") as f:
        np.savez_compressed(
            f,
            synd=synd,
            cls=cls,
            counts=samples.count[order],
            weights=samples.weight[order],
            meta=np.array([samples.synd_bits, samples.class_bits], dtype=np.int64),
            state=np.array(state_label),
        )


_SAMPLE_SET_ARRAYS = ("synd", "cls", "counts", "weights", "meta")


def _read_sample_set(path: str | Path, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Those of ``names`` that the archive at ``path`` holds, read and
    checked as they are decompressed; ValueError unless ``save_sample_set``
    wrote it."""
    with open(path, "rb") as f:
        try:
            data = np.load(f)
            arrays = data.files if isinstance(data, np.lib.npyio.NpzFile) else []
            if set(_SAMPLE_SET_ARRAYS) <= set(arrays):
                return {name: data[name] for name in names if name in arrays}
        # A CSV export or an empty file, a zip cut short or a damaged member.
        except (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile, zlib.error):
            pass
    raise ValueError(
        f"{path} is not a sample-set archive written by ftprep simulate "
        "(CSV exports cannot be decoded)"
    )


def load_sample_set(path: str | Path) -> SampleSet:
    data = _read_sample_set(path, _SAMPLE_SET_ARRAYS)
    synd_bits, class_bits = (int(x) for x in data["meta"])
    keys = data["synd"].astype(np.uint64) | data["cls"].astype(np.uint64) << np.uint64(synd_bits)
    return SampleSet.tally(synd_bits, class_bits, keys, data["counts"], data["weights"])


def sample_set_state(path: str | Path) -> str:
    """The state label a sample-set archive records; an archive without one
    was sampled from |0>."""
    return str(_read_sample_set(path, ("state",)).get("state", DEFAULT_STATE))


def sample_set_to_csv(samples: SampleSet, path: str | Path) -> None:
    synd, cls, order = _rows(samples)
    lines = ["syndrome,class,count,weight"]
    for s, c, n, w in zip(
        synd.tolist(), cls.tolist(), samples.count[order].tolist(), samples.weight[order].tolist()
    ):
        lines.append(f"{s:#x},{c},{n:.6f},{w:.10g}")
    Path(path).write_text("\n".join(lines) + "\n")
