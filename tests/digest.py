"""Seeded-output digest of the gadget, assembly and noise layers: one
``name sha256`` line per output.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/digest.py             # print the digest
    PYTHONPATH=src python tests/digest.py --update    # rewrite tests/DIGEST.txt

``tests/DIGEST.txt`` is the committed digest; a change that keeps these
outputs bit-identical prints it unchanged, and ``diff`` against it names the
outputs that moved.  Each line hashes the JSON of one output:

- ``gadgets.por_grid``: ``discover_gadget(t, r, m, budget=60_000)`` rows
  (t, r, m, status, nodes, gates) over t = 1..3 with r = 1..13 and t = 4
  with r = 1..9, m = 1..4 (192 calls; the digest that
  ``test_search_grids_pinned`` pins);
- ``gadgets.unpruned_grid``: the same rows with ``_por=False`` over
  t = 1..3, r = 1..9, m = 1..3 (81 calls);
- ``gadgets.wide_grid``: rows (t, r, m, budget, por, status, nodes, gates)
  for POR on then off, budgets 0, 7, 500 and 30,000, t = 1..5, r = 1..14,
  m = 1..5 (2,800 calls, 3,725,906 nodes);
- ``library.ghz[t=T,r=R]``: each bundled gadget's GHZ-preparation circuit
  as circuit text, and its ``gadget_ft_test`` verdict;
- ``acceptance.criterion_2_rows``: every search of criterion 2's t = 3 row
  (r = 1..8, m from 0 up to the first gadget found), as
  (r, m, status, nodes, gates);
- ``assemble.criterion_10[CODE,STATE]``: every catalog code in both states
  built by criterion 10's recipe (``build_preparation_circuit`` with
  ``bip_trials=100``, 4 candidates, 50 shuffles, seed 9), as the winning
  assembly's edge priority and the scheduled circuit text;
- ``assemble.anneal_2000[CODE]``: each catalog code's default state,
  assembled from ``best_of_trials(state, 20, 3)`` with seed 5 and 2,000
  anneal steps and scheduled with 20 shuffles (seed 3), the same pair;
- ``assemble.criterion_8``: criterion 8's Golay assembly (60,000 anneal
  steps, 10,000 shuffles), the same pair;
- ``noise.effect_tables[CODE,STATE,SIDE]``: ``build_effect_tables`` of
  each criterion 10 circuit on the X and the Z side, as its syndrome and
  class widths, ``l_p``, ``l_q``, ``flags`` and ``sc``.

Package plus stdlib only; about 29 s of CPU in two processes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from ftprep.assemble import AssembledCircuit, assemble_ft_circuit, schedule_circuit
from ftprep.bipartite import best_of_trials
from ftprep.catalog import catalog_names, get_state
from ftprep.circuit import Circuit
from ftprep.gadgets import FOUND, discover_gadget, gadget_ft_test, ghz_preparation
from ftprep.library import GadgetLibrary
from ftprep.noise import build_effect_tables
from ftprep.pipeline import build_preparation_circuit
from ftprep.serialization import serialize_circuit

DIGEST = Path(__file__).with_name("DIGEST.txt")


def _sha(value: object) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _row(t: int, r: int, m: int, **options) -> list:
    res = discover_gadget(t, r, m, **options)
    gates = [list(g) for g in res.gadget.gates] if res.found else None
    return [res.status, res.nodes, gates]


def _assembly(asm: AssembledCircuit, circ: Circuit, code: str, label: str) -> list:
    return [list(asm.edge_priority), serialize_circuit(circ, code, label)]


def _assemblies(library: GadgetLibrary) -> dict[str, object]:
    outputs: dict[str, object] = {}
    circuits = []
    for name in catalog_names():
        for label in ("|0>", "|+>"):
            state = get_state(name, label)
            prep = build_preparation_circuit(
                state, library, bip_trials=100, assembly_candidates=4, shuffles=50, seed=9
            )
            outputs[f"assemble.criterion_10[{name},{label}]"] = _assembly(
                prep.assembled, prep.circuit, name, label
            )
            circuits.append((f"{name},{label}", prep.circuit, state))
    for name in catalog_names():
        state = get_state(name)
        asm = assemble_ft_circuit(state, best_of_trials(state, 20, 3), library, seed=5, width_anneal=2_000)
        circ = schedule_circuit(asm, shuffles=20, seed=3)
        outputs[f"assemble.anneal_2000[{name}]"] = _assembly(asm, circ, name, "|0>")
    state = get_state("golay")
    asm = assemble_ft_circuit(
        state, best_of_trials(state, trials=1000, seed=11), library, z_gadget_t_override=2,
        seed=5, width_anneal=60_000,
    )
    circ = schedule_circuit(asm, "min_max_qubits", shuffles=10_000, seed=3)
    outputs["assemble.criterion_8"] = _assembly(asm, circ, "golay", "|0>")
    for key, circ, state in circuits:
        for side in ("X", "Z"):
            tables = build_effect_tables(circ, state, side)
            outputs[f"noise.effect_tables[{key},{side}]"] = [
                tables.synd_bits, tables.class_bits, tables.l_p, tables.l_q,
                tables.flags.tolist(), tables.sc.tolist(),
            ]
    return outputs


def _wide_grid(por: bool) -> list:
    return [
        [t, r, m, budget, por, *_row(t, r, m, budget=budget, _por=por)]
        for budget in (0, 7, 500, 30_000)
        for t in range(1, 6)
        for r in range(1, 15)
        for m in range(1, 6)
    ]


def digest_lines() -> list[str]:
    # The POR-on half of the wide grid, about half the work, runs in a
    # second process while this one computes the rest.
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        wide_por = pool.submit(_wide_grid, True)
        outputs = _outputs()
        wide_off = _wide_grid(False)
        outputs["gadgets.wide_grid"] = wide_por.result() + wide_off
    return [f"{name} {_sha(value)}" for name, value in outputs.items()]


def _outputs() -> dict[str, object]:
    por = [(t, r, m) for t in (1, 2, 3, 4) for r in range(1, 14 if t < 4 else 10) for m in range(1, 5)]
    unpruned = [(t, r, m) for t in (1, 2, 3) for r in range(1, 10) for m in range(1, 4)]
    outputs = {
        "gadgets.por_grid": [[t, r, m, *_row(t, r, m, budget=60_000)] for t, r, m in por],
        "gadgets.unpruned_grid": [
            [t, r, m, *_row(t, r, m, budget=60_000, _por=False)] for t, r, m in unpruned
        ],
    }
    library = GadgetLibrary.bundled()
    for (t, r), entry in sorted(library.entries.items()):
        circuit, ghz = ghz_preparation(entry.gadget)
        text = serialize_circuit(circuit, ghz.name, "ghz")
        outputs[f"library.ghz[t={t},r={r}]"] = [text, gadget_ft_test(entry.gadget)]
    rows = []
    for r in range(1, 9):
        m = 0
        while True:
            rows.append([r, m, *_row(3, r, m, budget=None)])
            if rows[-1][2] == FOUND:
                break
            m += 1
    outputs["acceptance.criterion_2_rows"] = rows
    outputs.update(_assemblies(library))
    return outputs


def main(argv: list[str]) -> int:
    if argv not in ([], ["--update"]):
        print(__doc__, file=sys.stderr)
        return 2
    text = "\n".join(digest_lines()) + "\n"
    if argv:
        DIGEST.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
