"""End-to-end circuit construction: synthesis, assembly, scheduling.

The bipartite representation, slot assignment and gate order are all
degrees of freedom; this module explores seeded random configurations and
keeps the circuit that minimizes total CX count, then the number of
simultaneously live qubits, mirroring how the preparation circuits in the
result tables were selected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assemble import (
    AssembledCircuit,
    assemble_ft_circuit,
    circuit_metrics,
    schedule_circuit,
)
from .bipartite import BipartiteCircuit, ranked_trials
from .circuit import Circuit
from .css import CssState
from .library import GadgetLibrary


@dataclass(frozen=True)
class PreparedCircuit:
    state: CssState
    bipartite: BipartiteCircuit
    assembled: AssembledCircuit
    circuit: Circuit

    @property
    def metrics(self):
        return circuit_metrics(self.circuit)


def build_preparation_circuit(
    state: CssState,
    library: GadgetLibrary,
    bip_trials: int = 500,
    assembly_candidates: int = 6,
    shuffles: int = 200,
    seed: int = 0,
    z_gadget_t_override: int | None = None,
    width_anneal: int = 0,
    use_trivial_gadgets: bool = True,
) -> PreparedCircuit:
    """Best preparation circuit over seeded random configurations.

    Samples ``bip_trials`` bipartite syntheses, keeps the distinct graphs
    with the fewest edges, assembles each of the top ``assembly_candidates``
    and picks the result minimizing (cx_count, max_simultaneous_qubits).
    Raises ``ValueError`` when ``assembly_candidates`` is below 1.
    """
    if assembly_candidates < 1:
        raise ValueError(f"assembly_candidates {assembly_candidates} is below 1")
    candidates = ranked_trials(state, bip_trials, seed)[:assembly_candidates]
    # Children bip_trials and bip_trials + 1 of the trials' seed sequence.
    asm_seed, sched_seed = (
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(bip_trials + 2)[bip_trials:]
    )

    best: PreparedCircuit | None = None
    best_key: tuple[int, int] | None = None
    for i, bip in enumerate(candidates):
        asm = assemble_ft_circuit(
            state,
            bip,
            library,
            z_gadget_t_override=z_gadget_t_override,
            seed=asm_seed + i,
            width_anneal=width_anneal,
            use_trivial_gadgets=use_trivial_gadgets,
        )
        circ = schedule_circuit(asm, shuffles=shuffles, seed=sched_seed + i)
        m = circuit_metrics(circ)
        key = (m.cx_count, m.max_simultaneous_qubits)
        if best_key is None or key < best_key:
            best = PreparedCircuit(state, bip, asm, circ)
            best_key = key
    assert best is not None
    return best
