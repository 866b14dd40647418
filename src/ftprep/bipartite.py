"""Bipartite CX preparation circuits for CSS states.

Any CSS state can be prepared by initializing one qubit partition in |+>
(the controls) and the complement in |0> (the targets), then applying CX
gates along the edges of a bipartite graph.  The graph is the X-type
generator matrix in standard form (``gf2.standard_form``): each reduced
row holds exactly one control, and its other bits are the targets that
control drives, so the CX fan-out from each control creates that row's X
stabilizer.  The Z stabilizers follow by commutation, so the Z side is
never read.  Both entry points run
``validate_css_state`` once per call, so an invalid state raises its
ValueError before any trial, and a validated state always has r
independent X rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import gf2
from .circuit import Circuit, CXGate, Init
from .css import CssState, validate_css_state


@dataclass(frozen=True)
class BipartiteCircuit:
    """A bipartite CX circuit preparing a CSS state.

    ``edges`` pair code-qubit indices (control, target); controls start in
    |+> and targets in |0>.
    """

    controls: tuple[int, ...]
    targets: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(Counter(q for edge in self.edges for q in edge).values(), default=0)

    def bare_circuit(self) -> Circuit:
        """The induced plain circuit (no gadgets), edges in sorted order."""
        code = sorted(self.controls) + sorted(self.targets)
        qubit_of = {q: i for i, q in enumerate(code)}
        ops = [Init(i, "+" if i < len(self.controls) else "0") for i in range(len(code))]
        ops += [CXGate(qubit_of[a], qubit_of[b]) for a, b in sorted(self.edges)]
        return Circuit(tuple(code), tuple(ops))


def synthesize_bipartite(state: CssState, seed: int) -> BipartiteCircuit:
    """Construct one bipartite circuit for ``state``.

    The seed draws one shuffle of the qubit order, the column order of the
    standard-form elimination: a qubit becomes a control when its column is
    independent of the earlier controls' columns.  It is the only draw,
    since no recombination of the generators changes the pivots or the
    reduced rows.  Raises ``ValueError`` for an invalid state.
    """
    validate_css_state(state)
    return _synthesize(state, seed)


def _synthesize(state: CssState, seed: int) -> BipartiteCircuit:
    """``synthesize_bipartite`` for a state already checked by ``validate_css_state``."""
    n = state.n
    order = np.random.default_rng(seed).permutation(n).tolist()
    # Pivot row j's other bits are the targets its control drives.
    controls, rows = gf2.standard_form(state.reduction_group("X"), order)
    edges = [(c, q) for c, row in zip(controls, rows) for q in range(n) if q != c and (row >> q) & 1]
    targets = sorted(set(range(n)) - set(controls))
    return BipartiteCircuit(tuple(sorted(controls)), tuple(targets), tuple(sorted(edges)))


def ranked_trials(state: CssState, trials: int, seed: int) -> list[BipartiteCircuit]:
    """The distinct bipartite circuits of ``trials`` seeded syntheses, best first.

    Trial i is seeded from child i of ``SeedSequence(seed)``.  Circuits rank
    by edge count, then by maximum vertex degree, then by the trial that
    first produced them, so the order is reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    validate_css_state(state)
    seen: dict[tuple[tuple[int, int], ...], BipartiteCircuit] = {}
    for child in np.random.SeedSequence(seed).spawn(trials):
        bip = _synthesize(state, int(child.generate_state(1)[0]))
        seen.setdefault(bip.edges, bip)
    return sorted(seen.values(), key=lambda b: (b.edge_count, b.max_degree))


def best_of_trials(state: CssState, trials: int, seed: int) -> BipartiteCircuit:
    """Best bipartite circuit over seeded trials: the first of :func:`ranked_trials`."""
    return ranked_trials(state, trials, seed)[0]

