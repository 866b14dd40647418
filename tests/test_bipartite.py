import numpy as np
import pytest

from ftprep import bipartite, gf2
from ftprep.bipartite import BipartiteCircuit, best_of_trials, synthesize_bipartite
from ftprep.catalog import catalog_names, get_state, rotated_surface
from ftprep.css import CssState
from ftprep.library import GadgetLibrary
from ftprep.pipeline import build_preparation_circuit
from ftprep.tableau import tableau_check_circuit

from _reference import bipartite_reference


def bell_state() -> CssState:
    return CssState(
        name="bell",
        n=2,
        k=0,
        d=2,
        x_stabilizers=(0b11,),
        z_stabilizers=(0b11,),
        logical_x=(),
        logical_z=(),
    )


def test_bell_pair_single_edge():
    bip = synthesize_bipartite(bell_state(), seed=1)
    assert len(bip.controls) == 1
    assert len(bip.targets) == 1
    assert bip.edge_count == 1


def test_steane_best_edge_count():
    state = get_state("steane")
    bip = best_of_trials(state, trials=200, seed=7)
    assert bip.edge_count == 9
    assert len(bip.controls) == 3 and len(bip.targets) == 4
    single = synthesize_bipartite(state, seed=123)
    assert 7 <= single.edge_count <= 12


@pytest.mark.parametrize("name", catalog_names())
def test_synthesis_passes_tableau(name):
    # The tableau check proves that the bare circuit prepares the state, so
    # no synthesis re-derives the adjacency from the Z side.
    for label in ("|0>", "|+>"):
        state = get_state(name, label)
        for seed in (0, 1, 2):
            bip = synthesize_bipartite(state, seed=seed)
            assert tableau_check_circuit(bip.bare_circuit(), state) is None
            degree = {q: 0 for q in bip.controls + bip.targets}
            for a, b in bip.edges:
                degree[a] += 1
                degree[b] += 1
            assert bip.max_degree == max(degree.values())


def test_standard_form_synthesis_matches_inverse_reference():
    # Reading the graph off the standard form gives the circuit that the
    # seeded echelon scan and X2 X1^-1 give, seed for seed.
    states = [get_state(name, label) for name in catalog_names() for label in ("|0>", "|+>")]
    for state in states + [rotated_surface(7)]:
        for seed in range(100):
            assert bipartite._synthesize(state, seed) == bipartite_reference(state, seed)
    rng = np.random.default_rng(33)
    for seed in range(500):
        n = int(rng.integers(1, 41))
        rows: list[int] = []
        for row in rng.integers(1, 1 << n, size=int(rng.integers(1, n + 1))).tolist():
            if gf2.rank(rows + [row]) > len(rows):
                rows.append(row)
        state = CssState("rows", n, 0, 1, tuple(rows), (), (), ())
        assert bipartite._synthesize(state, seed) == bipartite_reference(state, seed)


def test_bipartiteness():
    state = get_state("surface9")
    bip = synthesize_bipartite(state, seed=3)
    assert not set(bip.controls) & set(bip.targets)
    for a, b in bip.edges:
        assert a in bip.controls and b in bip.targets


def test_control_propagation_lands_in_stabilizer_row_space():
    state = get_state("steane")
    bip = synthesize_bipartite(state, seed=5)
    gens = list(state.x_stabilizers)
    base_rank = gf2.rank(gens)
    for c in bip.controls:
        # X on a control propagates to X on itself plus its targets.
        mask = 1 << c
        for a, b in bip.edges:
            if a == c:
                mask |= 1 << b
        assert gf2.rank(gens + [mask]) == base_rank


def test_best_of_trials_monotone():
    state = get_state("color17")
    e_small = best_of_trials(state, trials=5, seed=9).edge_count
    e_large = best_of_trials(state, trials=60, seed=9).edge_count
    assert e_large <= e_small


def test_invalid_state_rejected(monkeypatch):
    broken = CssState(
        name="broken",
        n=2,
        k=0,
        d=1,
        x_stabilizers=(0b01, 0b01),
        z_stabilizers=(),
        logical_x=(),
        logical_z=(),
    )

    def no_trial(state, seed):
        raise AssertionError("a trial ran on an invalid state")

    monkeypatch.setattr(bipartite, "_synthesize", no_trial)
    with pytest.raises(ValueError, match="invalid CSS state"):
        synthesize_bipartite(broken, seed=0)
    with pytest.raises(ValueError, match="invalid CSS state"):
        best_of_trials(broken, trials=5, seed=0)
    with pytest.raises(ValueError, match="invalid CSS state"):
        build_preparation_circuit(broken, GadgetLibrary.bundled(), bip_trials=5)


def test_state_validated_once_per_call(monkeypatch):
    calls = []
    real = bipartite.validate_css_state
    monkeypatch.setattr(bipartite, "validate_css_state", lambda s: calls.append(s) or real(s))
    state = get_state("steane")
    best_of_trials(state, trials=20, seed=1)
    assert len(calls) == 1
    build_preparation_circuit(state, GadgetLibrary.bundled(), bip_trials=20,
                              assembly_candidates=1, shuffles=2, seed=1)
    assert len(calls) == 2
