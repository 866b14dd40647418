import numpy as np
import pytest

from ftprep.gadgets import (
    BUDGET_EXHAUSTED,
    FOUND,
    SEARCH_EXHAUSTED,
    FlagGadget,
    _flags_deterministic,
    discover_gadget,
    gadget_ft_test,
    ghz_preparation,
    trivial_gadget,
)
from ftprep.css import validate_css_state
from ftprep.library import GadgetLibrary
from ftprep.tableau import tableau_check_circuit

from _reference import flags_deterministic_reference, gadget_ft_reference, run_tableau


def test_single_cx_fails_at_five_targets():
    assert not gadget_ft_test(FlagGadget(2, 5, 2, ((0, 1),)))


def test_flagged_partial_passes():
    # time order: CX(c,t1) then CX(c,f1); two faults including a
    # measurement flip stay within bound
    assert gadget_ft_test(FlagGadget(2, 5, 2, ((0, 1), (0, 6))))


def test_discovered_five_target_gadget():
    res = discover_gadget(2, 5, 2)
    assert res.status == FOUND
    g = res.gadget
    assert g.m == 2
    assert len(g.gates) == 9  # five entangling plus two CX per flag
    assert gadget_ft_test(g)
    # deleting the closing flag CX leaves later hooks undetected
    last_flag_gate = max(i for i, (a, b) in enumerate(g.gates) if b > g.r)
    broken = g.gates[:last_flag_gate] + g.gates[last_flag_gate + 1:]
    assert not gadget_ft_test(FlagGadget(g.t, g.r, g.m, broken))


def test_search_exhausts_below_minimum():
    assert discover_gadget(2, 5, 1).status == SEARCH_EXHAUSTED
    assert discover_gadget(2, 6, 2).status == SEARCH_EXHAUSTED


def test_small_rows_match_published_counts():
    assert discover_gadget(2, 4, 1).status == FOUND
    assert discover_gadget(1, 10, 1).status == FOUND
    assert discover_gadget(3, 7, 3, budget=None).status == SEARCH_EXHAUSTED
    assert discover_gadget(3, 7, 4).status == FOUND


def test_zero_flags_is_exhausted_by_definition():
    assert discover_gadget(2, 1, 0).status == SEARCH_EXHAUSTED
    assert discover_gadget(1, 4, 0).status == SEARCH_EXHAUSTED


def test_budget_exhaustion():
    res = discover_gadget(2, 12, 3, budget=1000)
    assert res.status == BUDGET_EXHAUSTED
    assert res.nodes >= 1000


def test_negative_budget_is_an_error():
    # A negative budget is a usage error, not a search that stops at once;
    # a library miss raises it on its first flag count.
    with pytest.raises(ValueError, match="budget -1 is negative"):
        discover_gadget(2, 5, 2, budget=-1)
    with pytest.raises(ValueError, match="budget -3 is negative"):
        GadgetLibrary().get(2, 5, budget=-3)
    assert discover_gadget(2, 5, 2, budget=0).status == BUDGET_EXHAUSTED
    assert discover_gadget(2, 5, 2, budget=None).found


def test_determinism():
    a = discover_gadget(2, 7, 3)
    b = discover_gadget(2, 7, 3)
    assert a.gadget == b.gadget and a.nodes == b.nodes


def test_search_options_agree_on_small_rows():
    # POR must not change outcomes; the unpruned search is the reference.
    for t, r, m in ((2, 4, 1), (2, 5, 1), (2, 5, 2), (2, 6, 2), (1, 6, 1)):
        ref = discover_gadget(t, r, m, budget=None, _por=False)
        alt = discover_gadget(t, r, m, budget=None)
        assert alt.status == ref.status
        if ref.status == FOUND:
            assert alt.gadget.m == ref.gadget.m


def test_engine_matches_reference_on_random_circuits(monkeypatch):
    # The incremental engine agrees with the brute-force reference test and
    # with gadget_ft_test (GHZ-preparation verify) step by step, through
    # pushes and pops, at every t.  The reference faults every pattern, flag
    # init and measurement, and gadget_ft_test every XX and flag flip, where
    # the engine tests only XX and stores only undominated patterns; this
    # cross-check backs both claims.
    rng = np.random.default_rng(17)
    from ftprep import gadgets
    from ftprep.gadgets import _Engine

    for trial in range(150):
        t = int(rng.integers(1, 6))
        r = int(rng.integers(1, 10))
        m = int(rng.integers(1, 4))
        engine = _Engine(t, r, m)
        history: list[list[tuple[int, int]]] = [[]]
        for _ in range(int(rng.integers(1, 10))):
            if len(history) > 1 and rng.random() < 0.25:
                engine.pop()
                history.pop()
                continue
            a, b = (int(q) for q in rng.choice(1 + r + m, size=2, replace=False))
            candidate = [(a, b)] + history[-1]
            accepted = engine.push((a, b))
            gadget = FlagGadget(t, r, m, tuple(candidate))
            assert accepted == gadget_ft_reference(gadget) == gadget_ft_test(gadget)
            if accepted:
                history.append(candidate)
            assert engine.gates_time == history[-1]

    # An untouched control's own pattern must be stored although it is never
    # tested: here the X on flag 9 after its only gate completes the failing
    # pair with the XX pattern of (0, 5).
    engine = _Engine(2, 7, 2)
    assert engine.push((9, 7)) and engine.push((5, 9))
    assert not engine.push((0, 5))
    pinned = FlagGadget(2, 7, 2, ((0, 5), (5, 9), (9, 7)))
    assert not gadget_ft_reference(pinned) and not gadget_ft_test(pinned)

    # Random circuits almost never reach a state where only f >= 3 fails;
    # the search's own prefixes and backtracking do, at every level.
    class CheckedEngine(_Engine):
        def push(self, gate):
            candidate = FlagGadget(self.t, self.r, self.m, (gate, *self.gates_time))
            accepted = super().push(gate)
            assert accepted == gadget_ft_reference(candidate) == gadget_ft_test(candidate)
            return accepted

    monkeypatch.setattr(gadgets, "_Engine", CheckedEngine)
    for t, r, m, budget in ((2, 12, 3, 2_000), (3, 7, 3, 200), (4, 9, 3, 200), (5, 11, 4, 200)):
        assert discover_gadget(t, r, m, budget=budget).status == BUDGET_EXHAUSTED
    res = discover_gadget(3, 8, 4)
    assert (res.status, res.nodes) == (FOUND, 103)


def test_noiseless_soundness_of_discovered_gadget():
    g = discover_gadget(2, 5, 2).gadget
    circ, ghz = ghz_preparation(g)
    circ.validate()
    validate_css_state(ghz)
    tab, outcomes, deterministic = run_tableau(circ)
    assert all(deterministic) and not any(outcomes)
    # the builder's GHZ state: X_c X_t1 ... X_tr and every Z_i Z_{i+1}, sign +
    assert ghz.x_stabilizers == ((1 << (g.r + 1)) - 1,)
    assert all(tab.stabilizer_sign(x, 0) == 0 for x in ghz.x_stabilizers)
    assert all(tab.stabilizer_sign(0, z) == 0 for z in ghz.z_stabilizers)


def test_flags_deterministic_matches_span_reference():
    # The forward X sweep and the span test of the evolved flag-Z frames
    # agree on every bundled gadget and on random gate lists: on odd trials
    # every control is c or a flag, as the search places them, and on even
    # trials any label may control.
    for entry in GadgetLibrary.bundled().entries.values():
        assert _flags_deterministic(entry.gadget) and flags_deterministic_reference(entry.gadget)
    rng = np.random.default_rng(33)
    verdicts = []
    for trial in range(5_000):
        t, r, m = (int(v) for v in rng.integers((1, 1, 1), (5, 10, 5)))
        controls = [0, *range(r + 1, r + 1 + m)] if trial % 2 else list(range(r + 1 + m))
        gates = []
        for _ in range(r + 2 * m):
            a = controls[int(rng.integers(len(controls)))]
            b = int(rng.integers(r + m))
            gates.append((a, b + (b >= a)))
        gadget = FlagGadget(t, r, m, tuple(gates))
        verdicts.append(_flags_deterministic(gadget))
        assert verdicts[-1] == flags_deterministic_reference(gadget), gates
    assert 500 < sum(verdicts) < 4_500


def test_trivial_gadget_limits():
    for t in (1, 2, 3):
        for r in (1, 2):
            g = trivial_gadget(t, r)
            assert g.m == 0 and len(g.gates) == r
    with pytest.raises(ValueError):
        trivial_gadget(1, 3)  # hooks exceed the bound without a flag
    # The structural rule is the FT test's verdict on the bare chain.
    for t in range(1, 6):
        for r in range(1, 9):
            bare = FlagGadget(t, r, 0, tuple((0, i) for i in range(1, r + 1)))
            assert gadget_ft_test(bare) == (r <= 2), (t, r)


@pytest.mark.parametrize("gadget, message", [
    (FlagGadget(0, 1, 1, ((0, 2), (0, 1), (0, 2))), "require t, r >= 1 and m >= 0, got t=0"),
    (FlagGadget(1, 0, 0, ()), "got t=1 r=0"),
    (FlagGadget(1, 1, -1, ((0, 1),)), "got t=1 r=1 m=-1"),
    (FlagGadget(1, 2, 1, ((0, 3), (0, 1), (1, 2), (0, 3))), r"gate \(1, 2\): the control must be"),
    (FlagGadget(1, 1, 1, ((0, 2), (0, 1), (2, 2))), r"gate \(2, 2\): the control must be"),
])
def test_validate_rejects_impossible_gadgets(gadget, message):
    with pytest.raises(ValueError, match=message):
        gadget.validate()


def test_validate_rejects_a_target_controlling_itself():
    # The FT test sees no fault it misses, yet CX t1 t1 is no gate: the
    # noiseless check rejects the circuit, and the search never places it.
    gadget = FlagGadget(1, 1, 1, ((0, 2), (0, 2), (1, 1)))
    assert gadget_ft_test(gadget)
    with pytest.raises(ValueError, match="both control and target"):
        tableau_check_circuit(*ghz_preparation(gadget))
    with pytest.raises(ValueError, match=r"gate \(1, 1\): the control must be c or a flag"):
        gadget.validate()


def test_ft_test_key_width_limit():
    # The GHZ coset key holds one syndrome bit per target.
    with pytest.raises(ValueError, match="64-bit key width"):
        gadget_ft_test(FlagGadget(1, 65, 0, ((0, 1),)))


def test_gadget_rows_pinned():
    # Status, node count and gates pin the search's node sequence at every
    # t: a reordered pool, a changed prune or a wrong engine verdict moves
    # them.  t >= 4 runs the same DFS and engine as t <= 3.
    expected = {
        (2, 11, 2): (SEARCH_EXHAUSTED, 1_661),
        (2, 11, 3): (FOUND, 37),
        (3, 6, 2): (SEARCH_EXHAUSTED, 1_661),
        (3, 7, 3): (SEARCH_EXHAUSTED, 47_651),
        (3, 8, 4): (FOUND, 103),
        (4, 3, 1): (FOUND, 6),
        (4, 5, 1): (SEARCH_EXHAUSTED, 12),
        (4, 6, 2): (SEARCH_EXHAUSTED, 1_661),
        (5, 5, 2): (FOUND, 16),
        (4, 9, 3): (SEARCH_EXHAUSTED, 25_499),
    }
    gates = {
        (2, 11, 3): (
            (0, 14), (0, 13), (0, 11), (0, 10), (0, 12), (14, 9), (14, 8), (0, 7), (0, 6),
            (0, 14), (13, 5), (13, 4), (0, 3), (0, 2), (0, 13), (0, 1), (0, 12),
        ),
        (3, 8, 4): (
            (0, 12), (0, 11), (0, 8), (0, 7), (0, 10), (12, 6), (12, 9), (0, 5),
            (0, 12), (0, 4), (0, 3), (0, 11), (0, 2), (0, 10), (0, 1), (0, 9),
        ),
    }
    for (t, r, m), (status, nodes) in expected.items():
        res = discover_gadget(t, r, m)
        assert (res.status, res.nodes) == (status, nodes)
        if status == FOUND:
            res.gadget.validate()
            assert (res.gadget.t, res.gadget.r, res.gadget.m) == (t, r, m)
            assert gadget_ft_test(res.gadget)
            if (t, r, m) in gates:
                assert res.gadget.gates == gates[t, r, m]
    res = discover_gadget(2, 12, 3, budget=150_000)
    assert (res.status, res.nodes) == (BUDGET_EXHAUSTED, 150_001)


def test_target_deletion_keeps_a_gadget():
    # The monotone lemma: deleting the one gate on a target of a (t, r, m)
    # gadget, and relabelling the labels above it down by one, leaves a
    # (t, r-1, m) gadget.  So the minimal flag count never decreases in r.
    deletions = 0
    for (t, r), entry in sorted(GadgetLibrary.bundled().entries.items()):
        g = entry.gadget
        if r < 2:
            continue
        for target in range(1, r + 1):
            skip = g.entangling_gate_index(target)
            gates = tuple(
                tuple(q - (q > target) for q in gate)
                for i, gate in enumerate(g.gates)
                if i != skip
            )
            smaller = FlagGadget(t, r - 1, g.m, gates)
            smaller.validate()  # includes flag determinism
            assert gadget_ft_test(smaller), (t, r, target)
            deletions += 1
    assert deletions == 347
