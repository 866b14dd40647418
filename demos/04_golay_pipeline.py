"""The full pipeline on the 23-qubit Golay code.

The Golay code's Z errors all reduce to weight <= 3 modulo its stabilizers
and the logical Z, which certifies smaller Z-detecting gadgets (the
distance-4/5 row instead of 6/7).  With the width-annealed schedule the
preparation fits well under 56 simultaneous qubits.
"""

from ftprep.assemble import (
    assemble_ft_circuit,
    certified_z_override,
    circuit_metrics,
    schedule_circuit,
)
from ftprep.bipartite import best_of_trials
from ftprep.catalog import get_state
from ftprep.css import max_coset_weight
from ftprep.decoder import build_mw_lut
from ftprep.library import GadgetLibrary
from ftprep.noise import (
    NoiseModel,
    build_effect_tables,
    build_subset_plan,
    count_fault_locations,
    run_monte_carlo,
)
from ftprep.tableau import tableau_check_circuit
from ftprep.verify import verify_fault_tolerance

state = get_state("golay")
library = GadgetLibrary.bundled()

print("max Z coset weight:", max_coset_weight(state, "Z"))
print("certified Z-gadget override:", certified_z_override(state))

bip = best_of_trials(state, trials=1000, seed=11)
print(f"bipartite circuit: {bip.edge_count} edges")

asm = assemble_ft_circuit(state, bip, library, z_gadget_t_override=2, seed=5, width_anneal=60_000)
circ = schedule_circuit(asm, "min_max_qubits", shuffles=10_000, seed=3)
m = circuit_metrics(circ)
print(f"assembled: {m.cx_count} CX, {m.flag_count} flags, "
      f"{m.max_simultaneous_qubits} simultaneous qubits, depth {m.depth}")

print("tableau check:", "ok" if tableau_check_circuit(circ, state) is None else "FAILED")
for fault_type in ("X", "Z"):
    ce = verify_fault_tolerance(circ, state, state.t, fault_type)
    print(f"t={state.t} exhaustive verification ({fault_type}):", "PASS" if ce is None else ce)

# The perfect-code structure: weight <= 3 X errors cover every syndrome.
mw = build_mw_lut(state, "X", 3)
print(f"minimum-weight LUT: {len(mw)} syndromes (all {2**11 - 1} nonzero)")

p = 1e-3
l_p, l_q = count_fault_locations(circ)
plan = build_subset_plan(l_p, l_q, p, p / 100, 200_000)
res = run_monte_carlo(circ, state, NoiseModel(p), plan, seed=42)
lo, hi = res.acceptance_ci
print(f"acceptance at p={p:g}: {res.acceptance_rate:.4f} [{lo:.4f}, {hi:.4f}]")
