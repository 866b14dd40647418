"""Build a fault-tolerant preparation circuit and verify it exhaustively.

Walks the full construction for the Steane code's logical zero: synthesize
the bipartite CX circuit, attach flag gadgets, schedule, check the result
against a stabilizer-tableau oracle, and run the exhaustive single-fault
verification for both error types.
"""

from ftprep.assemble import circuit_metrics
from ftprep.catalog import get_state
from ftprep.library import GadgetLibrary
from ftprep.pipeline import build_preparation_circuit
from ftprep.serialization import serialize_circuit
from ftprep.tableau import tableau_check_circuit
from ftprep.verify import verify_fault_tolerance

state = get_state("steane")
library = GadgetLibrary.bundled()

prep = build_preparation_circuit(state, library, seed=9, use_trivial_gadgets=False)
m = prep.metrics
print(f"Steane |0>: {m.cx_count} CX, {m.flag_count} flags, "
      f"{m.max_simultaneous_qubits} simultaneous qubits, depth {m.depth}")

mismatch = tableau_check_circuit(prep.circuit, state)
print("noiseless tableau check:", "ok" if mismatch is None else mismatch)

for fault_type in ("X", "Z"):
    ce = verify_fault_tolerance(prep.circuit, state, t=1, fault_type=fault_type)
    print(f"exhaustive t=1 verification ({fault_type}):", "PASS" if ce is None else ce)

# The bare bipartite circuit without gadgets is not fault tolerant: a
# single hook fault propagates past the correctable weight.
bare = prep.bipartite.bare_circuit()
ce = verify_fault_tolerance(bare, state, t=1, fault_type="X")
print("gadget-stripped circuit:", "PASS" if ce is None else f"counterexample: {ce}")

print()
print(serialize_circuit(prep.circuit, state.name, state.state_label))
