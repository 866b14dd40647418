"""Discover minimal flag gadgets with the backward backtracking search.

Reproduces the distance-4/5 gadget for five targets (two flags, nine CX)
including its optimality certificate: the search proves no single-flag
gadget exists before finding the two-flag one.  Then sweeps the minimal
flag counts at t = 2 and, with the same search, at t = 4 (distance 9).
"""

from ftprep.gadgets import FlagGadget, discover_gadget, gadget_ft_test
from ftprep.library import GadgetLibrary
from ftprep.serialization import serialize_gadget

# A bare CX fans a single control fault out to its targets: not FT.
print("bare CX(c,t1) passes at t=2, r=5:", gadget_ft_test(FlagGadget(2, 5, 2, ((0, 1),))))

# One flag is provably not enough for five targets at t=2 ...
res = discover_gadget(t=2, r=5, m=1, budget=None)
print("one-flag search:", res.status, f"({res.nodes} nodes explored)")

# ... and two flags suffice.
res = discover_gadget(t=2, r=5, m=2)
gadget = res.gadget
print(f"two-flag gadget found: {len(gadget.gates)} CX")
print(serialize_gadget(gadget))

# A target's Z-detecting gadget is this one Hadamard-conjugated: assembly
# places the same gates with every CX reversed.
print("mirrored for Z faults:", [(b, a) for a, b in gadget.gates])


# Flag counts across sweeps of target counts at t = 2 and t = 4, filled into
# an empty library, which certifies an entry optimal when every smaller flag
# count was exhausted.  The t = 4 rows stop at eight targets: from nine on, a
# search runs to its 2M-node budget.
library = GadgetLibrary()
for t, targets in ((2, range(1, 14)), (4, range(1, 9))):
    for r in targets:
        m = library.get(t, r).m
        proof = "certified" if library.is_optimal(t, r) else "not certified: a smaller m hit the budget"
        print(f"t={t}, {r:2d} targets -> {m} flags ({proof})")
