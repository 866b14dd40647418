"""Persistent library of discovered flag gadgets, keyed by (t, r).

Entries store the smallest known X-detecting gadget for each key together
with an optimality marker: ``optimal`` when the search ran to exhaustion at
every smaller flag count, ``possibly suboptimal`` when any of them only hit
its budget.  Assembly places a target's Z-detecting gadget as the X gadget
mirrored (every CX reversed), so only the X form is stored.  A user's
library file is checked entry by entry, its gadgets' FT tests included; the
shipped one is trusted by its sha256, which tier-1 tests tie to gadgets
that pass every check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .gadgets import (
    BUDGET_EXHAUSTED,
    NODE_BUDGET,
    FlagGadget,
    discover_gadget,
    gadget_ft_test,
)


MAX_FLAGS = 16  # largest flag count a library miss searches
BUNDLED_SHA256 = "d9794ce33a31e0b44b9f1e4e9875c809b84dd15bfc5dd77eb2cf0e75cd01a97b"  # data/gadget_library.json


class MissingGadgetError(ValueError):
    """No gadget within the node budget at any flag count up to MAX_FLAGS."""


@dataclass(frozen=True)
class LibraryEntry:
    gadget: FlagGadget
    optimal: bool  # True when the search at every m' < m ended in SEARCH_EXHAUSTED


class GadgetLibrary:
    """Lookup with on-miss discovery at increasing flag counts."""

    def __init__(self, entries: dict[tuple[int, int], LibraryEntry] | None = None) -> None:
        self.entries: dict[tuple[int, int], LibraryEntry] = dict(entries or {})

    def get(
        self,
        t: int,
        r: int,
        budget: int | None = NODE_BUDGET,
    ) -> FlagGadget:
        """Smallest known X-detecting gadget for ``(t, r)``.

        On a miss, runs discovery at m = 1, ..., MAX_FLAGS with the given
        per-m budget, stores the first hit, and marks it optimal only when
        every smaller m was fully exhausted; MissingGadgetError if none hits.
        """
        key = (t, r)
        if key in self.entries:
            return self.entries[key].gadget
        all_exhausted = True
        for m in range(1, MAX_FLAGS + 1):
            res = discover_gadget(t, r, m, budget=budget)
            if res.gadget is not None:
                self.entries[key] = LibraryEntry(res.gadget, optimal=all_exhausted)
                return res.gadget
            if res.status == BUDGET_EXHAUSTED:
                all_exhausted = False
        raise MissingGadgetError(f"no gadget for t={t}, r={r} with at most MAX_FLAGS={MAX_FLAGS} "
                                 f"flags within the node budget {budget} per flag count")

    def is_optimal(self, t: int, r: int) -> bool | None:
        entry = self.entries.get((t, r))
        return None if entry is None else entry.optimal

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        payload = {
            f"{t},{r}": {
                "t": t,
                "r": r,
                "m": e.gadget.m,
                "gates": [list(g) for g in e.gadget.gates],
                "optimal": e.optimal,
            }
            for (t, r), e in sorted(self.entries.items())
        }
        Path(path).write_text(json.dumps(payload, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> GadgetLibrary:
        """Read a library saved by :meth:`save`.  Raises ValueError, naming
        the entry, for a malformed entry, a key other than ``"t,r"`` of its
        own t and r, or a gadget that fails its FT test."""
        return cls._parse(Path(path).read_bytes(), path, ft_test=True)

    @classmethod
    def bundled(cls) -> GadgetLibrary:
        """The library shipped with the package, trusted by its sha256: its
        entries skip the FT test.  Raises ValueError, naming the file, when
        the file's sha256 is not ``BUNDLED_SHA256``."""
        ref = resources.files("ftprep").joinpath("data/gadget_library.json")
        raw = ref.read_bytes()
        if hashlib.sha256(raw).hexdigest() != BUNDLED_SHA256:
            raise ValueError(f"bundled library {ref} does not match its sha256 {BUNDLED_SHA256}")
        return cls._parse(raw, ref, ft_test=False)

    @classmethod
    def _parse(cls, raw: bytes, path: object, ft_test: bool) -> GadgetLibrary:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError(f"library {path} is not a JSON object")
        entries = [_load_entry(key, spec, ft_test) for key, spec in payload.items()]
        return cls({(e.gadget.t, e.gadget.r): e for e in entries})


def _load_entry(key: str, spec: object, ft_test: bool) -> LibraryEntry:
    """One ``save`` entry as a checked :class:`LibraryEntry`, its gadget's
    FT test run when ``ft_test`` holds."""
    if not isinstance(spec, dict):
        raise ValueError(f"library entry {key!r} is a JSON {type(spec).__name__}, not an object")
    t, r = spec.get("t"), spec.get("r")
    name = f"library entry t={t} r={r}" if "t" in spec and "r" in spec else f"library entry {key!r}"
    missing = [f for f in ("t", "r", "m", "gates", "optimal") if f not in spec]
    if missing:
        raise ValueError(f"{name}: missing {', '.join(map(repr, missing))}")
    not_int = [f for f in "trm" if type(spec[f]) is not int]
    if not_int:
        raise ValueError(f"{name}: {', '.join(not_int)} must be integers")
    if type(spec["optimal"]) is not bool:
        raise ValueError(f"{name}: optimal must be true or false")
    gates = spec["gates"]
    if not (isinstance(gates, list) and all(
            isinstance(g, list) and len(g) == 2 and all(type(q) is int for q in g) for g in gates)):
        raise ValueError(f"{name}: gates must be a list of [control, target] integer pairs")
    gadget = FlagGadget(t, r, spec["m"], tuple(tuple(g) for g in gates))
    try:
        gadget.validate()
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if key != f"{t},{r}":
        raise ValueError(f"{name}: key {key!r} is not '{t},{r}'")
    if ft_test and not gadget_ft_test(gadget):
        raise ValueError(f"{name} fails its FT test")
    return LibraryEntry(gadget, spec["optimal"])
