"""Spans and counters recorded around calls into ftprep's public functions.

A traced run replaces the traced functions in the already-imported ftprep
modules with wrappers; nothing under ``src/`` changes.  Every module
attribute bound to a traced function is replaced, so calls made inside the
package (``from .decoder import decode``) are caught as well as the
benchmark's own calls.  A span is named after the caller's module when the
caller is inside ftprep (``steane_qec.decode``) and after the function's own
module otherwise (``noise.run_monte_carlo``); its layer is always the module
that defines the function.  Spans stay in memory and are written out by the
benchmark when it ends.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_LAYER = "bench"
LAYERS = (
    "library", "gadgets", "bipartite", "assemble", "tableau",
    "verify", "noise", "decoder", "steane_qec",
)
QEC_MODES = ("full_ft", "ft_x_only", "no_qec")


class Tracer:
    """In-memory spans (name, layer, start, end, parent, run id) and counts."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str, func: str):
        rec = {
            "name": name, "layer": layer, "func": func, "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def _wrap(self, fn, layer: str, func: str, hook):
        sig = inspect.signature(fn) if hook else None
        tracer = self

        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            where = caller.rsplit(".", 1)[-1] if caller.startswith("ftprep.") else layer
            with tracer.span(f"{where}.{func}", layer, func) as rec:
                result = fn(*args, **kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, rec, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap each ``(layer, "func" or "Class.method", hook)`` target."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name.startswith("ftprep.") and mod is not None
        }
        for layer, path, hook in targets:
            owner = modules[f"ftprep.{layer}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = inspect.getattr_static(owner, attr)
                self._patch(owner, attr, self._wrap(original, layer, attr, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, attr, hook)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- count hooks: called after the span closes, with the bound arguments ----


def _on_discover(tr: Tracer, rec: dict, a: dict, res) -> None:
    from ftprep.gadgets import BUDGET_EXHAUSTED

    tr.count("gadgets.nodes", res.nodes)
    if res.status == BUDGET_EXHAUSTED:
        tr.count("gadgets.budget_hits")
    else:
        tr.count("gadgets.certified_nodes", res.nodes)


def _on_trials(tr: Tracer, rec: dict, a: dict, res) -> None:
    tr.count("bipartite.trials", a["trials"])


def _on_assemble(tr: Tracer, rec: dict, a: dict, res) -> None:
    tr.count("assemble.anneal_steps", a["width_anneal"])


def _on_schedule(tr: Tracer, rec: dict, a: dict, res) -> None:
    tr.count("assemble.shuffles", max(a["shuffles"], 1))


def _on_verify(tr: Tracer, rec: dict, a: dict, res) -> None:
    from ftprep.verify import enumerate_fault_locations

    rec["attrs"]["fault_type"] = a["fault_type"]
    locations = enumerate_fault_locations(a["circuit"], a["fault_type"])
    nv = sum(len(loc.variants) for loc in locations)
    tr.count("verify.combinations", sum(math.comb(nv, f) for f in range(1, a["t"] + 1)))


def _on_tables(tr: Tracer, rec: dict, a: dict, res) -> None:
    tr.count("noise.variants", len(res.sc))


def _on_monte_carlo(tr: Tracer, rec: dict, a: dict, res) -> None:
    plan = res.plan
    tr.count("noise.samples", plan.samples)
    tr.count("noise.plan_buckets", len(plan.pairs))
    tr.count("noise.accepted", res.accepted - plan.trivial_addback)


def _on_evaluate(tr: Tracer, rec: dict, a: dict, res) -> None:
    tr.count("decoder.syndromes", len({synd for synd, _ in a["test"].counts}))
    tr.count("decoder.ml_hits", res.ml_hits)
    tr.count("decoder.evaluated", res.total)


def _on_qec(tr: Tracer, rec: dict, a: dict, res) -> None:
    from ftprep.steane_qec import NO_QEC

    cfg = a["cfg"]
    rec["attrs"]["mode"] = cfg.prep_mode
    tr.count("steane_qec.samples", cfg.samples)
    if cfg.prep_mode != NO_QEC:
        tr.count("steane_qec.prep_runs")
        tr.count("steane_qec.prep_acceptance", res.prep_acceptance)


TARGETS = (
    ("library", "GadgetLibrary.get", None),
    ("gadgets", "discover_gadget", _on_discover),
    ("bipartite", "best_of_trials", _on_trials),
    ("assemble", "assemble_ft_circuit", _on_assemble),
    ("assemble", "schedule_circuit", _on_schedule),
    ("tableau", "tableau_check_circuit", None),
    ("verify", "verify_fault_tolerance", _on_verify),
    ("noise", "build_effect_tables", _on_tables),
    ("noise", "run_monte_carlo", _on_monte_carlo),
    ("decoder", "build_ml_lut", None),
    ("decoder", "build_mw_lut", None),
    ("decoder", "evaluate_test_set", _on_evaluate),
    ("decoder", "decode", None),
    ("decoder", "build_ideal_class_table", None),
    ("steane_qec", "run_steane_qec_experiment", _on_qec),
)


# -- per-layer metrics ------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[dict], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer times, counts and rates named in ``BENCHMARK.json``.

    Root spans (layer ``bench``) enclose one unit of the traced round; their
    self time is the part of the traced wall time no layer accounts for.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        dur = s["end"] - s["start"]
        key = f"{s['layer']}.{s['func']}"
        for tag in ("fault_type", "mode"):
            if tag in s["attrs"]:
                key = f"{s['layer']}.{s['attrs'][tag]}"
        total[key] += dur
        calls[key] += 1
        own[s["layer"]] += self_s
    c = defaultdict(float, counts)

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    verify_s = total["verify.X"] + total["verify.Z"]
    qec_s = sum(total[f"steane_qec.{m}"] for m in QEC_MODES)
    out = {
        "library.get.s": total["library.get"],
        "gadgets.discover_gadget.s": total["gadgets.discover_gadget"],
        "gadgets.discover_gadget.calls": calls["gadgets.discover_gadget"],
        "gadgets.nodes": c["gadgets.nodes"],
        "gadgets.nodes_per_s": rate(c["gadgets.nodes"], total["gadgets.discover_gadget"]),
        "gadgets.budget_hits": c["gadgets.budget_hits"],
        "gadgets.certified_node_frac": rate(c["gadgets.certified_nodes"], c["gadgets.nodes"]),
        "bipartite.best_of_trials.s": total["bipartite.best_of_trials"],
        "bipartite.trials_per_s": rate(c["bipartite.trials"], total["bipartite.best_of_trials"]),
        "assemble.assemble_ft_circuit.s": total["assemble.assemble_ft_circuit"],
        "assemble.anneal_steps_per_s": rate(c["assemble.anneal_steps"], total["assemble.assemble_ft_circuit"]),
        "assemble.schedule_circuit.s": total["assemble.schedule_circuit"],
        "assemble.shuffles_per_s": rate(c["assemble.shuffles"], total["assemble.schedule_circuit"]),
        "tableau.tableau_check_circuit.s": total["tableau.tableau_check_circuit"],
        "verify.X.s": total["verify.X"],
        "verify.Z.s": total["verify.Z"],
        "verify.combinations": c["verify.combinations"],
        "verify.combinations_per_s": rate(c["verify.combinations"], verify_s),
        "verify.peak_alloc_mb": c["verify.peak_alloc_mb"],
        "noise.build_effect_tables.s": total["noise.build_effect_tables"],
        "noise.variants": c["noise.variants"],
        "noise.run_monte_carlo.s": total["noise.run_monte_carlo"],
        "noise.samples": c["noise.samples"],
        "noise.samples_per_s": rate(c["noise.samples"], total["noise.run_monte_carlo"]),
        "noise.plan_buckets": c["noise.plan_buckets"],
        "noise.accept_frac": rate(c["noise.accepted"], c["noise.samples"]),
        "decoder.build_ml_lut.s": total["decoder.build_ml_lut"],
        "decoder.build_mw_lut.s": total["decoder.build_mw_lut"],
        "decoder.evaluate_test_set.s": total["decoder.evaluate_test_set"],
        "decoder.syndromes": c["decoder.syndromes"],
        "decoder.ml_hit_frac": rate(c["decoder.ml_hits"], c["decoder.evaluated"]),
        "decoder.decode.calls": calls["decoder.decode"],
        "decoder.decode.s": total["decoder.decode"],
        "decoder.build_ideal_class_table.s": total["decoder.build_ideal_class_table"],
        **{f"steane_qec.{m}.s": total[f"steane_qec.{m}"] for m in QEC_MODES},
        "steane_qec.samples_per_s": rate(c["steane_qec.samples"], qec_s),
        "steane_qec.prep_accept_frac": rate(c["steane_qec.prep_acceptance"], c["steane_qec.prep_runs"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own[layer]
    out["trace.unattributed_s"] = own[ROOT_LAYER]
    out["trace.wall_s"] = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return out
