"""One benchmark worker: set a workload up, then time repeated rounds of it.

Reads a JSON job from stdin and prints one JSON object as its last stdout
line.  The parent (``run.py``) starts several fresh workers one after
another, so each worker's import, set-up and peak memory are its own.
Every workload seed derives from the job's ``seed``.

A workload is a list of *units*: one or a few calls into ftprep's public
functions, each a fraction of a second to a few seconds long.  A *round*
runs every unit once; the worker runs the rounds the job names and times
every unit with both wall-clock and CPU time, between two speed probes of
the core (``probe``).  Units whose work is random
draw a fresh seed per round, so the program outputs of all rounds can be
pooled for the output checks; the others repeat the same work.

Set-up covers imports, catalog and library loading, building the circuits
the simulation workloads take as input, and one tiny untimed warm-up call
per layer the workload uses, so that lazy imports (``scipy.stats`` inside
``noise.wilson_interval``) count as set-up rather than as unit time.
"""

from __future__ import annotations

import time

PROBE_SLICES = 5


def probe() -> float:
    """Mean CPU seconds of one slice of a fixed pure-Python reference loop.

    The loop's work never changes, so its time measures how fast the core
    runs at that moment; ``run.py`` scales each unit's CPU time by it.
    """
    c0 = time.process_time()
    for _ in range(PROBE_SLICES):
        s, d = 0, {}
        for i in range(40_000):
            s += i * i % 7
            d[i & 1023] = s
    return (time.process_time() - c0) / PROBE_SLICES


SETUP_PROBE = probe()
WALL_START = time.perf_counter()
CPU_START = time.process_time()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
import ftprep  # noqa: E402
from ftprep import (  # noqa: E402
    assemble, bipartite, catalog, decoder, gadgets, library, noise,
    pipeline, steane_qec, tableau, verify,
)

if (ROOT / "src").resolve() not in Path(ftprep.__file__).resolve().parents:
    raise ImportError(f"ftprep imported from {ftprep.__file__}, not from {ROOT / 'src'}")


def subseed(seed: int, *tags) -> int:
    """A 32-bit seed derived from the workload seed and a tag path."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "little")


SIZES = {
    "full": {
        # Fixed circuit recipes for the simulation workloads' inputs: the
        # acceptance-suite constructions for Steane and [[17,1,5]] (the
        # prep-mc and qec-ablation bands are calibrated on them) and a cheap
        # Golay build that keeps the 80-flag, two-word flag path.
        "recipes": {
            "steane": dict(bip_trials=200, assembly_candidates=6, shuffles=100, seed=9),
            "color17": dict(bip_trials=150, assembly_candidates=4, shuffles=100, seed=9),
            "golay": dict(bip_trials=40, assembly_candidates=1, shuffles=20, seed=9,
                          z_gadget_t_override=2),
        },
        # One unit per group of rows: the cheap rows together, each
        # expensive row on its own.
        "gadget-fill": dict(rows=[[(2, r) for r in range(1, 12)], [(2, 12)], [(2, 13)],
                                  [(3, r) for r in range(1, 7)], [(3, 7)], [(3, 8)]],
                            budget=150_000),
        "golay-prep": dict(trials=50, anneal=10_000, shuffles=250, t=2),
        # Effective samples per round; the checks pool at least six rounds,
        # so Steane is checked on at least 1.05e8 effective samples.
        "prep-mc": [("steane", 1e-3, 1.75e7), ("golay", 1e-3, 3.5e6), ("color17", 1e-3, 3.5e6),
                    ("color17", 5e-3, 3.5e6), ("golay", 5e-3, 3.5e6)],
        "qec-ablation": dict(ps=(2.5e-3, 5e-3, 1e-2), samples=100_000),
    },
    "tiny": {
        "recipes": {
            "steane": dict(bip_trials=5, assembly_candidates=1, shuffles=2, seed=9),
            "color17": dict(bip_trials=5, assembly_candidates=1, shuffles=2, seed=9),
            "golay": dict(bip_trials=5, assembly_candidates=1, shuffles=2, seed=9,
                          z_gadget_t_override=2),
        },
        "gadget-fill": dict(rows=[[(2, 1), (2, 2)], [(2, 5)], [(3, 1)]], budget=2_000),
        "golay-prep": dict(trials=5, anneal=200, shuffles=5, t=1),
        "prep-mc": [("steane", 1e-3, 1e5), ("color17", 5e-3, 1e5), ("golay", 5e-3, 1e5)],
        "qec-ablation": dict(ps=(2.5e-3, 5e-3, 1e-2), samples=4_000),
    },
}


def build_circuit(size: str, name: str, lib):
    state = catalog.get_state(name)
    prep = pipeline.build_preparation_circuit(
        state, lib, use_trivial_gadgets=False, **SIZES[size]["recipes"][name]
    )
    return state, prep


def warm_synthesis(lib) -> None:
    state = catalog.get_state("steane")
    bip = bipartite.best_of_trials(state, trials=1, seed=0)
    asm = assemble.assemble_ft_circuit(state, bip, lib, seed=0, width_anneal=10)
    circ = assemble.schedule_circuit(asm, shuffles=2, seed=0)
    tableau.tableau_check_circuit(circ, state)
    verify.verify_fault_tolerance(circ, state, 1, "X")


def warm_simulation(state, circ) -> None:
    l_p, l_q = noise.count_fault_locations(circ)
    plan = noise.build_subset_plan(l_p, l_q, 1e-3, 1e-5, 1_000)
    res = noise.run_monte_carlo(circ, state, noise.NoiseModel(1e-3), plan, seed=0)
    mw = decoder.build_mw_lut(state, "X", 1)
    decoder.evaluate_test_set(res.test, decoder.build_ml_lut(res.train), mw)


# -- workloads ---------------------------------------------------------------
#
# ``units(seed, rnd, full)`` lists a round's units as (name, call) pairs; a
# call returns ``(output, checks)``, a JSON-able output for the pooled checks
# in ``run.py`` and a list of (check name, passed) pairs.  ``full`` asks for
# every unit the workload has in one round, for the traced run.


class GadgetFill:
    """Library misses from an empty library: pure-Python gadget search.

    Deterministic: the search has no randomness, so the seed is unused.
    """

    def __init__(self, size: str) -> None:
        cfg = SIZES[size]["gadget-fill"]
        self.rows, self.budget = cfg["rows"], cfg["budget"]
        self.bundled = library.GadgetLibrary.bundled()
        gadgets.discover_gadget(1, 1, 1)
        library.GadgetLibrary().get(1, 2)

    def units(self, seed: int, rnd: int, full: bool):
        return [(f"get.t{rows[0][0]}r{rows[0][1]}-{rows[-1][1]}", lambda rows=rows: self.get(rows))
                for rows in self.rows]

    def get(self, rows):
        outputs, checks = {}, []
        for t, r in rows:
            lib = library.GadgetLibrary()
            gadget = lib.get(t, r, budget=self.budget)
            ref = self.bundled.entries[(t, r)]
            optimal = lib.is_optimal(t, r)
            outputs[f"t{t}r{r}"] = {"m": gadget.m, "optimal": optimal}
            checks += [
                (f"t{t}r{r}.m", gadget.m == ref.gadget.m),
                (f"t{t}r{r}.optimal", optimal == ref.optimal),
                (f"t{t}r{r}.ft_test", gadgets.gadget_ft_test(gadget)),
            ]
        return outputs, checks


class GolayPrep:
    """Golay preparation pipeline on one seed per run.  A worker's first
    round (and a full round) synthesises, anneals, schedules and
    tableau-checks the circuit; every round then verifies it exhaustively
    at t=2 for X and for Z faults.  Synthesis is pure Python and needs
    fewer repeats to time than verify, whose system time varies."""

    def __init__(self, size: str) -> None:
        self.cfg = SIZES[size]["golay-prep"]
        self.state = catalog.get_state("golay")
        self.lib = library.GadgetLibrary.bundled()
        self.ctx = {}
        warm_synthesis(self.lib)

    def units(self, seed: int, rnd: int, full: bool):
        cfg, state, ctx = self.cfg, self.state, self.ctx

        def bip():
            ctx["bip"] = bipartite.best_of_trials(
                state, trials=cfg["trials"], seed=subseed(seed, "bipartite"))
            return None, []

        def asm():
            ctx["asm"] = assemble.assemble_ft_circuit(
                state, ctx["bip"], self.lib, z_gadget_t_override=2,
                seed=subseed(seed, "assemble"), width_anneal=cfg["anneal"])
            return None, []

        def schedule():
            ctx["circ"] = assemble.schedule_circuit(
                ctx["asm"], "min_max_qubits", shuffles=cfg["shuffles"],
                seed=subseed(seed, "schedule"))
            m = assemble.circuit_metrics(ctx["circ"])
            out = {"circuit_cx": m.cx_count, "circuit_max_qubits": m.max_simultaneous_qubits,
                   "flags": m.flag_count}
            return out, [("cx<=260", m.cx_count <= 260),
                         ("max_qubits<=56", m.max_simultaneous_qubits <= 56)]

        def check():
            return None, [("tableau", tableau.tableau_check_circuit(ctx["circ"], state) is None)]

        def check_ft(fault_type: str):
            verdict = verify.verify_fault_tolerance(ctx["circ"], state, cfg["t"], fault_type)
            return None, [(f"verify.{fault_type}.t{cfg['t']}", verdict is None)]

        synthesis = [("bipartite", bip), ("assemble", asm), ("schedule", schedule),
                     ("tableau", check)]
        return (synthesis if full or "circ" not in ctx else []) + [
            (f"verify.{ft}", lambda ft=ft: check_ft(ft)) for ft in "XZ"]

    def after_traced_round(self, tracer) -> None:
        """Verify the round's circuit once more under tracemalloc, outside
        the traced round, since allocation tracing roughly doubles verify's
        time."""
        peak = 0.0
        for ft in "XZ":
            tracemalloc.start()
            verify.verify_fault_tolerance(self.ctx["circ"], self.state, self.cfg["t"], ft)
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        tracer.counts["verify.peak_alloc_mb"] = peak


class PrepMc:
    """Subset-sampled Monte Carlo plus LUT decoding on fixed circuits."""

    def __init__(self, size: str) -> None:
        self.cases = SIZES[size]["prep-mc"]
        lib = library.GadgetLibrary.bundled()
        self.circuits = {name: build_circuit(size, name, lib) for name in SIZES[size]["recipes"]}
        state, prep = self.circuits["steane"]
        warm_simulation(state, prep.circuit)

    def units(self, seed: int, rnd: int, full: bool):
        tables = {}
        return [(f"{name}@{p:g}", lambda name=name, p=p, eff=eff: self.case(
                    tables, name, p, eff, subseed(seed, name, p, rnd)))
                for name, p, eff in self.cases]

    def case(self, tables: dict, name: str, p: float, effective: float, seed: int):
        state, prep = self.circuits[name]
        circ = prep.circuit
        if name not in tables:
            tables[name] = noise.build_effect_tables(circ, state)
        l_p, l_q = noise.count_fault_locations(circ)
        p_triv = (1 - p) ** l_p * (1 - p / 100) ** l_q
        samples = max(int(effective * (1 - p_triv)), 10_000)
        plan = noise.build_subset_plan(l_p, l_q, p, p / 100, samples)
        res = noise.run_monte_carlo(
            circ, state, noise.NoiseModel(p), plan, seed=seed, tables=tables[name])
        ml = decoder.build_ml_lut(res.train)
        mw = decoder.build_mw_lut(state, "X", state.t)
        report = decoder.evaluate_test_set(res.test, ml, mw)
        return {"name": name, "p": p, "samples": plan.samples, "acceptance": res.acceptance_rate,
                "logical": report.logical_error_rate}, []


class QecAblation:
    """Steane-QEC on [[17,1,5]] with full-FT, X-only-FT and no preparation
    at three physical error rates; one unit per rate runs the three modes,
    and all nine runs of a round share a seed."""

    def __init__(self, size: str) -> None:
        cfg = SIZES[size]["qec-ablation"]
        self.ps = cfg["ps"]
        self.samples = cfg["samples"]
        lib = library.GadgetLibrary.bundled()
        self.state, prep = build_circuit(size, "color17", lib)
        asm_x = assemble.assemble_ft_circuit(
            self.state, prep.bipartite, lib,
            z_gadget_t_override=0, allow_uncertified_override=True, seed=5,
        )
        x_circ = assemble.schedule_circuit(asm_x, "min_max_qubits", shuffles=50, seed=3)
        self.circuits = {"full_ft": prep.circuit, "ft_x_only": x_circ, "no_qec": None}
        for mode, circ in self.circuits.items():
            steane_qec.run_steane_qec_experiment(self._config(1e-2, mode, 2_000, 0), circ)

    def _config(self, p: float, mode: str, samples: int, seed: int):
        return steane_qec.SteaneQecConfig(
            self.state, p, samples=samples, prep_mode=mode,
            data_noise_multiplier=6.0, seed=seed,
        )

    def units(self, seed: int, rnd: int, full: bool):
        qec_seed = subseed(seed, "qec", rnd)
        return [(f"p={p:g}", lambda p=p: self.run(p, qec_seed)) for p in self.ps]

    def run(self, p: float, seed: int):
        outputs = {}
        for mode, circ in self.circuits.items():
            r = steane_qec.run_steane_qec_experiment(self._config(p, mode, self.samples, seed), circ)
            outputs[mode] = {"mode": mode, "p": p, "errors": r.logical_errors, "samples": r.samples,
                             "logical": r.logical_error_rate, "prep_acceptance": r.prep_acceptance}
        return outputs, []


WORKLOADS = {
    "gadget-fill": GadgetFill,
    "golay-prep": GolayPrep,
    "prep-mc": PrepMc,
    "qec-ablation": QecAblation,
}


def run_unit(call, span):
    """Call a unit inside ``span`` and between two speed probes; return its
    output, checks and ``[wall s, CPU s, probe before, probe after]``."""
    before = probe()
    with span:
        w0, c0 = time.perf_counter(), time.process_time()
        output, checks = call()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return output, checks, [wall, cpu, before, probe()]


def main() -> None:
    job = json.loads(sys.stdin.read())
    workload = WORKLOADS[job["workload"]](job["size"])
    seed = subseed(job["seed"], job["workload"])
    setup_wall_s = time.perf_counter() - WALL_START
    setup_cpu_s = time.process_time() - CPU_START
    setup_probes = [SETUP_PROBE, probe()]

    units: dict[str, list[list[float]]] = {}  # name -> [wall, cpu, probe, probe] per round
    rounds = []
    tracer = None
    if job["trace"]:
        from tracing import ROOT_LAYER, TARGETS, Tracer

        tracer = Tracer(f"worker{job['worker']}")
        tracer.install(TARGETS)
    for rnd in job["rounds"]:
        outputs, checks = {}, []
        for name, call in workload.units(seed, rnd, job["trace"]):
            span = tracer.span(f"{ROOT_LAYER}.{name}", ROOT_LAYER, name) if tracer else nullcontext()
            output, unit_checks, rec = run_unit(call, span)
            units.setdefault(name, []).append(rec)
            if output is not None:
                outputs[name] = output
            checks += [[f"round{rnd}.{c}", ok] for c, ok in unit_checks]
        rounds.append({"round": rnd, "outputs": outputs, "checks": checks})
    if tracer:
        tracer.uninstall()
        if hasattr(workload, "after_traced_round"):
            workload.after_traced_round(tracer)

    print(json.dumps({
        "setup_wall_s": setup_wall_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_probes": setup_probes,
        "units": units,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else None,
        "counts": dict(tracer.counts) if tracer else None,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }))


if __name__ == "__main__":
    main()
