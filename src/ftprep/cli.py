"""Command-line surface tying together synthesis, gadgets, verification,
simulation, decoding and the Steane-QEC experiment.

Every stochastic subcommand requires --seed; results are reproducible
bit-for-bit for a fixed seed.  Machine-readable output goes to --out
(JSON or CSV by extension), a human summary to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import catalog, serialization
from .assemble import assemble_ft_circuit, certified_z_override, schedule_circuit
from .bipartite import best_of_trials
from .css import max_coset_weight
from .decoder import build_ml_lut, build_mw_lut, evaluate_test_set
from .gadgets import discover_gadget
from .library import GadgetLibrary
from .noise import (
    NoiseModel,
    build_effect_tables,
    build_subset_plan,
    run_monte_carlo,
)
from .pipeline import build_preparation_circuit
from .steane_qec import SteaneQecConfig, run_steane_qec_experiment
from .verify import VerificationBudgetError, verify_fault_tolerance


def _load_library(path: str | None) -> GadgetLibrary:
    return GadgetLibrary.load(path) if path else GadgetLibrary.bundled()


def _write_out(path: str | None, payload: dict | list[dict]) -> None:
    """Write one record, or a list of records with the same keys, as JSON
    or (for a .csv path) as CSV with sorted columns."""
    if not path:
        return
    out = Path(path)
    if out.suffix == ".csv":
        rows = [payload] if isinstance(payload, dict) else payload
        with out.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=sorted(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    else:
        out.write_text(json.dumps(payload, indent=1, default=str))


def cmd_synth(args: argparse.Namespace) -> int:
    state = catalog.get_state(args.code, args.state)
    bip = best_of_trials(state, args.trials, args.seed)
    print(
        f"{state.name} {state.state_label}: {len(bip.controls)} controls, "
        f"{len(bip.targets)} targets, {bip.edge_count} CX edges"
    )
    _write_out(args.out, {
        "code": state.name,
        "edges": bip.edge_count,
        "controls": len(bip.controls),
        "targets": len(bip.targets),
    })
    if args.circuit_out:
        circ = bip.bare_circuit()
        Path(args.circuit_out).write_text(
            serialization.serialize_circuit(circ, state.name, state.state_label)
        )
    return 0


def cmd_gadget(args: argparse.Namespace) -> int:
    res = discover_gadget(args.t, args.r, args.m, budget=args.budget)
    if not res.found:
        print(f"no gadget: {res.status} after {res.nodes} nodes")
        return 1
    g = res.gadget
    print(f"{g.m} flags, {len(g.gates)} CX")
    if args.out:
        Path(args.out).write_text(serialization.serialize_gadget(g))
    return 0


def _prepare(args: argparse.Namespace, library: GadgetLibrary):
    state = catalog.get_state(args.code, getattr(args, "state", None))
    return state, build_preparation_circuit(
        state,
        library,
        bip_trials=args.trials,
        shuffles=args.shuffles,
        seed=args.seed,
        z_gadget_t_override=args.z_override,
        width_anneal=args.width_anneal,
        use_trivial_gadgets=not args.no_trivial_gadgets,
    )


def cmd_assemble(args: argparse.Namespace) -> int:
    library = _load_library(args.library)
    state, prep = _prepare(args, library)
    m = prep.metrics
    print(
        f"{state.name}: {m.cx_count} CX, {m.flag_count} flags, depth {m.depth}, "
        f"{m.max_simultaneous_qubits} simultaneous qubits"
    )
    _write_out(args.out, {
        "code": state.name,
        "cx": m.cx_count,
        "flags": m.flag_count,
        "depth": m.depth,
        "simultaneous_qubits": m.max_simultaneous_qubits,
    })
    if args.circuit_out:
        Path(args.circuit_out).write_text(
            serialization.serialize_circuit(prep.circuit, state.name, state.state_label)
        )
    return 0


def _load_circuit(args: argparse.Namespace):
    """The ``--circuit`` file and the ``--code`` state its header names.

    The header's ``state=`` label picks the logical state.  Raises
    ValueError when the header names another code than ``--code``.
    """
    circ, code, label = serialization.parse_circuit(Path(args.circuit).read_text())
    state = catalog.get_state(args.code, None if label == "?" else label)
    if code not in ("?", state.name):
        raise ValueError(f"circuit is for code {code!r}, not {state.name!r}")
    return state, circ


def cmd_verify(args: argparse.Namespace) -> int:
    state, circ = _load_circuit(args)
    types = [args.type] if args.type else ["X", "Z"]
    status = 0
    results = {}
    for typ in types:
        ce = verify_fault_tolerance(circ, state, args.t, typ)
        if ce is None:
            print(f"{typ}: PASS (t={args.t})")
            results[typ] = "pass"
        else:
            print(f"{typ}: COUNTEREXAMPLE {ce}")
            results[typ] = str(ce)
            status = 1
    _write_out(args.out, results)
    return status


def cmd_simulate(args: argparse.Namespace) -> int:
    state, circ = _load_circuit(args)
    noise = NoiseModel(args.p)
    tables = build_effect_tables(circ, state)
    plan = build_subset_plan(tables.l_p, tables.l_q, noise.p, noise.q, args.samples)
    res = run_monte_carlo(circ, state, noise, plan, seed=args.seed, tables=tables)
    lo, hi = res.acceptance_ci
    print(
        f"acceptance {res.acceptance_rate:.6f} [{lo:.6f}, {hi:.6f}] over "
        f"{res.effective_samples:.3g} effective samples"
    )
    for path, subset in ((args.train_out, res.train), (args.test_out, res.test)):
        if not path:
            continue
        if str(path).endswith(".csv"):
            serialization.sample_set_to_csv(subset, path)
        else:
            serialization.save_sample_set(subset, path, state.state_label)
    _write_out(args.out, {
        "acceptance": res.acceptance_rate,
        "acceptance_lo": lo,
        "acceptance_hi": hi,
        "effective_samples": res.effective_samples,
    })
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    """Decode with the MW table of the state the sample sets were simulated
    from; train and test must come from the same state."""
    label, test_label = (serialization.sample_set_state(p) for p in (args.train, args.test))
    if label != test_label:
        raise ValueError(f"train samples are for {label}, test samples for {test_label}")
    state = catalog.get_state(args.code, label)
    discard_weight = None
    if args.even_discard:
        if state.d % 2:
            raise ValueError(f"--even-discard needs an even distance; {state.name} has d={state.d}")
        discard_weight = state.d // 2
    train = serialization.load_sample_set(args.train)
    test = serialization.load_sample_set(args.test)
    ml = build_ml_lut(train)
    wmax = args.wmax if args.wmax is not None else discard_weight or (state.d - 1) // 2
    mw = build_mw_lut(state, "X", wmax)
    report = evaluate_test_set(test, ml, mw, discard_weight)
    print(report)
    lo, hi = report.logical_error_ci
    _write_out(args.out, {
        "logical_error_rate": report.logical_error_rate,
        "ci_lo": lo,
        "ci_hi": hi,
        "kept": report.kept,
        "discarded": report.discarded,
        "post_discard_rate": report.post_discard_rate,
    })
    return 0


def cmd_lut_mw(args: argparse.Namespace) -> int:
    state = catalog.get_state(args.code, None)
    table = build_mw_lut(state, args.type, args.wmax)
    print(f"{len(table)} syndromes (w_max={args.wmax}, type {args.type})")
    if args.out:
        serialization.save_mw_table(table, args.out)
    return 0


def cmd_steane(args: argparse.Namespace) -> int:
    library = _load_library(args.library)
    state = catalog.get_state(args.code, None)
    # Every rate of the series is checked before the circuit is built.
    configs = [
        SteaneQecConfig(
            state, float(p), samples=args.samples, prep_mode=args.mode,
            data_noise_multiplier=args.multiplier, seed=args.seed,
        )
        for p in args.p.split(",")
    ]
    circ = None
    if args.mode != "no_qec":
        prep = build_preparation_circuit(
            state, library, bip_trials=args.trials, shuffles=args.shuffles, seed=args.seed
        )
        if args.mode == "ft_x_only":
            asm = assemble_ft_circuit(
                state, prep.bipartite, library,
                z_gadget_t_override=0, allow_uncertified_override=True, seed=args.seed,
            )
            circ = schedule_circuit(asm, shuffles=args.shuffles, seed=args.seed)
        else:
            circ = prep.circuit
    rows = []
    for cfg in configs:
        res = run_steane_qec_experiment(cfg, circ)
        print(res)
        lo, hi = res.logical_error_ci
        rows.append({
            "p": cfg.p, "mode": args.mode, "logical_error_rate": res.logical_error_rate,
            "ci_lo": lo, "ci_hi": hi, "prep_acceptance": res.prep_acceptance,
        })
    _write_out(args.out, rows)
    return 0


def cmd_coset(args: argparse.Namespace) -> int:
    state = catalog.get_state(args.code, None)
    w = max_coset_weight(state, args.type)
    print(f"max coset weight ({args.type}): {w}")
    cert = certified_z_override(state)
    print(f"certified Z-gadget override: {cert}")
    _write_out(args.out, {"max_coset_weight": w, "certified_override": cert})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftprep",
        description="Fault-tolerant CSS state preparation: synthesis, gadgets, "
        "verification, simulation, decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--out", help="write machine-readable results here (.json/.csv)")
        if seed:
            p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("synth", help="synthesize a bipartite CX circuit")
    p.add_argument("--code", required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--circuit-out")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gadget", help="discover a flag gadget")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=2_000_000)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("assemble", help="assemble the FT preparation circuit")
    p.add_argument("--code", required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--z-override", type=int, default=None)
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--shuffles", type=int, default=200)
    p.add_argument("--width-anneal", type=int, default=0)
    p.add_argument("--no-trivial-gadgets", action="store_true")
    p.add_argument("--library")
    p.add_argument("--circuit-out")
    add_common(p)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("verify", help="exhaustive fault-tolerance verification")
    p.add_argument("--circuit", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--type", choices=["X", "Z"], default=None)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="subset-sampling Monte Carlo")
    p.add_argument("--circuit", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--train-out")
    p.add_argument("--test-out")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decode", help="build LUTs and evaluate a test set")
    p.add_argument("--code", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--wmax", type=int, default=None,
                   help="MW table weight limit (default (d-1)/2, or d/2 with --even-discard)")
    p.add_argument("--even-discard", action="store_true",
                   help="even-d codes only: discard syndromes whose MW weight is d/2; the "
                   "default d/2 table exceeds the distance guarantee, so expect its warning")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("lut-mw", help="build the code-capacity minimum-weight LUT")
    p.add_argument("--code", required=True)
    p.add_argument("--wmax", type=int, required=True)
    p.add_argument("--type", choices=["X", "Z"], default="X")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_lut_mw)

    p = sub.add_parser("steane", help="Steane-QEC logical error experiment")
    p.add_argument("--code", required=True)
    p.add_argument("--p", required=True, help="physical rate, or comma-separated series")
    p.add_argument("--mode", choices=["full_ft", "ft_x_only", "no_qec"], default="full_ft")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--multiplier", type=float, default=10.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--shuffles", type=int, default=100)
    p.add_argument("--library")
    add_common(p)
    p.set_defaults(func=cmd_steane)

    p = sub.add_parser("coset", help="maximum coset weight and certified override")
    p.add_argument("--code", required=True)
    p.add_argument("--type", choices=["X", "Z"], default="Z")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_coset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, VerificationBudgetError) as exc:
        # str() of a KeyError is the repr of its key: print the message bare.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
