"""Benchmark runner for ftprep: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload gadget-fill --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and uses ftprep from its ``src``
directory.  A run starts ``N_WORKERS`` fresh single-threaded worker
processes (``worker.py``) one after another; a closed loop with one client.
Each worker sets the workload up, then runs its rounds of the workload's
units (single calls into ftprep), timing each unit between two speed probes.
The number of rounds follows from ``--seconds`` and the workload's nominal
round time, never from the machine's momentary speed.  Every seed derives
from ``--seed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
- ``norm_cpu_s``: per unit, the trimmed mean over its rounds of its CPU time
  normalised to the reference core speed, summed over the units;
- ``setup_s``: the median over workers of the normalised CPU time spent
  setting up;
- ``peak_rss_mb``: the median over workers of ``ru_maxrss``.

Normalised CPU time is the measured CPU time times ``PROBE_REF_S`` over the
mean time of the probe's fixed reference loop measured just before and just
after, that ratio raised to the workload's ``PROBE_SENSITIVITY``.  On a
shared host a co-tenant on the same physical core slows every instruction
stream, for minutes at a time, by up to 1.9x; that slowdown shows in CPU
time as well as in wall-clock time, and the probe measures it.  Set-up is
normalised with sensitivity 1.

With ``--trace 1`` the runner adds one traced worker that runs one full
round under the tracer and reports the per-layer metrics named in
``BENCHMARK.json``; the untraced workers give ``wall_s`` (the sum over units
of their fastest wall-clock time), the end-to-end rates and the tracing
overhead.  Every run also writes its details (provenance, per-unit and
per-worker figures, program outputs and, when traced, all spans) to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
LIBRARY_JSON = ROOT / "src" / "ftprep" / "data" / "gadget_library.json"
TIME_LIMIT_S = 170.0
N_WORKERS = 3
MIN_ROUNDS = 2
# Nominal seconds of one round of each workload on one idle core.
ROUND_S = {"gadget-fill": 1.7, "golay-prep": 3.0, "prep-mc": 1.75, "qec-ablation": 1.8}
# CPU seconds of one slice of the worker's reference loop: the fastest slice
# seen on the calibration machine (2-vCPU Intel Xeon, Sapphire Rapids, KVM
# guest).  Fixed, so that a run in a slow stretch does not move the scale.
PROBE_REF_S = 0.0048
# How strongly each workload's CPU time follows the probe: the least-squares
# slope of log unit CPU time on log probe time over ten seeds on the
# calibration machine.  numpy-heavy work slows less than the pure-Python
# probe when a co-tenant shares the core.
PROBE_SENSITIVITY = {"gadget-fill": 1.0, "golay-prep": 0.8, "prep-mc": 0.8, "qec-ablation": 0.7}

sys.path.insert(0, str(HERE))
from tracing import layer_metrics  # noqa: E402


class BenchmarkError(RuntimeError):
    """A worker failed, timed out, or the checkout is incomplete."""


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "gadget_library_sha256": hashlib.sha256(LIBRARY_JSON.read_bytes()).hexdigest(),
    }


def run_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"time limit reached before worker {job['worker']}")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=json.dumps(job), capture_output=True,
            text=True, cwd=ROOT, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {job['worker']} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker {job['worker']} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {job['worker']} printed no result")
    return json.loads(lines[-1])


def rounds_per_worker(workload: str, seconds: float) -> int:
    """Rounds each untraced worker runs: enough to fill ``seconds`` at the
    nominal round time, never fewer than ``MIN_ROUNDS``.  The count does not
    depend on how fast the machine happens to be during the run, so every
    run of a workload measures the same work."""
    return max(MIN_ROUNDS, round(seconds / (N_WORKERS * ROUND_S[workload])))


def normalised(cpu_s: float, probes: list[float], sensitivity: float = 1.0) -> float:
    """CPU seconds scaled to the reference core speed: ``cpu_s`` times
    ``PROBE_REF_S`` over the reference loop's slice time around the
    measurement, raised to the work's ``sensitivity``."""
    return cpu_s * (PROBE_REF_S / statistics.fmean(probes)) ** sensitivity


def trimmed_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value."""
    return statistics.fmean(sorted(values)[1:-1])


def unit_times(workers: list[dict], sensitivity: float) -> dict[str, dict[str, float]]:
    """Per unit over all rounds of all workers: the trimmed mean of the
    normalised CPU times, and the fastest wall-clock and CPU times as
    measured."""
    samples: dict[str, list[list[float]]] = {}
    for w in workers:
        for name, recs in w["units"].items():
            samples.setdefault(name, []).extend(recs)
    return {
        name: {
            "norm_cpu_s": trimmed_mean([normalised(r[1], r[2:], sensitivity) for r in recs]),
            "min_wall_s": min(r[0] for r in recs),
            "min_cpu_s": min(r[1] for r in recs),
        }
        for name, recs in samples.items()
    }


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    return statistics.linear_regression([math.log(x) for x in xs], [math.log(y) for y in ys]).slope


def pooled_checks(workload: str, workers: list[dict]) -> list[tuple[str, bool]]:
    """Checks on program outputs pooled over every round of every worker.

    prep-mc: Steane's mean acceptance and mean logical error rate over at
    least six rounds, each of 1.75e7 effective samples, fall in the bands
    calibrated at 1.05e8 effective samples.

    qec-ablation: each logical error rate is the mean over rounds, each run
    training its ML table on half of its 1e5 samples (see README.md):
    - the X-only ablation's slope is 2.0 +- 0.3;
    - the full-FT slope is at most 3.5 and exceeds the X-only slope by 0.2;
    - the full-FT ancilla beats the X-only one at every rate;
    - full-FT QEC is no worse than no QEC at the lowest rate, within four
      standard errors of the difference.
    """
    outputs: dict[str, list[dict]] = {}
    for w in workers:
        for rnd in w["rounds"]:
            for name, out in rnd["outputs"].items():
                if workload == "qec-ablation":  # one output per mode of the unit
                    for mode, run in out.items():
                        outputs.setdefault(f"{name}.{mode}", []).append(run)
                else:
                    outputs.setdefault(name, []).append(out)
    if workload == "prep-mc":
        steane = outputs["steane@0.001"]
        acc = statistics.fmean(o["acceptance"] for o in steane)
        ler = statistics.fmean(o["logical"] for o in steane)
        return [("steane.acceptance", 0.975 <= acc <= 0.981),
                ("steane.logical", 1.8e-5 <= ler <= 4.4e-5)]
    if workload != "qec-ablation":
        return []
    runs: dict[str, dict[float, dict]] = {}
    for outs in outputs.values():
        mode, p = outs[0]["mode"], outs[0]["p"]
        runs.setdefault(mode, {})[p] = {
            "logical": statistics.fmean(o["logical"] for o in outs),
            "samples": sum(o["samples"] for o in outs),
        }
    ps = sorted(runs["full_ft"])
    rate = {m: [runs[m][p]["logical"] for p in ps] for m in runs}
    if min(rate["full_ft"] + rate["ft_x_only"]) <= 0:
        return [("qec.nonzero_rates", False)]
    s_full, s_x = slope(ps, rate["full_ft"]), slope(ps, rate["ft_x_only"])
    full, bare = runs["full_ft"][ps[0]], runs["no_qec"][ps[0]]
    stderr = math.sqrt(sum(r["logical"] * (1 - r["logical"]) / r["samples"] for r in (full, bare)))
    return [
        ("qec.slope_ft_x_only_2.0+-0.3", 1.7 <= s_x <= 2.3),
        ("qec.slope_full_ft_le_3.5", s_full <= 3.5),
        ("qec.slope_full_ft_ge_x_only+0.2", s_full >= s_x + 0.2),
        ("qec.full_ft_le_ft_x_only", all(a <= b for a, b in zip(rate["full_ft"], rate["ft_x_only"]))),
        ("qec.full_ft_le_no_qec_at_lowest_p", full["logical"] <= bare["logical"] + 4 * stderr),
    ]


def merge_traces(workers: list[dict]) -> tuple[list[dict], dict[str, float]]:
    spans: list[dict] = []
    counts: dict[str, float] = {}
    for w in workers:
        base = len(spans)
        for s in w["spans"]:
            spans.append({**s, "parent": None if s["parent"] is None else s["parent"] + base})
        for key, value in w["counts"].items():
            if key.endswith("peak_alloc_mb"):
                counts[key] = max(counts.get(key, 0.0), value)
            else:
                counts[key] = counts.get(key, 0.0) + value
    return spans, counts


def workload_rates(workers: list[dict], counts: dict[str, float], wall_s: float) -> dict:
    """End-to-end rates and circuit sizes, reported with the per-layer metrics."""
    circuit = next((out for w in workers for rnd in w["rounds"]
                    for out in rnd["outputs"].values() if "circuit_cx" in out), {})
    return {
        "gadget_nodes_per_s": counts.get("gadgets.nodes", 0.0) / wall_s,
        "mc_samples_per_s": counts.get("noise.samples", 0.0) / wall_s,
        "qec_samples_per_s": counts.get("steane_qec.samples", 0.0) / wall_s,
        "circuit_cx": circuit.get("circuit_cx", 0),
        "circuit_max_qubits": circuit.get("circuit_max_qubits", 0),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny sizes exist for the harness self-test only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ftprep" / "__init__.py").is_file():
        print(f"error: no ftprep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance(args)
    n_rounds = rounds_per_worker(args.workload, args.seconds)
    prov["workers"], prov["rounds_per_worker"] = N_WORKERS, n_rounds
    deadline = time.monotonic() + TIME_LIMIT_S

    def job(worker: int, rounds: list[int], trace: bool) -> dict:
        return {"workload": args.workload, "seed": args.seed, "worker": worker,
                "rounds": rounds, "size": args.size, "trace": trace}

    try:
        workers = [
            run_worker(job(w, [w + N_WORKERS * k for k in range(n_rounds)], False), deadline)
            for w in range(N_WORKERS)
        ]
        traced = run_worker(job(N_WORKERS, [0], True), deadline) if args.trace else None
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [tuple(c) for w in workers for rnd in w["rounds"] for c in rnd["checks"]]
    checks += pooled_checks(args.workload, workers)
    failed = [name for name, ok in checks if not ok]
    units = unit_times(workers, PROBE_SENSITIVITY[args.workload])
    body = {key: sum(u[key] for u in units.values()) for key in ("norm_cpu_s", "min_wall_s")}
    prov.update(workers[0]["versions"])
    detail = {
        "provenance": prov,
        "failed_checks": failed,
        "unit_times": units,
        "workers": [
            {k: w[k] for k in ("setup_wall_s", "setup_cpu_s", "setup_probes", "peak_rss_mb",
                               "units", "rounds")}
            for w in workers
        ],
    }

    if args.trace:
        spans, counts = merge_traces([traced])
        computed = layer_metrics(spans, counts)
        computed["wall_s"] = body["min_wall_s"]
        computed["trace.overhead_s"] = computed["trace.wall_s"] - body["min_wall_s"]
        computed.update(workload_rates(workers, counts, body["min_wall_s"]))
        computed["fail_frac"] = len(failed) / len(checks)
        detail.update(spans=spans, counts=counts, per_layer=computed)
        wanted = spec["per_layer"]
    else:
        computed = {
            "norm_cpu_s": body["norm_cpu_s"],
            "setup_s": statistics.median(
                normalised(w["setup_cpu_s"], w["setup_probes"]) for w in workers),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1))
    print(json.dumps({"provenance": prov, "failed_checks": failed,
                      "details": str(out_file.relative_to(ROOT))}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
