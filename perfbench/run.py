"""spinpoint benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: hierarchy, ep_locate, sheet_trace, cli_cold (see README.md in
this directory). Each is a closed loop: one caller, one item at a time,
BLAS pinned to one thread. The seed makes the inputs; the library only
receives the generated matrices. Every item's output is checked by an
oracle that does not use the spinpoint kernel.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half traced, prints the per-layer metrics and the
tracing overhead, and writes the spans to .perfbench/. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable summary and the run record.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; child processes inherit the environment.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

import numpy as np

import tracer
from workloads import CHILD_TIMEOUT_S, ROOT, SRC, WORK, WORKLOADS, child_env

SETUP_PROBES = 3
UNITS = {"ok_per_s": "items/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "ms/item" for name in (
        "schur.qr.self_ms", "schur.hessenberg.self_ms",
        "cmatrix.eigenvalues.self_ms", "cmatrix.rank.self_ms",
        "cmatrix.nullspace.self_ms", "cmatrix.char_poly.self_ms",
        "spins.nonnormal_hamiltonian.self_ms",
        "analysis.nilpotency_report.self_ms", "kernel.kernel_vector.self_ms",
        "exceptional.find_ep.self_ms", "exceptional.find_ep.incl_ms",
        "exceptional.trace.self_ms", "exceptional.trace.guard_ms",
        "matio.self_ms", "fermi.self_ms")},
    **{name: "calls/item" for name in (
        "schur.calls", "cmatrix.eigenvalues.calls", "cmatrix.rank.calls",
        "cmatrix.char_poly.calls", "exceptional.trace.eigen_solves",
        "exceptional.trace.bisections", "exceptional.trace.guard_skipped")},
    "schur.mean_n": "rows",
    "schur.sum_n3_computed": "n3/item",
    "exceptional.ep.accepted_frac": "ratio",
    "exceptional.ep.newton_unconverged": "count/item",
    "cli.import_ms": "ms/process", "cli.import.scipy_ms": "ms/process",
    "cli.main_ms": "ms/process", "cli.spawn_ms": "ms/process",
    "trace.overhead_ratio": "ratio",
    "exceptional.ep.envelope_fail_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input pools and one set-up probe (smoke test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload) -> None:
    """Import spinpoint (not for cli_cold), build the inputs and run one
    untimed warm-up item."""
    sp = None if workload.name == "cli_cold" else importlib.import_module("spinpoint")
    workload.setup(sp)
    workload.run(workload.warm_up_item())


def setup_seconds(args) -> float:
    """Median over fresh processes of the time from spawn to the end of
    ``set_up``."""
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def measure(workload, seconds: float, recorder=None):
    """Whole passes over the item pool until ``seconds`` have elapsed.

    Returns the wall time of every item and the failure reasons. An item
    fails when it raises or its output fails the oracle; failures are
    counted, never retried or skipped.
    """
    durations, failures = [], []
    start = perf_counter()
    while True:
        for item in workload.pass_order():
            if recorder is not None:
                recorder.item = len(durations)
            t0 = perf_counter()
            try:
                out, reason = workload.run(item), None
            except Exception as exc:  # counted as a failed item
                out, reason = None, f"{type(exc).__name__}: {exc}"
            durations.append(perf_counter() - t0)
            if recorder is not None:
                recorder.item = None
            if reason is None:
                try:
                    reason = workload.check(item, out)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    reason = f"malformed output: {exc!r}"
            if reason is not None:
                failures.append(reason)
        if perf_counter() - start >= seconds:
            return durations, failures


def nearest_rank(values, q: float) -> float:
    """The smallest value with at least a share ``q`` of values at or below
    it. Unlike an interpolating quantile it stays inside one item type
    when a run holds whole passes of a fixed mix."""
    return float(np.sort(values)[math.ceil(q * len(values)) - 1])


def ok_per_s(durations, failures) -> float:
    return (len(durations) - len(failures)) / sum(durations)


def end_to_end(workload, args, durations, failures) -> dict[str, float]:
    setup_s = setup_seconds(args)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
    ms = np.array(durations) * 1e3
    return {
        "ok_per_s": ok_per_s(durations, failures),
        "item_p50_ms": statistics.median(ms),
        "item_p90_ms": nearest_rank(ms, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(workload, untraced, traced, recorder) -> dict[str, float]:
    totals = tracer.totals(recorder.spans)
    records = getattr(workload, "records", [])
    for record in records:
        tracer.merge(totals, record["totals"])
    metrics = tracer.layer_metrics(totals, len(traced[0]))

    def mean_ms(key):
        return 1e3 * statistics.fmean(key(r) for r in records) if records else 0.0

    metrics.update({
        "cli.import_ms": mean_ms(lambda r: r["import_s"]),
        "cli.import.scipy_ms": mean_ms(lambda r: r["scipy_import_s"]),
        "cli.main_ms": mean_ms(lambda r: r["main_s"]),
        "cli.spawn_ms": mean_ms(lambda r: r["wall_s"] - r["import_s"] - r["main_s"]),
        "trace.overhead_ratio": ok_per_s(*untraced) / ok_per_s(*traced),
    })
    envelope = workload.envelope_probe() if hasattr(workload, "envelope_probe") else []
    for label, reason in envelope:
        print(f"envelope {label}: {'ok' if reason is None else 'FAIL ' + reason}")
    metrics["exceptional.ep.envelope_fail_frac"] = (
        sum(reason is not None for _, reason in envelope) / len(envelope)
        if envelope else 0.0)
    return metrics


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"), "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN, "platform": platform.platform(),
        "statistics": "per-item median and nearest-rank p90 over whole passes; "
                      "set-up median over fresh processes",
    }


def write_spans(args, record, recorder, workload) -> None:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(record) + "\n")
        for span in recorder.spans:
            fh.write(json.dumps([0, *span]) + "\n")
        for process, child in enumerate(getattr(workload, "records", []), start=1):
            for span in child["spans"]:
                fh.write(json.dumps([process, *span]) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinpoint" / "__init__.py").is_file():
        print(f"perfbench: no spinpoint sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        set_up(workload)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        record = run_record(args)
        if args.trace == 0:
            durations, failures = measure(workload, args.seconds)
            metrics = end_to_end(workload, args, durations, failures)
            units = UNITS
        else:
            untraced = measure(workload, args.seconds / 2)
            recorder = tracer.Tracer()
            if args.workload == "cli_cold":
                workload.traced = True  # each child process traces itself
            else:
                recorder.install()
            try:
                traced = measure(workload, args.seconds / 2, recorder)
            finally:
                recorder.uninstall()
            metrics = per_layer(workload, untraced, traced, recorder)
            write_spans(args, record, recorder, workload)
            durations = untraced[0] + traced[0]
            failures = untraced[1] + traced[1]
            units = PER_LAYER_UNITS
    finally:
        workload.close()

    for reason in sorted(set(failures)):
        print(f"FAIL x{failures.count(reason)}: {reason}")
    print(f"{args.workload}: {len(durations)} items, {len(failures)} failed, "
          f"fail_frac {len(failures) / len(durations):.4f} ratio")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": len(durations), "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
