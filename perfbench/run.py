"""commham benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload toric-verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  `all`
runs each workload in turn, each in its own child process.  A run
prints a readable report, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run alternates traced and untraced
rounds, and the metrics are the per-layer ones.  Spans of a traced run are
written to .perfbench-out/.  See perfbench/README.md for what each
workload and metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# BLAS threads must be capped before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

END_TO_END = {"setup_s": "s", "verify_cold_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}
# reported with --trace 1.  Metrics of layers a workload may never reach
# (prover, oracle, serialize, cli, the verifier stages past the sliced-norm
# check, and the overlap graph, which has no nodes on toric-verify) are
# printed in the report but kept out of this list, since they would read 0
PER_LAYER = {
    "model.ground_projectors_s": "s",
    "model.check_commuting_s": "s",
    "decompose.decompose_layers_s": "s",
    "decompose.split_vertices": "count",
    "linalg.operator_schmidt_calls": "count",
    "linalg.algebra_classify_calls": "count",
    "linalg.common_eigenbasis_calls": "count",
    "verifier.compute_omega_ms": "ms",
    "verifier.apply_certificate_ms": "ms",
    "verifier.self_ms": "ms",
    "verifier.zero_exit_frac": "frac",
    "trace.overhead_frac": "frac",
}
REPORT_UNITS = {
    "verify_warm_ms": "ms",
    "verify_warm_p95_ms": "ms",
    "search_s": "s",
    "oracle_s": "s",
}


def load_package():
    src = ROOT / "src"
    if not (src / "commham" / "__init__.py").is_file():
        sys.exit(f"error: no commham package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import commham

    if Path(commham.__file__).resolve().parent != (src / "commham").resolve():
        sys.exit(f"error: imported commham from {commham.__file__}, expected {src}")


def summarize(samples: dict[str, list[float]]) -> dict[str, tuple[float, int]]:
    """Median (or p95) of each sample list, with its sample count."""
    out = {}
    for name, values in samples.items():
        if values:
            out[name] = (statistics.median(values), len(values))
    warm = samples.get("verify_warm_ms", [])
    if len(warm) >= 200:  # p95 then has at least 10 samples beyond it
        out["verify_warm_p95_ms"] = (statistics.quantiles(warm, n=100)[94], len(warm))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_report(title: str, summary: dict) -> None:
    print(title)
    units = {**END_TO_END, **REPORT_UNITS}
    for name, unit in units.items():
        if name in summary:
            value, n = summary[name]
            if name == "peak_rss_mb":
                how = "process peak"
            else:
                how = f"{'p95' if name.endswith('p95_ms') else 'median'} of {n}"
            print(f"  {name:<20} {value:>14.6g} {unit:<3} ({how})")


def print_failures(rec) -> None:
    rate = rec.failed / rec.attempted if rec.attempted else 0.0
    print(f"  {'error_rate':<20} {rate:>14.6g}     ({rec.failed} of {rec.attempted} operations failed)")
    if rec.failures:
        print(f"  failures ({len(rec.failures)}):")
        for line in rec.failures:
            print(f"    {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    import numpy
    import scipy

    import tracing
    import workloads

    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    run = workloads.WORKLOADS[args.workload]
    print(
        f"commham benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {NPROC}, BLAS threads {NPROC}"
    )
    workloads.warm_up()

    if not args.trace:
        rec = workloads.Recorder(args.seconds)
        run(rec, args.seed)
        summary = summarize(rec.samples)
        summary["peak_rss_mb"] = (peak_rss_mb(), 1)
        print_report("end-to-end", summary)
        print_failures(rec)
        missing = [m for m in END_TO_END if m not in summary]
        if missing:
            sys.exit(f"error: no samples for {missing}")
        metrics = {m: {"value": summary[m][0], "unit": u} for m, u in END_TO_END.items()}
        result = {"correct": rec.correct, "attempted": rec.attempted, "failed": rec.failed}
        print(json.dumps({**result, "metrics": metrics}))
        return 0

    tracer = tracing.Tracer()
    rec = workloads.Recorder(args.seconds, tracer)
    with tracer:
        run(rec, args.seed)
    base, with_trace = summarize(rec.by_side[False]), summarize(rec.by_side[True])
    print_report("untraced rounds", base)
    print_report("traced rounds", with_trace)
    print_failures(rec)
    print("tracing overhead (traced minus untraced median):")
    for name in sorted(with_trace.keys() & base.keys()):
        diff = with_trace[name][0] - base[name][0]
        print(f"  {name:<20} {diff:>+14.6g} ({diff / base[name][0]:+.1%})")

    layers = tracing.layer_metrics(tracer)
    if "op_ms" not in base or "op_ms" not in with_trace:
        sys.exit("error: no op_ms samples")
    layers["trace.overhead_frac"] = with_trace["op_ms"][0] / base["op_ms"][0] - 1.0
    print("per-layer metrics (traced rounds):")
    for name, value in layers.items():
        print(f"  {name:<34} {value:.6g}")
    print("self time per span (traced rounds):")
    print(f"  {'span':<34} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(tracer.totals().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<34} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    trace_path = Path.cwd() / workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    print(f"spans written to {trace_path.relative_to(Path.cwd())}")

    metrics = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER.items()}
    result = {"correct": rec.correct, "attempted": rec.attempted, "failed": rec.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
