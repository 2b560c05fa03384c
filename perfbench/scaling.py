"""Ungated scaling report for toric open lattices (the ROADMAP Baseline table).

    python3 perfbench/scaling.py

For each L x L lattice in SIZES it reports the median over REPEATS of prepare(),
the cold verify() of the all-zeros certificate on a fresh prepare, and the
warm verify() of the same certificate; then one greedy_search(restarts=1) on
a fresh prepare.  The last two sizes also get a growth ratio per stage,
which is where quadratic stages show (a linear stage grows by the ratio of
qubit counts, 4x for 32 -> 64).  Times are wall clock on this machine; the
header records the Python, numpy and scipy versions and nproc.
"""
from __future__ import annotations

import platform
import statistics
import sys
import time

from run import NPROC, load_package

SIZES = (8, 20, 32, 64)
REPEATS = 3


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def measure(size: int) -> dict[str, float | str]:
    from commham import LatticeSpec, gen_toric, greedy_search, prepare, verify

    from workloads import zeros_certificate

    model = gen_toric(LatticeSpec(size, size))
    prep_s, cold_s, warm_s = [], [], []
    for _ in range(REPEATS):
        prep, seconds = timed(prepare, model)
        prep_s.append(seconds)
        cert = zeros_certificate(prep)
        verdict, seconds = timed(verify, prep, cert)
        cold_s.append(seconds)
        if not verdict.accept:
            sys.exit(f"error: all-zeros certificate rejected on toric {size}x{size}")
        warm_s.append(timed(verify, prep, cert)[1])
    result, greedy_s = timed(greedy_search, prepare(model), restarts=1)
    if not result.found:
        sys.exit(f"error: greedy found no certificate on toric {size}x{size}")
    return {
        "prepare_s": statistics.median(prep_s),
        "verify_cold_s": statistics.median(cold_s),
        "verify_warm_s": statistics.median(warm_s),
        "greedy_s": greedy_s,
        "greedy_evals": result.evaluated,
    }


def main() -> int:
    load_package()
    import numpy
    import scipy

    from workloads import warm_up

    print(
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {NPROC}; toric open, "
        f"median of {REPEATS} (greedy: one run)"
    )
    warm_up()
    rows = {}
    print("| lattice | N | prepare | verify, cold | verify, warm | greedy (1 restart) |")
    print("| --- | --- | --- | --- | --- | --- |")
    for size in SIZES:
        r = rows[size] = measure(size)
        print(
            f"| {size}x{size} | {size * size} | {r['prepare_s']:.3g} s | "
            f"{r['verify_cold_s']:.3g} s | {1e3 * r['verify_warm_s']:.3g} ms | "
            f"{r['greedy_s']:.3g} s, {r['greedy_evals']} evals |",
            flush=True,
        )
    a, b = SIZES[-2], SIZES[-1]
    print(f"growth {a} -> {b} (qubits x{(b / a) ** 2:.3g}):")
    for stage in ("prepare_s", "verify_cold_s", "verify_warm_s", "greedy_s"):
        print(f"  {stage:<14} x{rows[b][stage] / rows[a][stage]:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
