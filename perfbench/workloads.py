"""The four benchmark workloads and the references their outputs are checked
against.

Each workload builds its inputs from the seed, calls the package through
module attributes (so that a tracer can wrap them), times the calls, and
checks every output against a rule that shares no code with the verifier's
effective-state and chain machinery:

* toric models: stabilizer parity.  Slice label 0 is the +1 eigenstate of Z
  (black layer) or X (white layer), so a plaquette whose four corners are
  all split in its own layer survives slicing iff its labels have even
  parity.  On a torus a surviving certificate has log2 Omega = -N.
* the signed torus with one black sign -1: the black stabilizers multiply to
  the identity, so no state satisfies them all and no certificate accepts.
* rotated-classical models: un-rotate each term with the generator's
  unitaries, take each plaquette's argmin bitstring, and call the model
  satisfiable iff those bitstrings agree at every shared corner.
* the oracle: traces are non-negative integers, ground_dim agrees with the
  layer trace, the certificate sum equals it, and a certificate exists iff
  the trace is at least 1.

An operation fails when it raises on valid commuting input or when its
output disagrees with the reference; every failure is listed with model,
seed and certificate.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import io
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from commham import cli, lattice, oracle, prover, serialize, verifier
from commham import model as cmodel
from commham.lattice import BLACK, WHITE, LatticeSpec

OUT_DIR = ".perfbench-out"  # under the working directory; ignored by git
WARM_STREAM = 240
WARM_CHUNK = 48  # a multiple of 3, so every chunk holds the three kinds equally
TORIC_SPEC = LatticeSpec(40, 40, "periodic")
GREEDY_OPEN_SPEC = LatticeSpec(12, 12)
FRUSTRATED_SPEC = LatticeSpec(8, 8, "periodic")
ROTATED_SPEC = LatticeSpec(24, 24)
ROTATED_MODEL_S = 2.3  # prepare plus verify of one 24x24 model on 2 cores
ROTATED_MAX_ROUNDS = 30
EXHAUSTIVE_MAX_BITS = 16
SUM_MAX_BITS = 12
LOG2_TOL = 1e-9
TRACE_TOL = 1e-6
SUM_TOL = 1e-8


class Recorder:
    """Timing samples, operation counts and failures of one measured run.

    With a tracer (installed by the caller around the whole run), rounds
    alternate: even rounds are traced, odd rounds run with the tracer paused,
    so that both sides sample the same stretch of the run.  `samples` points
    at the current side's lists; `by_side[traced]` holds both."""

    def __init__(self, seconds: float, tracer=None) -> None:
        self.seconds = seconds
        self.deadline = time.perf_counter() + seconds
        self.tracer = tracer
        self.by_side: dict[bool, dict[str, list[float]]] = {
            True: defaultdict(list), False: defaultdict(list)
        }
        self.samples = self.by_side[tracer is not None]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def call(self, what: str, fn, *args, check=None, **kwargs):
        """Run one operation; return (result, seconds), or (None, None) when
        it raised.  `check(result)` returns None or a mismatch description."""
        self.attempted += 1
        traced = self.tracer is not None and self.tracer.active
        span = self.tracer.span("bench.op") if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = fn(*args, **kwargs)
        # the benchmark must keep running to count every failure
        except Exception as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            self.failed += 1
            self.failures.append(
                f"{what}: raised {type(exc).__name__}: {exc} "
                f"(at {Path(frame.filename).name}:{frame.lineno})"
            )
            return None, None
        seconds = time.perf_counter() - t0
        problem = check(result) if check is not None else None
        if problem:
            self.mismatch(what, problem)
        return result, seconds

    def mismatch(self, what: str, problem: str) -> None:
        """Record a wrong output."""
        self.failed += 1
        self.correct = False
        self.failures.append(f"{what}: {problem}")

    def fewest(self, name: str) -> int:
        """Samples of `name` on the side that has fewest (just the untraced
        side when there is no tracer)."""
        sides = (True, False) if self.tracer is not None else (False,)
        return min(len(self.by_side[side][name]) for side in sides)

    @contextlib.contextmanager
    def _side(self, i: int):
        if self.tracer is None or i % 2 == 0:
            yield
            return
        self.samples = self.by_side[False]
        try:
            with self.tracer.paused():
                yield
        finally:
            self.samples = self.by_side[True]

    def repeat(
        self, body, min_rounds: int, enough=None, max_rounds: int | None = None,
        clock: bool = True,
    ) -> None:
        """Run body(i) for i = 0, 1, ... until the run's time is used up (a
        round starts only if the previous one's duration still fits), at
        least min_rounds times and until enough() holds.  With clock=False
        the time is not looked at: exactly min_rounds rounds, then more only
        while enough() fails."""
        i, last = 0, 0.0
        while (
            i < min_rounds
            or (enough is not None and not enough())
            or (clock and time.perf_counter() + last < self.deadline)
        ):
            if max_rounds is not None and i >= max_rounds:
                break
            gc.collect()
            t0 = time.perf_counter()
            with self._side(i):
                body(i)
            last = time.perf_counter() - t0
            i += 1


# ---------------------------------------------------------------------------
# references


@functools.cache
def split_sets(spec: LatticeSpec) -> dict[str, frozenset]:
    """Vertices split in each layer of a stabilizer model, from geometry
    alone: those where two plaquettes of that color meet."""
    return {
        color: frozenset(
            v for v in spec.vertices() if len(lattice.incident_plaquettes(spec, v, color)) == 2
        )
        for color in (BLACK, WHITE)
    }


def toric_satisfied(spec: LatticeSpec, cert) -> bool:
    """Stabilizer parity rule for the unsigned model: every plaquette whose
    corners are all split in its own layer needs even label parity."""
    split = split_sets(spec)
    for p in lattice.plaquettes(spec):
        color = lattice.plaquette_color(p)
        cs = lattice.corners(spec, p)
        if not all(v in split[color] for v in cs):
            continue
        labels = cert.alpha if color == BLACK else cert.beta
        if sum(labels[v] for v in cs) % 2:
            return False
    return True


def domain_problem(spec: LatticeSpec, prep) -> str | None:
    split = split_sets(spec)
    if set(prep.f_black) != split[BLACK] or set(prep.f_white) != split[WHITE]:
        return "split vertices differ from the stabilizer geometry"
    return None


def rotated_satisfiable(model, units) -> bool:
    """Un-rotate each term, take its argmin bitstring, and require the
    bitstrings to agree at every shared corner."""
    chosen: dict = {}
    for p, h in model.terms.items():
        cs = lattice.corners(model.spec, p)
        u = np.eye(1, dtype=complex)
        for v in cs:
            u = np.kron(u, units[v])
        diag = np.real(np.diag(u.conj().T @ h @ u))
        best = int(np.argmin(diag))
        for i, v in enumerate(cs):
            bit = (best >> (3 - i)) & 1
            if chosen.setdefault(v, bit) != bit:
                return False
    return True


def zeros_certificate(prep):
    return verifier.Certificate(
        {v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white}
    )


def expect_verdict(accept: bool, log2: float | None = None):
    """Check for a Verdict: the expected decision, Omega = 0 on reject, and
    log2 Omega when given."""

    def check(verdict) -> str | None:
        if verdict.accept != accept:
            return f"verdict {'accept' if verdict.accept else 'reject'}, expected {'accept' if accept else 'reject'}"
        if not accept and not verdict.omega.zero:
            return f"rejected with log2 Omega {verdict.omega.log2_magnitude}, expected Omega = 0"
        if accept and log2 is not None and abs(verdict.omega.log2_magnitude - log2) > LOG2_TOL:
            return f"log2 Omega {verdict.omega.log2_magnitude!r}, expected {log2!r}"
        return None

    return check


def commuting_ok(report) -> str | None:
    return None if report.ok else f"reported {len(report.violations)} non-commuting pairs"


def warm_up() -> None:
    """Finish lazy set-up (imports, first-call allocations) before timing."""
    m = cmodel.gen_toric(LatticeSpec(3, 3))
    prep = verifier.prepare(m)
    verifier.verify(prep, zeros_certificate(prep))
    oracle.total_overlap(m)


def prepare_timed(rec: Recorder, what: str, model, sample: bool = True):
    prep, seconds = rec.call(f"{what} prepare", verifier.prepare, model)
    if prep is not None and sample:
        rec.samples["setup_s"].append(seconds)
    return prep


# ---------------------------------------------------------------------------
# toric-verify


def _toric_stream(rng: np.random.Generator, spec: LatticeSpec):
    """Endless certificates, in shuffled chunks of WARM_CHUNK with equal
    parts: the honest all-zeros one, unions of 1-3 whole row or column label
    loops, and 1-3 random label flips."""
    slots = [(layer, v) for layer in ("alpha", "beta") for v in spec.vertices()]
    while True:
        kinds = ["honest", "loops", "flips"] * (WARM_CHUNK // 3)
        rng.shuffle(kinds)
        yield from (_toric_certificate(rng, spec, slots, kind) for kind in kinds)


def _toric_certificate(rng, spec: LatticeSpec, slots: list, kind: str):
    labels = {"alpha": dict.fromkeys(spec.vertices(), 0), "beta": dict.fromkeys(spec.vertices(), 0)}
    desc = []
    if kind == "loops":
        for _ in range(int(rng.integers(1, 4))):
            layer = ("alpha", "beta")[int(rng.integers(2))]
            axis = ("row", "col")[int(rng.integers(2))]
            k = int(rng.integers(spec.ly if axis == "row" else spec.lx))
            for v in spec.vertices():
                if v[1 if axis == "row" else 0] == k:
                    labels[layer][v] ^= 1
            desc.append(f"{layer} {axis} {k}")
    elif kind == "flips":
        for i in rng.choice(len(slots), size=int(rng.integers(1, 4)), replace=False):
            layer, v = slots[int(i)]
            labels[layer][v] ^= 1
            desc.append(f"{layer} {v}")
    return f"{kind}[{', '.join(desc)}]", verifier.Certificate(labels["alpha"], labels["beta"])


def _cli_roundtrip(rec: Recorder, model, cert, what: str) -> None:
    """save_model, load_model and an in-process `commham verify` on the
    written files (informational; traced runs only)."""
    out = Path.cwd() / OUT_DIR
    out.mkdir(exist_ok=True)
    model_path, cert_path = out / "toric-model.json", out / "toric-cert.json"
    rec.call(f"{what} save_model", serialize.save_model, model, model_path)
    rec.call(f"{what} save_certificate", serialize.save_certificate, cert, cert_path)
    rec.call(
        f"{what} load_model",
        serialize.load_model,
        model_path,
        check=lambda m: None if m.terms.keys() == model.terms.keys() else "terms differ",
    )
    with contextlib.redirect_stdout(io.StringIO()):
        rec.call(
            f"{what} cli verify",
            cli.main,
            ["verify", str(model_path), str(cert_path)],
            check=lambda code: None if code == cli.EXIT_OK else f"exit code {code}, expected 0",
        )


def toric_verify(rec: Recorder, seed: int) -> None:
    spec = TORIC_SPEC
    n = spec.n_vertices
    what = f"toric-verify seed={seed} model=toric {spec.lx}x{spec.ly} {spec.boundary}"
    model = cmodel.gen_toric(spec)
    rec.call(f"{what} check_commuting", cmodel.check_commuting, model, check=commuting_ok)
    stream = _toric_stream(np.random.default_rng(seed), spec)

    def cold(i: int):
        prep = prepare_timed(rec, what, model)
        if prep is None:
            return None
        problem = domain_problem(spec, prep)
        if problem:
            rec.mismatch(f"{what} prepare", problem)
            return None
        _, seconds = rec.call(
            f"{what} cert=honest cold verify", verifier.verify, prep,
            zeros_certificate(prep), check=expect_verdict(True, -n),
        )
        if seconds is not None:
            rec.samples["verify_cold_s"].append(seconds)
        return prep

    warm = cold(0)
    if warm is None:
        return

    # warm chunks alternate with fresh cold rounds, so that every metric is
    # sampled across the whole run
    def round_(i: int) -> None:
        for _ in range(WARM_CHUNK):
            desc, cert = next(stream)
            _, seconds = rec.call(
                f"{what} cert={desc}", verifier.verify, warm, cert,
                check=expect_verdict(toric_satisfied(spec, cert), -n),
            )
            if seconds is not None:
                rec.samples["verify_warm_ms"].append(1e3 * seconds)
                rec.samples["op_ms"].append(1e3 * seconds)
        cold(i + 1)

    rec.repeat(round_, min_rounds=-(-WARM_STREAM // WARM_CHUNK))
    if rec.tracer is not None:
        _cli_roundtrip(rec, model, zeros_certificate(warm), what)


# ---------------------------------------------------------------------------
# greedy-search


def greedy_search(rec: Recorder, seed: int) -> None:
    open_spec, torus = GREEDY_OPEN_SPEC, FRUSTRATED_SPEC
    blacks = [p for p in lattice.plaquettes(torus) if lattice.is_black(p)]
    bad = blacks[int(np.random.default_rng(seed).integers(len(blacks)))]
    signs = {p: (-1 if p == bad else 1) for p in blacks}
    toric = cmodel.gen_toric(open_spec)
    frustrated = cmodel.gen_signed_toric(
        torus,
        black_signs=signs,
        white_signs={p: 1 for p in lattice.plaquettes(torus) if not lattice.is_black(p)},
    )
    what_open = f"greedy-search seed={seed} model=toric {open_spec.lx}x{open_spec.ly} open"
    what_frus = (
        f"greedy-search seed={seed} model=signed-toric {torus.lx}x{torus.ly} periodic "
        f"black sign -1 at {bad}"
    )
    rec.call(f"{what_open} check_commuting", cmodel.check_commuting, toric, check=commuting_ok)
    rec.call(f"{what_frus} check_commuting", cmodel.check_commuting, frustrated, check=commuting_ok)

    def found_valid(result) -> str | None:
        if not result.found:
            return "no certificate found, expected one"
        if not toric_satisfied(open_spec, result.certificate):
            return "returned certificate violates stabilizer parity"
        return None

    def not_found(result) -> str | None:
        return "found a certificate on a frustrated torus" if result.found else None

    def round_(i: int) -> None:
        searched = 0.0
        prep = prepare_timed(rec, what_open, toric)
        if prep is not None:
            result, seconds = rec.call(
                f"{what_open} greedy restarts=1", prover.greedy_search, prep,
                seed=seed, restarts=1, check=found_valid,
            )
            if seconds is not None:
                searched += seconds
            fresh = prepare_timed(rec, what_open, toric)
            if fresh is not None and result is not None and result.found:
                _, seconds = rec.call(
                    f"{what_open} cert=greedy result cold re-verify", verifier.verify,
                    fresh, result.certificate,
                    check=expect_verdict(True, result.omega.log2_magnitude),
                )
                if seconds is not None:
                    rec.samples["verify_cold_s"].append(seconds)
        prep = prepare_timed(rec, what_frus, frustrated, sample=False)
        if prep is not None:
            _, seconds = rec.call(
                f"{what_frus} greedy restarts=4", prover.greedy_search, prep,
                seed=seed, restarts=4, check=not_found,
            )
            if seconds is not None:
                searched += seconds
        fresh = prepare_timed(rec, what_frus, frustrated, sample=False)
        if fresh is not None:
            rec.call(
                f"{what_frus} cert=all-zeros cold verify", verifier.verify,
                fresh, zeros_certificate(fresh), check=expect_verdict(False),
            )
        rec.samples["search_s"].append(searched)
        rec.samples["op_ms"].append(1e3 * searched)

    rec.repeat(round_, min_rounds=2)


# ---------------------------------------------------------------------------
# rotated-prepare


def _prepare_and_verify(model, validate: bool):
    """One rotated-prepare operation: optionally check_commuting, then
    prepare and verify the all-zeros certificate, each timed."""
    report = cmodel.check_commuting(model) if validate else None
    t0 = time.perf_counter()
    prep = verifier.prepare(model)
    t1 = time.perf_counter()
    verdict = verifier.verify(prep, zeros_certificate(prep))
    return report, t1 - t0, verdict, time.perf_counter() - t1


def rotated_prepare(rec: Recorder, seed: int) -> None:
    spec = ROTATED_SPEC

    def round_(i: int) -> None:
        # one operation per model, so error_rate is the share of models the
        # pipeline fails on
        model_seed = 1000 * seed + i
        what = (
            f"rotated-prepare seed={seed} model=rotated-classical {spec.lx}x{spec.ly} open "
            f"seed={model_seed} cert=all-zeros"
        )
        model, units = cmodel.gen_rotated_classical(spec, model_seed)
        satisfiable = rotated_satisfiable(model, units)

        def check(out) -> str | None:
            report, _, verdict, _ = out
            if report is not None and not report.ok:
                return commuting_ok(report)
            # an unsatisfiable model must reject; accepting needs satisfiability
            if verdict.accept and not satisfiable:
                return "accepted although the argmin bitstrings disagree"
            if not satisfiable and not verdict.omega.zero:
                return f"log2 Omega {verdict.omega.log2_magnitude}, expected Omega = 0"
            return None

        out, _ = rec.call(what, _prepare_and_verify, model, i == 0, check=check)
        if out is None:
            return
        _, prep_s, _, verify_s = out
        rec.samples["setup_s"].append(prep_s)
        rec.samples["verify_cold_s"].append(verify_s)
        rec.samples["op_ms"].append(1e3 * (prep_s + verify_s))

    # the model count follows from --seconds, not from the clock, so a seed
    # always attempts the same models and the defect's failure count is
    # reproducible.  At least two models must prepare so that setup_s has a
    # median; failed prepares still count, and the round cap bounds a run
    # where all fail
    rec.repeat(
        round_, min_rounds=max(2, round(rec.seconds / ROTATED_MODEL_S)),
        enough=lambda: rec.fewest("setup_s") >= 2, max_rounds=ROTATED_MAX_ROUNDS,
        clock=False,
    )


# ---------------------------------------------------------------------------
# oracle-audit


def oracle_models(seed: int) -> list[tuple[str, object]]:
    """The audited set, N = 12 to 16.  Rotated-classical 4x4 is left out:
    its total_overlap takes over 300 s (sparse fill-in falls back to the
    dense basis sweep)."""
    rng = np.random.default_rng(seed)

    def draw() -> int:
        return int(rng.integers(2**31))

    s1, s2, s3, s4, s5 = (draw() for _ in range(5))
    return [
        ("toric 4x3 open", cmodel.gen_toric(LatticeSpec(4, 3))),
        ("toric 4x4 open", cmodel.gen_toric(LatticeSpec(4, 4))),
        ("toric 4x4 periodic", cmodel.gen_toric(LatticeSpec(4, 4, "periodic"))),
        (f"signed-toric 4x3 open seed={s1}", cmodel.gen_signed_toric(LatticeSpec(4, 3), s1)),
        (f"signed-toric 4x4 periodic seed={s2}", cmodel.gen_signed_toric(LatticeSpec(4, 4, "periodic"), s2)),
        (f"diagonal-field 4x3 seed={s3}", cmodel.gen_random(LatticeSpec(4, 3), s3, "diagonal-field")),
        (f"diagonal-field 4x4 seed={s4}", cmodel.gen_random(LatticeSpec(4, 4), s4, "diagonal-field")),
        (f"rotated-classical 4x3 seed={s5}", cmodel.gen_rotated_classical(LatticeSpec(4, 3), s5)[0]),
    ]


def _integral(value: float) -> str | None:
    nearest = round(value)
    if abs(value - nearest) > TRACE_TOL or nearest < 0:
        return f"trace {value!r} is not a non-negative integer"
    return None


def oracle_audit(rec: Recorder, seed: int) -> None:
    models = oracle_models(seed)
    for name, model in models:
        what = f"oracle-audit seed={seed} model={name}"
        rec.call(f"{what} check_commuting", cmodel.check_commuting, model, check=commuting_ok)

    # prepare and cold verify take milliseconds on these models, so each
    # pass gives one sample of each: its mean over the models of the set
    def audit(i: int) -> None:
        oracle_s = search_s = 0.0
        setup, cold = [], []
        for name, model in models:
            what = f"oracle-audit seed={seed} model={name}"
            prep, seconds = rec.call(f"{what} prepare", verifier.prepare, model)
            if prep is None:
                continue
            setup.append(seconds)
            bits = len(prep.f_black) + len(prep.f_white)
            verdict, seconds = rec.call(
                f"{what} cert=all-zeros cold verify", verifier.verify, prep, zeros_certificate(prep)
            )
            if seconds is not None:
                cold.append(seconds)
            trace, seconds = rec.call(f"{what} total_overlap", oracle.total_overlap, model, check=_integral)
            if trace is None:
                continue
            oracle_s += seconds
            expected = round(trace)
            _, seconds = rec.call(
                f"{what} ground_dim", oracle.ground_dim, model,
                check=lambda d: None if d == expected else f"ground_dim {d}, layer trace {trace!r}",
            )
            oracle_s += seconds or 0.0
            if verdict is not None and verdict.accept and expected < 1:
                rec.mismatch(f"{what} cert=all-zeros", f"accepted, but the trace is {trace!r}")
            if bits <= EXHAUSTIVE_MAX_BITS:
                def exhaustive_ok(result) -> str | None:
                    if result.found != (expected >= 1):
                        return f"found={result.found} with trace {trace!r}"
                    if result.found and not result.verdict.accept:
                        return "returned certificate does not verify"
                    if not result.found and verdict is not None and verdict.accept:
                        return "nothing found, but the all-zeros certificate accepts"
                    return None

                _, seconds = rec.call(
                    f"{what} exhaustive_search", prover.exhaustive_search, model, check=exhaustive_ok
                )
                oracle_s += seconds or 0.0
                search_s += seconds or 0.0
            if bits <= SUM_MAX_BITS:
                _, seconds = rec.call(
                    f"{what} certificate_sum", oracle.certificate_sum, model,
                    check=lambda out: None if abs(out[0] - trace) <= SUM_TOL
                    else f"certificate sum {out[0]!r}, layer trace {trace!r}",
                )
                oracle_s += seconds or 0.0
        if setup:
            rec.samples["setup_s"].append(statistics.fmean(setup))
        if cold:
            rec.samples["verify_cold_s"].append(statistics.fmean(cold))
        rec.samples["oracle_s"].append(oracle_s)
        rec.samples["search_s"].append(search_s)
        rec.samples["op_ms"].append(1e3 * oracle_s)

    rec.repeat(audit, min_rounds=3)


WORKLOADS = {
    "toric-verify": toric_verify,
    "greedy-search": greedy_search,
    "rotated-prepare": rotated_prepare,
    "oracle-audit": oracle_audit,
}
