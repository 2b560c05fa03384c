"""Command-line front end.

Exit codes: 0 success/accept, 1 reject or no certificate found, 2 invalid
input (flags, files, domains, size caps) or an output file that cannot be
written, 3 non-commuting model.
"""
from __future__ import annotations

import argparse
import sys

from . import lattice, model as model_mod, oracle, prover, serialize, verifier
from .decompose import ImpossibleAlgebraPair
from .lattice import LatticeSpec
from .linalg import BasisMismatch
from .model import NonCommutingError
from .oracle import IntegralityError
from .verifier import DegreeViolation

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_BAD_INPUT = 2
EXIT_NON_COMMUTING = 3

_NON_COMMUTING = (
    NonCommutingError,
    ImpossibleAlgebraPair,
    BasisMismatch,
    DegreeViolation,
    IntegralityError,
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="commham")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a model file")
    g.add_argument("--model", required=True, choices=["toric", "ising", "random"])
    g.add_argument("--lx", type=int, required=True)
    g.add_argument("--ly", type=int, required=True)
    g.add_argument("--boundary", default="open", choices=["open", "periodic"])
    g.add_argument("--method", default="rotated-classical",
                   choices=["rotated-classical", "signed-toric", "diagonal-field"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--coupling", type=float, default=1.0)
    g.add_argument("--field", type=float, default=0.0)
    g.add_argument("-o", "--output", required=True)

    c = sub.add_parser("check", help="check commutation and term ground spaces")
    c.add_argument("model")

    v = sub.add_parser("verify", help="verify a certificate")
    v.add_argument("model")
    v.add_argument("certificate")
    v.add_argument("--threshold", type=float, default=None)

    pr = sub.add_parser("prove", help="search for an accepting certificate")
    pr.add_argument("model")
    mode = pr.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="scan every certificate (the default)")
    mode.add_argument("--greedy", action="store_true", help="single-label hill climbing")
    pr.add_argument("--seed", type=int, default=0, help="seed of the random restarts (with --greedy only)")
    pr.add_argument("--restarts", type=int, default=8, help="number of starts (with --greedy only)")
    pr.add_argument("--cap", type=int, default=26, help="bound the exhaustive scan at 2^cap certificates")
    pr.add_argument("-o", "--output", required=True)

    o = sub.add_parser("oracle", help="brute-force layer trace and audits")
    o.add_argument("model")
    o.add_argument("--sum-check", action="store_true")
    return p


def cmd_gen(args) -> int:
    spec = LatticeSpec(args.lx, args.ly, args.boundary)
    if args.model == "toric":
        m = model_mod.gen_toric(spec)
    elif args.model == "ising":
        m = model_mod.gen_ising(spec, args.coupling, args.field)
    else:
        m = model_mod.gen_random(spec, args.seed, args.method)
    serialize.save_model(m, args.output)
    print(f"wrote {args.output}: {len(m.ids)} terms, {len(m.distinct)} distinct, on {m.n_qubits} qubits")
    return EXIT_OK


def cmd_check(args) -> int:
    # the term scan, then the ground-projector check that `prepare` runs
    m = serialize.load_model(args.model)
    violations = model_mod.check_commuting(m).violations
    for p, q, norm in violations:
        print(f"violation: [{p}, {q}] has norm {norm:.3e}")
    try:
        ids, projs = model_mod.ground_projectors(m)
    except NonCommutingError as exc:
        for p, q, norm in exc.violations:
            print(f"violation: ground projectors [{p}, {q}] have norm {norm:.3e}")
        return EXIT_NON_COMMUTING
    for p, i in zip(lattice.plaquettes(m.spec), ids.tolist()):
        dim = round(projs[i].trace().real)
        print(f"plaquette {p} ({lattice.plaquette_color(p)}): ground-space dim {dim}")
    if violations:
        return EXIT_NON_COMMUTING
    print("commuting: ok")
    return EXIT_OK


def cmd_verify(args) -> int:
    m = serialize.load_model(args.model)
    cert = serialize.load_certificate(args.certificate)
    verdict = verifier.verify(m, cert, args.threshold)
    omega = verdict.omega
    print("verdict:", "accept" if verdict.accept else "reject")
    print(f"log2_omega: {'-inf' if omega.zero else format(omega.log2_magnitude, '.12g')}")
    print(f"log2_threshold: {verdict.log2_threshold:.12g}")
    for f in omega.factors:
        val = "2^%g" % f.log2 if f.value is None else format(f.value, ".12g")
        print(f"  factor {f.kind} {f.key}: {val}")
    return EXIT_OK if verdict.accept else EXIT_REJECT


def cmd_prove(args) -> int:
    m = serialize.load_model(args.model)
    if args.greedy:
        result = prover.greedy_search(m, seed=args.seed, restarts=args.restarts)
    else:
        result = prover.exhaustive_search(m, cap=args.cap)
    if not result.found:
        print(f"no accepting certificate (evaluated {result.evaluated})")
        return EXIT_REJECT
    serialize.save_certificate(result.certificate, args.output)
    print(f"wrote {args.output}: log2_omega {result.omega.log2_magnitude:.12g}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    m = serialize.load_model(args.model)
    val = oracle.total_overlap(m)
    count = oracle.nearest_count(val)
    print(f"layer_trace: {val:.12g}")
    print(f"integrality: {'FAILED' if count is None else 'ok'} (nearest integer {round(val)})")
    if args.sum_check:
        # certificate_sum raises IntegralityError (exit 3) when the sum misses the trace
        total, evaluated = oracle.certificate_sum(m)
        print(f"certificate_sum: {total:.12g} over {evaluated} certificates that annihilate no plaquette")
        print("sum_matches_trace: ok")
    return EXIT_NON_COMMUTING if count is None else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "gen": cmd_gen,
        "check": cmd_check,
        "verify": cmd_verify,
        "prove": cmd_prove,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except _NON_COMMUTING as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_COMMUTING
    # every input error (lattice, model, file, cap, domain) is a ValueError; an unwritable output an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
