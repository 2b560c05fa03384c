"""Compare layer decompositions and certificate values between two source trees.

Run the dump once per tree, then diff the two dumps:

    PYTHONPATH=<old tree>/src python tools/compare_decomposition.py dump old.pkl
    PYTHONPATH=<new tree>/src python tools/compare_decomposition.py dump new.pkl old.pkl
    python tools/compare_decomposition.py diff old.pkl new.pkl

The diff exits with status 1 when it reports a structural difference:
commutation pairs, ground-projector violation pairs, a model that prepares
on one tree only, split flags, owners, zero outcomes, or factor kinds or
keys.  Numeric differences are printed only.

The dump prepares a fixed model set (toric, rotated-classical,
diagonal-field, signed-toric, Haar-conjugated toric and Ising models,
rotated-classical 24x24 seeds 0-9, the greedy benchmark models: toric
12x12 open and the signed 8x8 torus with one flipped black sign, and
rotated-classical models with every term perturbed by 1e-3 to 1e-11) and
records, per model, the `check_commuting` violations (pairs, in order, and
norms), the band-kernel commutator norm of every intersecting pair of
ground projectors (as `prepare` computes it), the violations of the
`NonCommutingError` that `prepare` raises, if it does, each layer's
`split`, `owner` and `basis` arrays, log2 Omega and the factor list, each
factor's (kind, key, log2), of the all-zeros certificate and of three
seeded random ones, and
the result of a search: an exhaustive search (at most 16
label bits), a two-restart greedy search (at most 36 qubits), or the
greedy run the model names.  A search result is its kind, its `evaluated`
count and its certificate, so equal counts and certificates show equal
search trajectories.  Given an older dump, it also evaluates that dump's
search certificates, so equal certificates are compared on both trees even
when the searches pick different ones among equal-valued ties.  Dumps are
pickles of one dict per model that only this script writes and reads.
"""
from __future__ import annotations

import pickle
import sys
import time

import numpy as np


def conjugated(m, seed: int):
    """m with every term conjugated by one Haar unitary per vertex."""
    from commham import CommutingModel, corners

    rng = np.random.default_rng(100 + seed)
    units = {}
    for v in m.spec.vertices():
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        units[v] = q * (np.diag(r) / np.abs(np.diag(r)))
    terms = {}
    for p, h in m.terms.items():
        u = np.eye(1, dtype=complex)
        for v in corners(m.spec, p):
            u = np.kron(u, units[v])
        t = u @ h @ u.conj().T
        terms[p] = (t + t.conj().T) / 2
    return CommutingModel(m.spec, terms)


def perturbed(m, eps: float, seed: int):
    """m with eps times a seeded random Hermitian matrix of unit-variance
    entries added to every term."""
    from commham import CommutingModel

    rng = np.random.default_rng(200 + seed)
    terms = {}
    for p, h in sorted(m.terms.items()):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        terms[p] = h + eps * (g + g.conj().T) / 2
    return CommutingModel(m.spec, terms)


def frustrated_torus(seed: int):
    """8x8 stabilizer torus with the sign of one seeded black term flipped,
    as in the benchmark's greedy-search workload."""
    from commham import LatticeSpec, gen_signed_toric, is_black, plaquettes

    spec = LatticeSpec(8, 8, "periodic")
    blacks = [p for p in plaquettes(spec) if is_black(p)]
    bad = blacks[int(np.random.default_rng(seed).integers(len(blacks)))]
    return gen_signed_toric(
        spec,
        black_signs={p: (-1 if p == bad else 1) for p in blacks},
        white_signs={p: 1 for p in plaquettes(spec) if not is_black(p)},
    )


# models searched by the greedy run given here instead of the default rule:
# the benchmark's greedy-search models, run as the benchmark runs them
GREEDY_RUNS = {
    **{f"toric 12x12 open greedy s{s}": {"seed": s, "restarts": 1} for s in (1, 2, 3)},
    **{f"frustrated 8x8 torus greedy s{s}": {"seed": s, "restarts": 4} for s in (1, 2, 3)},
}


def models():
    from commham import LatticeSpec, gen_random, gen_rotated_classical, gen_toric

    yield "toric 8x8 open", gen_toric(LatticeSpec(8, 8))
    yield "toric 8x8 periodic", gen_toric(LatticeSpec(8, 8, "periodic"))
    yield "toric 5x6 open", gen_toric(LatticeSpec(5, 6))
    for s in range(20):
        yield f"rotated 6x6 s{s}", gen_random(LatticeSpec(6, 6), s, "rotated-classical")
        yield f"diagonal 6x6 s{s}", gen_random(LatticeSpec(6, 6), s, "diagonal-field")
        yield f"signed 4x4 periodic s{s}", gen_random(LatticeSpec(4, 4, "periodic"), s, "signed-toric")
    for s in range(10):
        yield f"haar toric 4x4 s{s}", conjugated(gen_toric(LatticeSpec(4, 4)), s)
        yield f"haar ising 4x4 s{s}", conjugated(gen_random(LatticeSpec(4, 4), s, "diagonal-field"), s)
        yield f"rotated 4x4 s{s}", gen_random(LatticeSpec(4, 4), s, "rotated-classical")
    for s in range(10):
        yield f"haar toric 6x6 s{s}", conjugated(gen_toric(LatticeSpec(6, 6)), s)
        yield f"haar ising 5x5 s{s}", conjugated(gen_random(LatticeSpec(5, 5), s, "diagonal-field"), s)
    for s in range(10):
        yield f"rotated 24x24 s{s}", gen_rotated_classical(LatticeSpec(24, 24), s)[0]
    for s in (1, 2, 3):
        yield f"toric 12x12 open greedy s{s}", gen_toric(LatticeSpec(12, 12))
        yield f"frustrated 8x8 torus greedy s{s}", frustrated_torus(s)
    for spec in (LatticeSpec(4, 4, "periodic"), LatticeSpec(6, 4, "periodic"),
                 LatticeSpec(5, 3), LatticeSpec(20, 20, "periodic")):
        base = gen_random(spec, 0, "rotated-classical")
        for e in (3, 7, 9, 11):
            yield f"rotated {spec.lx}x{spec.ly} {spec.boundary} +1e-{e}", perturbed(base, 10.0**-e, e)


def _omega(verdict):
    return verdict.omega.zero, verdict.omega.log2_magnitude


def _factors(verdict):
    return [(f.kind, f.key, f.log2) for f in verdict.omega.factors]


def band_norms(m):
    """(p, q, |[P_p, P_q]|) for every intersecting pair of ground projectors,
    from the band frames of the terms' `ground_band`, as `prepare` checks them."""
    from commham import model
    from commham.linalg import ground_band

    proj, _, frame, side = ground_band(m.distinct)
    return model._named(m.spec, *model._band_pair_norms(m.spec, m.ids, proj, frame, side))


def dump(out: str, older: str | None = None) -> None:
    from commham import (
        Certificate, NonCommutingError, check_commuting, exhaustive_search, greedy_search, prepare, verify,
    )

    ref = {}
    if older:
        with open(older, "rb") as f:
            ref = pickle.load(f)
    res = {}
    t0 = time.perf_counter()
    for name, m in models():
        rec = res[name] = {
            "status": "ok", "violations": check_commuting(m).violations,
            "band": band_norms(m), "projector_violations": None,
        }
        try:
            prep = prepare(m)
        except ValueError as exc:
            rec["status"] = type(exc).__name__
            if isinstance(exc, NonCommutingError):
                rec["projector_violations"] = exc.violations
            continue
        rec["layers"] = {
            layer.color: (layer.split.copy(), layer.owner.copy(), layer.basis.copy())
            for layer in (prep.black, prep.white)
        }
        rng = np.random.default_rng(0)
        certs = [Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white})]
        for _ in range(3):
            certs.append(Certificate(
                {v: int(rng.integers(2)) for v in sorted(prep.f_black)},
                {v: int(rng.integers(2)) for v in sorted(prep.f_white)},
            ))
        verdicts = [verify(prep, c) for c in certs]
        rec["omegas"] = [_omega(v) + (_factors(v),) for v in verdicts]
        search = kind = None
        if name in GREEDY_RUNS:
            kind, search = "greedy", greedy_search(prep, **GREEDY_RUNS[name])
        elif len(prep.f_black) + len(prep.f_white) <= 16:
            kind, search = "exhaustive", exhaustive_search(prep)
        elif m.n_qubits <= 36:
            kind, search = "greedy", greedy_search(prep, restarts=2)
        found = None
        if search is not None and search.found:
            found = ((search.certificate.alpha, search.certificate.beta), _omega(search.verdict))
        rec["found"] = found
        rec["trajectory"] = None if search is None else (kind, search.evaluated, found[0] if found else None)
        rec["older_found"] = None
        r = ref.get(name)
        if r is not None and r["status"] == "ok" and r["found"] is not None:
            rec["older_found"] = _omega(verify(prep, Certificate(*r["found"][0])))
    print(f"dumped {len(res)} models in {time.perf_counter() - t0:.1f} s")
    with open(out, "wb") as f:
        pickle.dump(res, f)


def _pairs(norms):
    return [(p, q) for p, q, _ in norms]


def _max_norm_difference(a, b, at_least=0.0):
    return max([at_least] + [abs(x[2] - y[2]) for x, y in zip(a, b)])


def diff(old_path: str, new_path: str) -> bool:
    """Print the comparison; True when it found a structural difference."""
    with open(old_path, "rb") as f:
        old = pickle.load(f)
    with open(new_path, "rb") as f:
        new = pickle.load(f)
    both = nonzero = 0
    max_basis = max_log2 = max_norm = max_band = max_factor = 0.0
    problems, ties, paths, scans, one_tree, projector_scans = [], [], [], [], [], []
    searches = violations = band_pairs = factor_lists = 0

    def compare_log2(name, a, b, what):
        nonlocal nonzero, max_log2
        if a[0] != b[0]:
            problems.append(f"{name}: {what} zero outcome differs")
        elif not a[0]:
            nonzero += 1
            max_log2 = max(max_log2, abs(a[1] - b[1]))

    for name, ra in old.items():
        rb = new[name]
        va, vb = ra["violations"], rb["violations"]
        violations += len(va)
        if _pairs(va) != _pairs(vb):
            scans.append(f"{name}: {len(va)} -> {len(vb)} violations")
        else:
            max_norm = _max_norm_difference(va, vb, max_norm)
        band_pairs += len(ra["band"])
        if _pairs(ra["band"]) != _pairs(rb["band"]):
            problems.append(f"{name}: ground-projector pairs differ")
        else:
            max_band = _max_norm_difference(ra["band"], rb["band"], max_band)
        pa, pb = ra["projector_violations"], rb["projector_violations"]
        if (pa is None) != (pb is None) or (pa is not None and _pairs(pa) != _pairs(pb)):
            projector_scans.append(name)
        if ra["status"] != "ok" or rb["status"] != "ok":
            if (ra["status"] == "ok") != (rb["status"] == "ok"):
                one_tree.append(name)
            print(f"{name}: old {ra['status']}, new {rb['status']}")
            continue
        both += 1
        for color, (split, owner, basis) in ra["layers"].items():
            split_b, owner_b, basis_b = rb["layers"][color]
            if not (np.array_equal(split, split_b) and np.array_equal(owner, owner_b)):
                problems.append(f"{name} {color}: split flags or owners differ")
            elif basis.size:
                max_basis = max(max_basis, float(np.max(np.abs(basis - basis_b))))
        for a, b in zip(ra["omegas"], rb["omegas"]):
            compare_log2(name, a, b, "certificate")
            factor_lists += 1
            if [f[:2] for f in a[2]] != [f[:2] for f in b[2]]:
                problems.append(f"{name}: factor kinds or keys differ")
            elif [f[2] == -np.inf for f in a[2]] != [f[2] == -np.inf for f in b[2]]:
                problems.append(f"{name}: vanishing factors differ")
            else:
                max_factor = max([max_factor] + [
                    abs(f[2] - g[2]) for f, g in zip(a[2], b[2]) if f[2] != -np.inf
                ])
        fa, fb, ta, tb = ra["found"], rb["found"], ra["trajectory"], rb["trajectory"]
        if (fa is None) != (fb is None):
            problems.append(f"{name}: search found a certificate on one tree only")
        elif fa is not None:
            if rb["older_found"] is not None:  # the new dump was given the old one
                compare_log2(name, fa[1], rb["older_found"], "old search certificate")
            compare_log2(name, fa[1], fb[1], "search optimum")
            if fa[0] != fb[0]:
                ties.append(name)
        if ta is not None:
            searches += 1
            if ta != tb:
                paths.append(f"{name} ({ta[0]}: evaluated {ta[1]} -> {tb[1]}"
                             f"{', other certificate' if ta[2] != tb[2] else ''})")
    print(f"check_commuting violations: {violations}, pairs and order "
          f"{'identical' if not scans else f'differ on {len(scans)} models'}, "
          f"max |norm difference| {max_norm:.3g}")
    for p in scans:
        print("  ", p)
    print(f"ground-projector pair norms compared: {band_pairs}, max |norm difference| {max_band:.3g}")
    print(f"ground-projector violation lists: "
          f"{'identical' if not projector_scans else 'differ on ' + ', '.join(projector_scans)}")
    print(f"models prepared by both: {both} of {len(old)}")
    print(f"split flags, owners, zero outcomes, factor kinds and keys: "
          f"{'identical' if not problems else f'{len(problems)} differences'}")
    for p in problems:
        print("  ", p)
    print(f"non-zero log2 Omega values compared: {nonzero}")
    print(f"max |slice basis difference| {max_basis:.3g}, "
          f"max |log2 Omega difference| {max_log2:.3g}")
    print(f"factor lists compared: {factor_lists}, max |factor log2 difference| {max_factor:.3g}")
    if ties:
        print(f"searches returning a different certificate of equal value: {', '.join(ties)}")
    print(f"searches with the same evaluated count and certificate: "
          f"{searches - len(paths)} of {searches}")
    for p in paths:
        print("  ", p)
    return bool(scans or projector_scans or one_tree or problems)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("dump", "diff"):
        sys.exit(__doc__)
    if sys.argv[1] == "dump":
        dump(*sys.argv[2:4])
    else:
        sys.exit(1 if diff(sys.argv[2], sys.argv[3]) else 0)
